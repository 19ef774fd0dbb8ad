package ftm

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"resilientft/internal/core"
	"resilientft/internal/rpc"
	"resilientft/internal/transport"
)

// ShardedConfig assembles N independent replica groups over one
// simulated network — the partitioned form of SystemConfig.
type ShardedConfig struct {
	// System is the base application name; group k's replicas run as
	// "<System>-<k>" with group ID strconv.Itoa(k). ('-', not '.': the
	// name is a component path, and paths exclude the fscript member
	// separator.)
	System string
	// FTM is every group's initial mechanism.
	FTM core.ID
	// Shards is the group count (minimum 1).
	Shards int
	// AppFactory builds one application instance per replica.
	AppFactory func() Application
	// Net is the network to attach to (a fresh seeded one when nil).
	Net *transport.MemNetwork
	// HeartbeatInterval and SuspectTimeout tune every group's failover.
	HeartbeatInterval time.Duration
	SuspectTimeout    time.Duration
	// EventHook receives replica life-cycle events with their group ID.
	EventHook func(group, hostName, event string)
}

// ShardedSystem is N independent two-replica groups plus the routing
// glue: each group has its own hosts, detector, wave batcher and reply
// log — no shared locks anywhere on the request path — and a Router
// spreads keys across them on a consistent-hash ring. It is the harness
// behind the sharded benchmarks and the shard-isolation tests.
type ShardedSystem struct {
	Net *transport.MemNetwork

	mu      sync.Mutex
	cfg     ShardedConfig
	groups  []*System
	ids     []string
	clients int
}

// NewShardedSystem boots cfg.Shards independent groups on one network.
func NewShardedSystem(ctx context.Context, cfg ShardedConfig) (*ShardedSystem, error) {
	if cfg.System == "" {
		cfg.System = "app"
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.AppFactory == nil {
		cfg.AppFactory = func() Application { return NewCalculator() }
	}
	if cfg.Net == nil {
		cfg.Net = transport.NewMemNetwork(transport.WithSeed(1))
	}
	s := &ShardedSystem{Net: cfg.Net, cfg: cfg}
	for k := 0; k < cfg.Shards; k++ {
		gid := strconv.Itoa(k)
		gcfg := SystemConfig{
			System: fmt.Sprintf("%s-%s", cfg.System, gid),
			Group:  gid,
			FTM:    cfg.FTM,
			// Distinct host names per group: each group gets its own pair
			// of hosts, so a crash in one group touches no other.
			HostNames:         [2]string{fmt.Sprintf("%s-%s-a", cfg.System, gid), fmt.Sprintf("%s-%s-b", cfg.System, gid)},
			AppFactory:        cfg.AppFactory,
			Net:               cfg.Net,
			HeartbeatInterval: cfg.HeartbeatInterval,
			SuspectTimeout:    cfg.SuspectTimeout,
		}
		if cfg.EventHook != nil {
			hook := cfg.EventHook
			gcfg.EventHook = func(hostName, event string) { hook(gid, hostName, event) }
		}
		g, err := NewSystem(ctx, gcfg)
		if err != nil {
			s.Shutdown()
			return nil, fmt.Errorf("ftm: shard %s: %w", gid, err)
		}
		s.groups = append(s.groups, g)
		s.ids = append(s.ids, gid)
	}
	return s, nil
}

// IDs returns the group IDs, in shard order.
func (s *ShardedSystem) IDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.ids...)
}

// Groups returns the per-shard systems, in shard order.
func (s *ShardedSystem) Groups() []*System {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*System(nil), s.groups...)
}

// Group returns shard k's system.
func (s *ShardedSystem) Group(k int) *System {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.groups[k]
}

// Routes returns the current route table: every group's ID with its
// replica addresses, master first when known.
func (s *ShardedSystem) Routes() []rpc.ShardRoute {
	routes := make([]rpc.ShardRoute, 0, len(s.Groups()))
	s.mu.Lock()
	groups, ids := append([]*System(nil), s.groups...), append([]string(nil), s.ids...)
	s.mu.Unlock()
	for i, g := range groups {
		routes = append(routes, rpc.ShardRoute{ID: ids[i], Replicas: g.Addresses()})
	}
	return routes
}

// NewRouter attaches a new routing client: a fresh endpoint on the
// network and a Router over the current route table. opts configure
// every per-shard client.
func (s *ShardedSystem) NewRouter(opts ...rpc.ClientOption) (*rpc.Router, error) {
	s.mu.Lock()
	s.clients++
	id := fmt.Sprintf("router-%d", s.clients)
	s.mu.Unlock()
	ep, err := s.Net.Endpoint(transport.Address(id))
	if err != nil {
		return nil, err
	}
	return rpc.NewRouter(id, ep, s.Routes(), opts...), nil
}

// Shutdown crashes every group's hosts.
func (s *ShardedSystem) Shutdown() {
	for _, g := range s.Groups() {
		g.Shutdown()
	}
}
