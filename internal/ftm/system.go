package ftm

import (
	"context"
	"fmt"
	"sync"
	"time"

	"resilientft/internal/component"
	"resilientft/internal/core"
	"resilientft/internal/host"
	"resilientft/internal/rpc"
	"resilientft/internal/stablestore"
	"resilientft/internal/transport"
)

// SystemConfig assembles a complete fault-tolerant replica group — a
// duplex pair, one master and one slave — on a simulated network.
type SystemConfig struct {
	// System names the protected application.
	System string
	// Group is the replica group (shard) ID every replica carries; empty
	// for a classic unsharded pair. ShardedSystem sets it per group.
	Group string
	// FTM is the initial mechanism.
	FTM core.ID
	// AppFactory builds one application instance per replica.
	AppFactory func() Application
	// Net is the network to attach to (a fresh seeded one when nil).
	Net *transport.MemNetwork
	// HostNames name the initial master's and slave's hosts (default
	// "alpha", "beta").
	HostNames [2]string
	// HeartbeatInterval and SuspectTimeout tune failover speed.
	HeartbeatInterval time.Duration
	SuspectTimeout    time.Duration
	// EventHook receives replica life-cycle events.
	EventHook func(hostName, event string)
	// StoreFactory supplies each host's stable store (default: a fresh
	// MemStore per host). The chaos engine hands out FaultStore wrappers
	// here so campaigns can slow or fill a live replica's storage.
	StoreFactory func(hostName string) stablestore.Store
}

// System is a running replicated fault-tolerant application plus the
// harness around it (network, hosts, registry) used by tests, examples
// and the benchmark suite.
type System struct {
	Net      *transport.MemNetwork
	Registry *component.Registry

	mu       sync.Mutex
	cfg      SystemConfig
	hosts    []*host.Host // initial master first; fixed after NewSystem
	replicas []*Replica
	clients  int
}

// NewSystem boots the pair's two hosts and deploys cfg.FTM with the
// master on the first. When it fails, the hosts it created are
// crashed again, so the network is left as it was found.
func NewSystem(ctx context.Context, cfg SystemConfig) (_ *System, err error) {
	if cfg.System == "" {
		cfg.System = "app"
	}
	if _, err := core.Lookup(cfg.FTM); err != nil {
		return nil, err
	}
	if cfg.AppFactory == nil {
		cfg.AppFactory = func() Application { return NewCalculator() }
	}
	if cfg.HostNames == [2]string{} {
		cfg.HostNames = [2]string{"alpha", "beta"}
	}
	if cfg.Net == nil {
		cfg.Net = transport.NewMemNetwork(transport.WithSeed(1))
	}
	s := &System{Net: cfg.Net, Registry: NewRegistry(), cfg: cfg}
	defer func() {
		if err != nil {
			s.Shutdown()
		}
	}()

	for _, name := range cfg.HostNames {
		var hostOpts []host.Option
		if cfg.StoreFactory != nil {
			hostOpts = append(hostOpts, host.WithStore(cfg.StoreFactory(name)))
		}
		h, err := host.New(name, cfg.Net, s.Registry, hostOpts...)
		if err != nil {
			return nil, err
		}
		s.hosts = append(s.hosts, h)
	}
	s.replicas = make([]*Replica, len(s.hosts))
	for i := range s.hosts {
		role := core.RoleSlave
		if i == 0 {
			role = core.RoleMaster
		}
		r, err := s.deployReplica(ctx, i, cfg.FTM, role)
		if err != nil {
			return nil, err
		}
		s.replicas[i] = r
	}
	return s, nil
}

// deployReplica deploys ftmID on host idx, wired to the other host as
// its peer when the mechanism spans two hosts.
func (s *System) deployReplica(ctx context.Context, idx int, ftmID core.ID, role core.Role) (*Replica, error) {
	desc, err := core.Lookup(ftmID)
	if err != nil {
		return nil, err
	}
	h := s.hosts[idx]
	cfg := ReplicaConfig{
		System:            s.cfg.System,
		Group:             s.cfg.Group,
		FTM:               ftmID,
		Role:              role,
		App:               s.cfg.AppFactory(),
		HeartbeatInterval: s.cfg.HeartbeatInterval,
		SuspectTimeout:    s.cfg.SuspectTimeout,
	}
	if desc.Hosts >= 2 {
		cfg.Peer = s.hosts[1-idx].Addr()
	}
	var opts []ReplicaOption
	if s.cfg.EventHook != nil {
		hook := s.cfg.EventHook
		name := h.Name()
		opts = append(opts, WithEventHook(func(e string) { hook(name, e) }))
	}
	return NewReplica(ctx, h, cfg, opts...)
}

// Hosts returns the hosts, initial master first.
func (s *System) Hosts() []*host.Host {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*host.Host(nil), s.hosts...)
}

// Replicas returns the replicas, initial master first (some may be dead
// after crashes).
func (s *System) Replicas() []*Replica {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Replica(nil), s.replicas...)
}

// Master returns the current master replica, or nil.
func (s *System) Master() *Replica {
	for _, r := range s.Replicas() {
		if r != nil && !r.Host().Crashed() && r.Role() == core.RoleMaster {
			return r
		}
	}
	return nil
}

// Slave returns the live slave replica, or nil.
func (s *System) Slave() *Replica {
	for _, r := range s.Replicas() {
		if r != nil && !r.Host().Crashed() && r.Role() == core.RoleSlave {
			return r
		}
	}
	return nil
}

// Addresses returns the replica addresses, master first when known.
func (s *System) Addresses() []transport.Address {
	var out []transport.Address
	if m := s.Master(); m != nil {
		out = append(out, m.Host().Addr())
	}
	for _, r := range s.Replicas() {
		if r == nil {
			continue
		}
		addr := r.Host().Addr()
		dup := false
		for _, a := range out {
			if a == addr {
				dup = true
			}
		}
		if !dup {
			out = append(out, addr)
		}
	}
	return out
}

// NewClient attaches a new client to the system.
func (s *System) NewClient(opts ...rpc.ClientOption) (*rpc.Client, error) {
	s.mu.Lock()
	s.clients++
	id := fmt.Sprintf("client-%d", s.clients)
	s.mu.Unlock()
	ep, err := s.Net.Endpoint(transport.Address(id))
	if err != nil {
		return nil, err
	}
	return rpc.NewClient(id, ep, s.Addresses(), opts...), nil
}

// CrashMaster crashes the current master's host and returns its index.
func (s *System) CrashMaster() int {
	m := s.Master()
	if m == nil {
		return -1
	}
	return s.crashReplica(m)
}

// CrashSlave crashes the current slave's host and returns its index.
func (s *System) CrashSlave() int {
	sl := s.Slave()
	if sl == nil {
		return -1
	}
	return s.crashReplica(sl)
}

func (s *System) crashReplica(r *Replica) int {
	s.mu.Lock()
	idx := -1
	for i, rep := range s.replicas {
		if rep == r {
			idx = i
		}
	}
	s.mu.Unlock()
	r.Host().Crash()
	return idx
}

// RestartReplica restarts a crashed host and redeploys its replica as a
// slave of the surviving master, in the FTM committed to stable storage,
// then pulls a checkpoint when the configuration supports it — the
// recovery-of-adaptation path (§5.3). idx is 0 or 1; anything else
// (notably the -1 CrashMaster and CrashSlave return when there was no
// such replica) is an error.
func (s *System) RestartReplica(ctx context.Context, idx int) (*Replica, error) {
	if idx != 0 && idx != 1 {
		return nil, fmt.Errorf("ftm: no replica %d in a pair", idx)
	}
	s.mu.Lock()
	h := s.hosts[idx]
	system := s.cfg.System
	s.mu.Unlock()

	// The surviving replica may have committed a newer configuration; a
	// real deployment reads the shared stable store. Capture the
	// survivor's FTM before the restart makes the stale replica object
	// on this host look alive again.
	var survivorFTM core.ID
	if m := s.Master(); m != nil && m.Host() != h {
		survivorFTM = m.FTM()
	}

	if err := h.Restart(); err != nil {
		return nil, err
	}
	rec, ok, err := h.Store().Current(system)
	if err != nil {
		return nil, err
	}
	ftmID := s.cfg.FTM
	if ok {
		ftmID = core.ID(rec.FTM)
	}
	if survivorFTM != "" {
		ftmID = survivorFTM
	}
	r, err := s.deployReplica(ctx, idx, ftmID, core.RoleSlave)
	if err != nil {
		return nil, err
	}
	// State transfer from the survivor. The pull is served by the peer
	// protocol's fixed state and reply-log features, so it works under
	// every mechanism — NeedsStateAccess describes the steady-state
	// replication style, not the recovery path. Rejoining blind under a
	// no-state-access FTM (determinism only replays what a process has
	// seen, and a restarted one has seen nothing) loses both the
	// application state and the reply log, so a later failover would
	// re-execute acknowledged writes.
	if peer := s.Replicas()[1-idx]; peer != nil && !peer.Host().Crashed() {
		if err := r.SyncFromPeer(ctx); err != nil {
			return nil, fmt.Errorf("ftm: rejoin sync: %w", err)
		}
	}
	s.mu.Lock()
	s.replicas[idx] = r
	peer := s.replicas[1-idx]
	s.mu.Unlock()

	// The restart may have produced a masterless pair: if the master
	// crashed and was restarted before the slave's failure detector
	// accrued enough silence to suspect it (a fast supervisor restart),
	// no suspicion edge ever fires and both replicas sit as slaves
	// forever — every recovery path downstream of the detector is
	// edge-triggered. Mint exactly one master here: the surviving
	// replica, whose state is authoritative, or this one when it is
	// alone. Promote is idempotent, so racing an in-flight
	// detector-driven promotion is safe, and a double promotion resolves
	// through the split-brain check Promote runs on completion.
	if s.Master() == nil {
		candidate := r
		if peer != nil && !peer.Host().Crashed() {
			candidate = peer
		}
		if err := candidate.Promote(ctx); err != nil {
			return nil, fmt.Errorf("ftm: masterless restart: promoting %s: %w",
				candidate.Host().Name(), err)
		}
	}
	return r, nil
}

// Shutdown crashes every host, silencing all background activity.
func (s *System) Shutdown() {
	for _, h := range s.Hosts() {
		if h != nil && !h.Crashed() {
			h.Crash()
		}
	}
}
