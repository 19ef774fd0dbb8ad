package ftm

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"resilientft/internal/core"
	"resilientft/internal/host"
	"resilientft/internal/rpc"
	"resilientft/internal/telemetry"
	"resilientft/internal/transport"
)

func newShardedTestSystem(t *testing.T, ftmID core.ID, shards int) *ShardedSystem {
	t.Helper()
	s, err := NewShardedSystem(context.Background(), ShardedConfig{
		System:            "calc",
		FTM:               ftmID,
		Shards:            shards,
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectTimeout:    60 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewShardedSystem(%s, %d): %v", ftmID, shards, err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

// TestShardedRoutingServesAllGroups drives keyed requests through the
// router and checks they land on (and only on) the ring-assigned
// groups: each group's state holds exactly the writes of its keys, and
// keys verifiably spread over more than one group.
func TestShardedRoutingServesAllGroups(t *testing.T) {
	const nKeys = 32
	s := newShardedTestSystem(t, core.PBR, 4)
	r, err := s.NewRouter()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	hit := map[string]int{}
	for i := 0; i < nKeys; i++ {
		key := fmt.Sprintf("r%d", i)
		hit[r.Pick(key)]++
		resp, err := r.Invoke(ctx, key, "set:"+key, EncodeArg(int64(i+100)))
		if err != nil {
			t.Fatalf("set %s: %v", key, err)
		}
		if v, _ := DecodeResult(resp.Payload); v != int64(i+100) {
			t.Fatalf("set %s returned %d", key, v)
		}
	}
	if len(hit) < 2 {
		t.Fatalf("all %d keys landed on one group: %v", nKeys, hit)
	}

	// Read every key back through its shard and cross-check the other
	// shards do NOT hold it (a get of an unknown register is 0).
	for i := 0; i < nKeys; i++ {
		key := fmt.Sprintf("r%d", i)
		owner := r.Pick(key)
		resp, err := r.Invoke(ctx, key, "get:"+key, EncodeArg(0))
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if v, _ := DecodeResult(resp.Payload); v != int64(i+100) {
			t.Fatalf("key %s on shard %s reads %d, want %d", key, owner, v, i+100)
		}
		for _, other := range r.Shards() {
			if other == owner {
				continue
			}
			resp, err := r.Shard(other).Invoke(ctx, "get:"+key, EncodeArg(0))
			if err != nil {
				t.Fatalf("cross-get %s on shard %s: %v", key, other, err)
			}
			if v, _ := DecodeResult(resp.Payload); v != 0 {
				t.Fatalf("key %s leaked onto shard %s (reads %d)", key, other, v)
			}
		}
	}

	// The shard-labeled request series moved for every group that served.
	for gid, n := range hit {
		if n == 0 {
			continue
		}
		c, ok := telemetry.Default().FindCounter("ftm_shard_requests_total", "shard", gid)
		if !ok || c.Value() == 0 {
			t.Errorf("shard %s served %d requests but ftm_shard_requests_total{shard=%q} is missing or zero", gid, n, gid)
		}
	}
}

// TestShardedSingleGroupParity pins the N=1 degenerate shape: one
// group behind a router behaves exactly like an unsharded system —
// same results, every key on the one shard. (The cost side of "sharding
// costs nothing when unused" is the benchmark suite's parity row.)
func TestShardedSingleGroupParity(t *testing.T) {
	s := newShardedTestSystem(t, core.PBR, 1)
	r, err := s.NewRouter()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("r%d", i)
		if got := r.Pick(key); got != "0" {
			t.Fatalf("single-group router picked %q", got)
		}
		if _, err := r.Invoke(ctx, key, "add:x", EncodeArg(1)); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := r.Invoke(ctx, "x", "get:x", EncodeArg(0))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := DecodeResult(resp.Payload); v != 16 {
		t.Fatalf("x = %d, want 16", v)
	}
}

// TestShardFailoverIsolation is the shard-isolation stress test: kill
// shard k's master mid-batch and check that (a) every other shard keeps
// serving at full rate — zero errors, visible progress — through the
// whole failover window, and (b) the failed-over shard's trace IDs stay
// continuous: a post-promotion redelivery of a pre-crash request joins
// the original trace and replays from the log (the PR4 trace-continuity
// property, now per shard).
func TestShardFailoverIsolation(t *testing.T) {
	const (
		shards   = 3
		failed   = 1 // shard k under test
		preOps   = 6
		burstOps = 4
	)
	s := newShardedTestSystem(t, core.PBR, shards)
	// The workers run untraced: always-on tracing across every shard
	// would flood the bounded span ring and evict the very spans the
	// continuity check reads back.
	r, err := s.NewRouter()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := s.NewRouter(rpc.WithAlwaysTrace())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Independent workers hammer the surviving shards for the duration.
	var stop atomic.Bool
	var workerErrs atomic.Int64
	counts := make([]atomic.Int64, shards)
	done := make(chan struct{})
	workers := 0
	for k := 0; k < shards; k++ {
		if k == failed {
			continue
		}
		workers++
		go func(k int) {
			defer func() { done <- struct{}{} }()
			c := r.Shard(fmt.Sprintf("%d", k))
			for !stop.Load() {
				if _, err := c.Invoke(ctx, "add:x", EncodeArg(1)); err != nil {
					workerErrs.Add(1)
					return
				}
				counts[k].Add(1)
			}
		}(k)
	}

	// Pre-crash traffic on the doomed shard, under explicit sequence
	// numbers so the trace IDs are known.
	fc := rt.Shard(fmt.Sprintf("%d", failed))
	for seq := uint64(1); seq <= preOps; seq++ {
		if _, err := fc.Redeliver(ctx, seq, "add:y", EncodeArg(1)); err != nil {
			t.Fatalf("shard %d seq %d: %v", failed, seq, err)
		}
	}
	traceID := telemetry.TraceIDFor(fc.ID(), 1)

	// Crash the master while a burst keeps waves in flight.
	burstDone := make(chan struct{})
	go func() {
		defer close(burstDone)
		for seq := uint64(preOps + 1); seq <= preOps+burstOps; seq++ {
			_, _ = fc.Redeliver(ctx, seq, "add:y", EncodeArg(1))
		}
	}()
	time.Sleep(2 * time.Millisecond)
	pre := make([]int64, shards)
	for k := range pre {
		pre[k] = counts[k].Load()
	}
	if s.Group(failed).CrashMaster() < 0 {
		t.Fatal("no master to crash on the target shard")
	}
	<-burstDone
	waitUntil(t, 5*time.Second, func() bool { return s.Group(failed).Master() != nil },
		"no replica promoted on the crashed shard")

	// (a) The surviving shards made progress during the failover window
	// and saw not a single error.
	for k := 0; k < shards; k++ {
		if k == failed {
			continue
		}
		if delta := counts[k].Load() - pre[k]; delta <= 0 {
			t.Errorf("shard %d stalled during shard %d's failover (%d ops in the window)", k, failed, delta)
		}
	}
	stop.Store(true)
	for i := 0; i < workers; i++ {
		<-done
	}
	if n := workerErrs.Load(); n != 0 {
		t.Fatalf("%d worker errors on shards that were not failing over", n)
	}

	// (b) Trace continuity on the failed-over shard.
	dup, err := fc.Redeliver(ctx, 1, "add:y", EncodeArg(1))
	if err != nil {
		t.Fatalf("post-failover redelivery on shard %d: %v", failed, err)
	}
	if !dup.Replayed {
		t.Fatal("post-failover redelivery was not replayed from the log")
	}
	names := map[string]int{}
	for _, sp := range telemetry.DefaultSpans().ForTrace(traceID) {
		names[sp.Name]++
	}
	for _, want := range []string{"rpc.client", "ftm.execute", "ftm.replay"} {
		if names[want] == 0 {
			t.Fatalf("trace %016x missing %q spans after failover: %v", traceID, want, names)
		}
	}
	if names["rpc.client"] < 2 {
		t.Fatalf("redelivery did not join the original trace: %v", names)
	}

	// The shard's state survived: y accumulated exactly the pre-crash
	// writes plus whatever of the burst committed, each exactly once.
	// (An explicit fresh sequence number: Invoke would reuse seq 1 and
	// replay the logged add instead of reading.)
	resp, err := fc.Redeliver(ctx, preOps+burstOps+1, "get:y", EncodeArg(0))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := DecodeResult(resp.Payload)
	if v < preOps || v > preOps+burstOps {
		t.Fatalf("y = %d after failover, want within [%d, %d]", v, preOps, preOps+burstOps)
	}
}

// TestGroupsShareEndpointPair deploys two replica groups onto the SAME
// host pair: both masters on host a, both slaves on host b, every
// replica sharing its host's one endpoint. This is the one-process
// shape of sharding (resilientd -shards): the group mux must route each
// group's requests and inter-replica traffic to the right composite,
// and both groups must stay fed by their host's one detector for the
// peer — a starved slave would falsely promote into a split brain.
func TestGroupsShareEndpointPair(t *testing.T) {
	net := transport.NewMemNetwork(transport.WithSeed(1))
	reg := NewRegistry()
	ha, err := host.New("shared-a", net, reg)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := host.New("shared-b", net, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !ha.Crashed() {
			ha.Crash()
		}
		if !hb.Crashed() {
			hb.Crash()
		}
	})

	ctx := context.Background()
	const interval, suspect = 10 * time.Millisecond, 60 * time.Millisecond
	groups := []string{"g0", "g1"}
	slaves := make([]*Replica, len(groups))
	for i, gid := range groups {
		for _, side := range []struct {
			h    *host.Host
			peer *host.Host
			role core.Role
		}{{ha, hb, core.RoleMaster}, {hb, ha, core.RoleSlave}} {
			rep, err := NewReplica(ctx, side.h, ReplicaConfig{
				System:            "calc-" + gid,
				Group:             gid,
				FTM:               core.PBR,
				Role:              side.role,
				Peer:              side.peer.Addr(),
				App:               NewCalculator(),
				HeartbeatInterval: interval,
				SuspectTimeout:    suspect,
			})
			if err != nil {
				t.Fatalf("group %s on %s: %v", gid, side.h.Name(), err)
			}
			if side.role == core.RoleSlave {
				slaves[i] = rep
			}
		}
	}

	// Each group serves its own clients and keeps its own state.
	for i, gid := range groups {
		ep, err := net.Endpoint(transport.Address("client-" + gid))
		if err != nil {
			t.Fatal(err)
		}
		c := rpc.NewClient("c-"+gid, ep, []transport.Address{ha.Addr(), hb.Addr()}, rpc.WithGroup(gid))
		resp, err := c.Invoke(ctx, "set:x", EncodeArg(int64(10+i)))
		if err != nil {
			t.Fatalf("group %s: %v", gid, err)
		}
		if v, _ := DecodeResult(resp.Payload); v != int64(10+i) {
			t.Fatalf("group %s: x = %d", gid, v)
		}
	}

	// No slave may suspect its live master and promote. Give the slaves'
	// host several suspicion windows' worth of the masters' beats to get
	// it wrong.
	beats := telemetry.Default().Histogram("detector_interarrival", "peer", ha.Name())
	seen := beats.Count()
	waitUntil(t, 5*time.Second, func() bool { return beats.Count() >= seen+uint64(5*suspect/interval) },
		"the slaves' host stopped receiving the masters' beats")
	for i, gid := range groups {
		if role := slaves[i].Role(); role != core.RoleSlave {
			t.Fatalf("group %s slave promoted to %s with a live master — its watchdog starved", gid, role)
		}
	}

	// A request stamped for a group this endpoint does not host is
	// refused, not silently served by the wrong composite.
	ep, err := net.Endpoint(transport.Address("client-nogroup"))
	if err != nil {
		t.Fatal(err)
	}
	c := rpc.NewClient("c-nogroup", ep, []transport.Address{ha.Addr()},
		rpc.WithGroup("g9"), rpc.WithMaxRounds(1), rpc.WithCallTimeout(200*time.Millisecond))
	if _, err := c.Invoke(ctx, "get:x", EncodeArg(0)); err == nil {
		t.Fatal("request for an unhosted group was served")
	}
}
