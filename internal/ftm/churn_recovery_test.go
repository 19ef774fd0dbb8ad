package ftm

import (
	"context"
	"strings"
	"testing"
	"time"

	"resilientft/internal/core"
	"resilientft/internal/rpc"
	"resilientft/internal/transport"
)

// TestFastRestartOfCrashedMasterMintsOneMaster pins the masterless-pair
// recovery found by the chaos campaign: when a crashed master is
// restarted before the slave's failure detector accrues enough silence
// to suspect it, no suspicion edge ever fires — the slave never
// promotes, the restarted host rejoins as a slave, and the pair used to
// sit masterless forever (every recovery path downstream of the
// detector is edge-triggered). RestartReplica must detect the
// masterless pair and promote the survivor, whose state is
// authoritative.
func TestFastRestartOfCrashedMasterMintsOneMaster(t *testing.T) {
	s := newTestSystem(t, core.PBR)
	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, c, "set:x", 41)
	invoke(t, c, "add:x", 1) // shipped to the slave before the crash

	idx := s.CrashMaster()
	if idx < 0 {
		t.Fatal("no master to crash")
	}
	// Restart immediately: well inside the 60ms suspect timeout, so the
	// slave's detector never saw an edge.
	r, err := s.RestartReplica(context.Background(), idx)
	if err != nil {
		t.Fatalf("RestartReplica: %v", err)
	}
	waitUntil(t, 5*time.Second, func() bool { return s.Master() != nil },
		"masterless pair never recovered a master")
	// The survivor, not the amnesiac restarter, must hold mastership.
	if m := s.Master(); m == r {
		t.Fatalf("restarted replica %s took mastership from the survivor", m.Host().Name())
	}
	// The acknowledged writes survived the churn.
	waitUntil(t, 5*time.Second, func() bool {
		resp, err := c.Invoke(context.Background(), "get:x", EncodeArg(0))
		if err != nil {
			return false
		}
		v, _ := DecodeResult(resp.Payload)
		return v == 42
	}, "state lost across fast master restart")
	// And the reply log too: redelivering the pre-crash write replays.
	resp, err := c.Redeliver(context.Background(), 2, "add:x", EncodeArg(1))
	if err != nil {
		t.Fatalf("redeliver: %v", err)
	}
	if !resp.Replayed {
		t.Fatal("pre-crash acked write re-executed instead of replaying")
	}
}

// TestSoleSurvivorRestartBecomesMaster covers the degenerate corner of
// the same recovery: both hosts down, one restarted — it has no
// survivor to defer to and must take mastership itself.
func TestSoleSurvivorRestartBecomesMaster(t *testing.T) {
	s := newTestSystem(t, core.PBR)
	s.CrashSlave()
	idx := s.CrashMaster()
	r, err := s.RestartReplica(context.Background(), idx)
	if err != nil {
		t.Fatalf("RestartReplica: %v", err)
	}
	waitUntil(t, 5*time.Second, func() bool { return s.Master() == r },
		"sole survivor never took mastership")
}

// TestRejoinUnderLFRTransfersStateAndReplyLog pins the rejoin-sync fix:
// the checkpoint pull rides the protocol's fixed state and reply-log
// features, so it works under every mechanism — a slave restarted while
// the system runs a no-state-access FTM must still receive the
// application state and the reply log. Rejoining blind (the old
// NeedsStateAccess gate) lost both, and a later failover re-executed
// every previously acknowledged write.
func TestRejoinUnderLFRTransfersStateAndReplyLog(t *testing.T) {
	s := newTestSystem(t, core.LFR)
	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		invoke(t, c, "add:x", 1) // seqs 1..4, acked under LFR
	}

	idx := s.CrashSlave()
	if idx < 0 {
		t.Fatal("no slave to crash")
	}
	invoke(t, c, "add:x", 1) // seq 5: progress while the slave is down
	if _, err := s.RestartReplica(context.Background(), idx); err != nil {
		t.Fatalf("RestartReplica: %v", err)
	}

	// Fail over to the rejoined slave; its synced reply log must replay
	// every acked write with the value the client originally saw.
	s.CrashMaster()
	waitUntil(t, 5*time.Second, func() bool { return s.Master() != nil },
		"no promotion after master crash")
	for seq := uint64(1); seq <= 5; seq++ {
		resp, err := c.Redeliver(context.Background(), seq, "add:x", EncodeArg(1))
		if err != nil {
			t.Fatalf("redeliver seq %d: %v", seq, err)
		}
		if !resp.Replayed {
			t.Fatalf("seq %d re-executed after rejoin+failover: reply log was not transferred", seq)
		}
		v, err := DecodeResult(resp.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if v != int64(seq) {
			t.Fatalf("seq %d replayed value %d, want %d", seq, v, seq)
		}
	}
	if got := invoke(t, c, "get:x", 0); got != 5 {
		t.Fatalf("state after rejoin+failover = %d, want 5", got)
	}
}

// TestPairSurvivesTwoSequentialMasterCrashes walks the pair through two
// master crashes with a rejoin in between: the slave takes over, the
// crashed master restarts as its slave, then the new master crashes and
// the rejoined replica takes over. Every acknowledged write must survive
// both failovers, in the state and in the reply log.
func TestPairSurvivesTwoSequentialMasterCrashes(t *testing.T) {
	s := newTestSystem(t, core.PBR)
	c, err := s.NewClient(rpc.WithCallTimeout(time.Second), rpc.WithMaxRounds(60))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	invoke(t, c, "set:x", 100) // seq 1

	first := s.Master()
	idx := s.CrashMaster()
	if idx < 0 {
		t.Fatal("no master to crash")
	}
	waitUntil(t, 5*time.Second, func() bool {
		m := s.Master()
		return m != nil && m != first
	}, "no takeover after the first master crash")
	if got := invoke(t, c, "add:x", 1); got != 101 { // seq 2
		t.Fatalf("after first failover: add = %d, want 101", got)
	}

	rejoined, err := s.RestartReplica(ctx, idx)
	if err != nil {
		t.Fatalf("RestartReplica: %v", err)
	}
	if got := invoke(t, c, "add:x", 1); got != 102 { // seq 3
		t.Fatalf("after rejoin: add = %d, want 102", got)
	}

	s.CrashMaster()
	waitUntil(t, 5*time.Second, func() bool { return s.Master() == rejoined },
		"rejoined replica never took over after the second master crash")
	for _, w := range []struct {
		seq  uint64
		op   string
		arg  int64
		want int64
	}{{1, "set:x", 100, 100}, {2, "add:x", 1, 101}, {3, "add:x", 1, 102}} {
		resp, err := c.Redeliver(ctx, w.seq, w.op, EncodeArg(w.arg))
		if err != nil {
			t.Fatalf("redeliver seq %d: %v", w.seq, err)
		}
		v, err := DecodeResult(resp.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Replayed || v != w.want {
			t.Fatalf("seq %d: replayed=%v value %d, want a replay of %d", w.seq, resp.Replayed, v, w.want)
		}
	}
	if got := invoke(t, c, "get:x", 0); got != 102 {
		t.Fatalf("state after two failovers = %d, want 102", got)
	}
}

// TestPromotionResolvesSplitBrainProactively pins the promotion-time
// split-brain check. A promotion can complete into split brain with no
// detector edge left to fire — e.g. a partition that heals while the
// promotion's fscript is still running, so the peer-restored edge finds
// the usurper not-yet-master and resolves nothing. The deterministic
// shape of that hole: promote the slave while the master is alive and
// reachable. No suspicion ever fired, so no edge ever will; only the
// check Promote itself runs on completion can discover the senior
// master and step back down.
func TestPromotionResolvesSplitBrainProactively(t *testing.T) {
	s := newTestSystem(t, core.PBR)
	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, c, "set:x", 5)

	usurper := s.Replicas()[1]
	if err := usurper.Promote(context.Background()); err != nil {
		t.Fatalf("spurious promotion: %v", err)
	}
	waitUntil(t, 5*time.Second, func() bool {
		evs := usurper.Events()
		return containsEvent(evs, "promoted to master") &&
			containsEvent(evs, "demoted to slave")
	}, "usurper never resolved its own spurious mastership")
	if role := usurper.Role(); role != core.RoleSlave {
		t.Fatalf("usurper settled as %s, want slave", role)
	}
	if m := s.Master(); m != s.Replicas()[0] {
		t.Fatal("senior master lost mastership to the usurper")
	}
	// Post-demotion sync ran; state is intact and the pair still serves.
	if got := invoke(t, c, "get:x", 0); got != 5 {
		t.Fatalf("state after split-brain episode = %d, want 5", got)
	}
	invoke(t, c, "add:x", 1)
	if got := invoke(t, c, "get:x", 0); got != 6 {
		t.Fatal("pair stopped serving writes after the episode")
	}
}

// TestClientRedeliveryUnderCallLoss pins at-most-once under a lossy
// client->master link: calls whose request or reply leg vanishes leave
// the client unsure whether the write executed; its retries re-send the
// same sequence number and the reply log must collapse duplicates, so
// the register advances exactly once per sequence number no matter how
// many deliveries the loss forced.
func TestClientRedeliveryUnderCallLoss(t *testing.T) {
	s := newTestSystem(t, core.PBR)
	c, err := s.NewClient(rpc.WithCallTimeout(100*time.Millisecond), rpc.WithMaxRounds(25))
	if err != nil {
		t.Fatal(err)
	}
	master := s.Master().Host().Addr()
	clientAddr := transport.Address(c.ID())
	// Drop calls in both directions between this client and the master:
	// request-leg losses (handler never ran) and reply-leg losses (the
	// executed-but-unacknowledged shape retry deduplication exists for).
	s.Net.SetLinkFault(clientAddr, master, transport.LinkFault{DropCalls: 0.4})
	s.Net.SetLinkFault(master, clientAddr, transport.LinkFault{DropCalls: 0.4})

	const writes = 12
	for i := 1; i <= writes; i++ {
		got := invoke(t, c, "add:x", 1)
		if got != int64(i) {
			t.Fatalf("write %d: register answered %d — a lost call re-executed", i, got)
		}
	}
	s.Net.ClearLinkFaults()
	if got := invoke(t, c, "get:x", 0); got != writes {
		t.Fatalf("final register = %d, want %d", got, writes)
	}
}

func containsEvent(events []string, want string) bool {
	for _, e := range events {
		if strings.Contains(e, want) {
			return true
		}
	}
	return false
}
