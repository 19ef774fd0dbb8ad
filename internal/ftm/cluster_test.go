package ftm

import (
	"context"
	"strings"
	"testing"
	"time"

	"resilientft/internal/core"
	"resilientft/internal/rpc"
)

func newTestCluster(t *testing.T, ftmID core.ID, n int) *System {
	t.Helper()
	c, err := NewSystem(context.Background(), SystemConfig{
		System:            "calc",
		FTM:               ftmID,
		Replicas:          n,
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectTimeout:    60 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewSystem(%s, %d replicas): %v", ftmID, n, err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

func clusterInvoke(t *testing.T, c *rpc.Client, op string, arg int64) int64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := c.Invoke(ctx, op, EncodeArg(arg))
	if err != nil {
		t.Fatalf("Invoke(%s, %d): %v", op, arg, err)
	}
	v, err := DecodeResult(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestClusterRejectsTooFewReplicas(t *testing.T) {
	if _, err := NewSystem(context.Background(), SystemConfig{FTM: core.PBR, Replicas: 1}); err == nil {
		t.Fatal("1-replica system accepted")
	}
}

func TestClusterRestartReplicaUnsupported(t *testing.T) {
	c := newTestCluster(t, core.PBR, 3)
	c.CrashSlave()
	if _, err := c.RestartReplica(context.Background(), 1); err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("RestartReplica on a 3-replica group: err = %v, want an explicit not-supported error", err)
	}
}

func TestPBRClusterCheckpointsReachAllBackups(t *testing.T) {
	c := newTestCluster(t, core.PBR, 3)
	client, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	clusterInvoke(t, client, "set:x", 42)
	// The primary broadcasts checkpoints: both backups converge.
	for _, backup := range c.Slaves() {
		app := backup.App().(*Calculator)
		waitUntil(t, 2*time.Second, func() bool {
			return app.regs.Get("x") == 42
		}, "backup never received the broadcast checkpoint")
	}
}

func TestClusterSurvivesTwoSequentialMasterCrashes(t *testing.T) {
	c := newTestCluster(t, core.PBR, 3)
	client, err := c.NewClient(rpc.WithCallTimeout(time.Second), rpc.WithMaxRounds(60))
	if err != nil {
		t.Fatal(err)
	}
	clusterInvoke(t, client, "set:x", 100)

	// First crash: rank-1 takes over (its stagger delay is zero).
	first := c.Master()
	c.CrashMaster()
	waitUntil(t, 10*time.Second, func() bool {
		m := c.Master()
		return m != nil && m != first
	}, "no takeover after the first master crash")
	if got := clusterInvoke(t, client, "add:x", 1); got != 101 {
		t.Fatalf("after first failover: add = %d, want 101", got)
	}
	// Exactly one master: no split brain among survivors.
	waitUntil(t, 5*time.Second, func() bool { return len(c.Slaves()) == 1 }, "backup count wrong after first failover")

	// Second crash: the last survivor takes over (master-alone).
	second := c.Master()
	c.CrashMaster()
	waitUntil(t, 10*time.Second, func() bool {
		m := c.Master()
		return m != nil && m != second
	}, "no takeover after the second master crash")
	if got := clusterInvoke(t, client, "add:x", 1); got != 102 {
		t.Fatalf("after second failover: add = %d, want 102", got)
	}
	if got := clusterInvoke(t, client, "get:x", 0); got != 102 {
		t.Fatalf("state after two failovers = %d", got)
	}
}

func TestClusterStaggeredTakeoverIsSingular(t *testing.T) {
	// After the master crash, both backups suspect it; the stagger plus
	// the live-master probe must leave exactly one master.
	c := newTestCluster(t, core.PBR, 3)
	client, err := c.NewClient(rpc.WithCallTimeout(time.Second), rpc.WithMaxRounds(60))
	if err != nil {
		t.Fatal(err)
	}
	clusterInvoke(t, client, "set:x", 7)
	c.CrashMaster()
	waitUntil(t, 10*time.Second, func() bool { return c.Master() != nil }, "no takeover")
	// Give the second backup's staggered check time to run and settle.
	time.Sleep(300 * time.Millisecond)
	masters := 0
	for _, r := range c.Replicas() {
		if r != nil && !r.Host().Crashed() && r.Role() == core.RoleMaster {
			masters++
		}
	}
	if masters != 1 {
		t.Fatalf("masters after takeover = %d, want 1", masters)
	}
	// The remaining backup re-pointed at the new master and keeps
	// receiving checkpoints.
	clusterInvoke(t, client, "set:x", 55)
	backup := c.Slaves()[0].App().(*Calculator)
	waitUntil(t, 2*time.Second, func() bool {
		return backup.regs.Get("x") == 55
	}, "surviving backup no longer synchronized after re-pointing")
}

func TestLFRClusterAllFollowersCompute(t *testing.T) {
	c := newTestCluster(t, core.LFR, 3)
	client, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	clusterInvoke(t, client, "set:x", 9)
	clusterInvoke(t, client, "add:x", 1)
	for _, backup := range c.Slaves() {
		app := backup.App().(*Calculator)
		waitUntil(t, 2*time.Second, func() bool {
			return app.regs.Get("x") == 10
		}, "follower did not compute the forwarded requests")
	}
}

func TestClusterAdaptationAcrossAllReplicas(t *testing.T) {
	// A differential transition applies to every member of the group.
	c := newTestCluster(t, core.PBR, 3)
	client, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	clusterInvoke(t, client, "set:x", 5)
	for _, r := range c.Replicas() {
		from := core.MustLookup(core.PBR)
		to := core.MustLookup(core.LFR)
		script, env, err := TransitionScript(r.Path(), from.Scheme(r.Role()), to.Scheme(r.Role()))
		if err != nil {
			t.Fatal(err)
		}
		rt := r.Host().Runtime()
		if err := rt.Stop(context.Background(), r.Path()); err != nil {
			t.Fatal(err)
		}
		if _, err := fscriptExecute(rt, script, env); err != nil {
			t.Fatalf("transition on %s: %v", r.Host().Name(), err)
		}
		if err := rt.Start(context.Background(), r.Path()); err != nil {
			t.Fatal(err)
		}
		r.SetFTM(core.LFR)
	}
	if got := clusterInvoke(t, client, "add:x", 2); got != 7 {
		t.Fatalf("post-transition add = %d", got)
	}
	for _, backup := range c.Slaves() {
		app := backup.App().(*Calculator)
		waitUntil(t, 2*time.Second, func() bool {
			return app.regs.Get("x") == 7
		}, "follower did not compute after the group transition")
	}
}
