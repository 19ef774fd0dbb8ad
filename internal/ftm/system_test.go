package ftm

import (
	"context"
	"strings"
	"testing"
	"time"

	"resilientft/internal/core"
	"resilientft/internal/host"
	"resilientft/internal/rpc"
	"resilientft/internal/stablestore"
	"resilientft/internal/transport"
)

// fastConfig returns a system config with aggressive failover timing for
// tests.
func fastConfig(ftmID core.ID) SystemConfig {
	return SystemConfig{
		System:            "calc",
		FTM:               ftmID,
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectTimeout:    60 * time.Millisecond,
	}
}

func newTestSystem(t *testing.T, ftmID core.ID) *System {
	t.Helper()
	s, err := NewSystem(context.Background(), fastConfig(ftmID))
	if err != nil {
		t.Fatalf("NewSystem(%s): %v", ftmID, err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

func invoke(t *testing.T, c *rpc.Client, op string, arg int64) int64 {
	t.Helper()
	resp, err := c.Invoke(context.Background(), op, EncodeArg(arg))
	if err != nil {
		t.Fatalf("Invoke(%s, %d): %v", op, arg, err)
	}
	v, err := DecodeResult(resp.Payload)
	if err != nil {
		t.Fatalf("decode result: %v", err)
	}
	return v
}

func waitUntil(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

func TestPBRServesRequests(t *testing.T) {
	s := newTestSystem(t, core.PBR)
	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	if got := invoke(t, c, "set:x", 10); got != 10 {
		t.Fatalf("set = %d", got)
	}
	if got := invoke(t, c, "add:x", 5); got != 15 {
		t.Fatalf("add = %d", got)
	}
	if got := invoke(t, c, "get:x", 0); got != 15 {
		t.Fatalf("get = %d", got)
	}
}

func TestPBRCheckpointsReachBackup(t *testing.T) {
	s := newTestSystem(t, core.PBR)
	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, c, "set:x", 42)
	// The backup's application state must mirror the primary's after the
	// checkpoint lands.
	slaveApp := s.Slave().App().(*Calculator)
	waitUntil(t, 2*time.Second, func() bool {
		return slaveApp.regs.Get("x") == 42
	}, "backup never received the checkpointed state")
}

func TestPBRSlaveRejectsClients(t *testing.T) {
	s := newTestSystem(t, core.PBR)
	// A client configured to talk to the slave first still succeeds: the
	// slave answers not-master and the client fails over.
	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	c.SetReplicas([]transport.Address{s.Slave().Host().Addr(), s.Master().Host().Addr()})
	if got := invoke(t, c, "set:x", 1); got != 1 {
		t.Fatalf("set = %d", got)
	}
	// The slave executed nothing: its state only changes via checkpoints,
	// which do not embed partial executions of their own.
	if s.Slave().Role() != core.RoleSlave {
		t.Fatal("slave unexpectedly promoted")
	}
}

func TestLFRBothReplicasCompute(t *testing.T) {
	s := newTestSystem(t, core.LFR)
	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, c, "set:x", 7)
	invoke(t, c, "add:x", 3)
	leaderApp := s.Master().App().(*Calculator)
	followerApp := s.Slave().App().(*Calculator)
	if got := leaderApp.regs.Get("x"); got != 10 {
		t.Fatalf("leader state = %d", got)
	}
	// The follower computed the same requests itself (active
	// replication), no checkpoint involved.
	waitUntil(t, 2*time.Second, func() bool {
		return followerApp.regs.Get("x") == 10
	}, "follower never computed the forwarded requests")
}

// backups returns every live replica of the group other than the master,
// failing the test if there is none.
func backups(t *testing.T, s *System) []*Replica {
	t.Helper()
	master := s.Master()
	var out []*Replica
	for _, r := range s.Replicas() {
		if r != master && r.Role() == core.RoleSlave {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		t.Fatal("group has no backup")
	}
	return out
}

func TestPBRClusterCheckpointsReachAllBackups(t *testing.T) {
	s := newTestSystem(t, core.PBR)
	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, c, "set:x", 42)
	invoke(t, c, "add:x", 8)
	// Every backup of the group converges on the primary's checkpoints.
	for _, backup := range backups(t, s) {
		app := backup.App().(*Calculator)
		waitUntil(t, 2*time.Second, func() bool {
			return app.regs.Get("x") == 50
		}, "backup never received the checkpoint")
	}
}

func TestLFRClusterAllFollowersCompute(t *testing.T) {
	s := newTestSystem(t, core.LFR)
	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, c, "set:x", 9)
	invoke(t, c, "add:x", 1)
	for _, follower := range backups(t, s) {
		app := follower.App().(*Calculator)
		waitUntil(t, 2*time.Second, func() bool {
			return app.regs.Get("x") == 10
		}, "follower did not compute the forwarded requests")
	}
}

func TestClusterAdaptationAcrossAllReplicas(t *testing.T) {
	// A differential transition, run replica by replica straight on each
	// runtime, applies to every member of the group.
	s := newTestSystem(t, core.PBR)
	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, c, "set:x", 5)
	for _, r := range s.Replicas() {
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
	if got := invoke(t, c, "add:x", 2); got != 7 {
		t.Fatalf("post-transition add = %d", got)
	}
	for _, follower := range backups(t, s) {
		app := follower.App().(*Calculator)
		waitUntil(t, 2*time.Second, func() bool {
			return app.regs.Get("x") == 7
		}, "follower did not compute after the group transition")
	}
}

func TestAtMostOnceAcrossReplicas(t *testing.T) {
	s := newTestSystem(t, core.LFR)
	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, c, "add:x", 5) // x = 5 on both replicas
	// Redeliver the same request identity straight to the follower after
	// promotion: it must replay, not re-execute.
	s.CrashMaster()
	waitUntil(t, 5*time.Second, func() bool { return s.Master() != nil }, "follower never promoted")
	resp, err := c.Invoke(context.Background(), "get:x", EncodeArg(0))
	if err != nil {
		t.Fatalf("post-failover Invoke: %v", err)
	}
	v, _ := DecodeResult(resp.Payload)
	if v != 5 {
		t.Fatalf("x after failover = %d, want 5 (re-execution would have doubled an add)", v)
	}
}

func TestPBRFailoverPreservesState(t *testing.T) {
	s := newTestSystem(t, core.PBR)
	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, c, "set:x", 100)
	invoke(t, c, "add:x", 23)

	oldMasterHost := s.Master().Host().Name()
	s.CrashMaster()
	waitUntil(t, 5*time.Second, func() bool {
		m := s.Master()
		return m != nil && m.Host().Name() != oldMasterHost
	}, "backup never promoted after primary crash")

	// The promoted backup serves from the checkpointed state.
	if got := invoke(t, c, "get:x", 0); got != 123 {
		t.Fatalf("state after failover = %d, want 123", got)
	}
	// And continues to make progress.
	if got := invoke(t, c, "add:x", 1); got != 124 {
		t.Fatalf("post-failover add = %d", got)
	}
}

func TestLFRFailoverPreservesState(t *testing.T) {
	s := newTestSystem(t, core.LFR)
	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, c, "set:x", 50)
	s.CrashMaster()
	waitUntil(t, 5*time.Second, func() bool { return s.Master() != nil }, "follower never promoted")
	if got := invoke(t, c, "get:x", 0); got != 50 {
		t.Fatalf("state after failover = %d, want 50", got)
	}
}

func TestPromotionSwapsBricks(t *testing.T) {
	s := newTestSystem(t, core.PBR)
	slave := s.Slave()
	scheme, err := slave.CurrentScheme()
	if err != nil {
		t.Fatal(err)
	}
	if scheme != core.MustLookup(core.PBR).SlaveScheme {
		t.Fatalf("slave scheme = %+v", scheme)
	}
	s.CrashMaster()
	waitUntil(t, 5*time.Second, func() bool { return s.Master() == slave }, "slave never promoted")
	scheme, err = slave.CurrentScheme()
	if err != nil {
		t.Fatal(err)
	}
	if scheme != core.MustLookup(core.PBR).MasterScheme {
		t.Fatalf("promoted scheme = %+v, want master scheme", scheme)
	}
	// The promotion is recorded in the replica's event log.
	joined := strings.Join(slave.Events(), "; ")
	if !strings.Contains(joined, "promoted to master") {
		t.Fatalf("events = %s", joined)
	}
}

func TestCrashedSlaveMasterContinues(t *testing.T) {
	s := newTestSystem(t, core.PBR)
	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, c, "set:x", 9)
	s.CrashSlave()
	// Master keeps serving in degraded (master-alone) mode.
	waitUntil(t, 5*time.Second, func() bool {
		resp, err := c.Invoke(context.Background(), "add:x", EncodeArg(1))
		if err != nil {
			return false
		}
		v, _ := DecodeResult(resp.Payload)
		return v >= 10
	}, "master stopped serving after slave crash")
}

func TestRestartedSlaveResynchronizes(t *testing.T) {
	s := newTestSystem(t, core.PBR)
	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, c, "set:x", 77)
	idx := s.CrashSlave()
	if idx < 0 {
		t.Fatal("no slave to crash")
	}
	invoke(t, c, "add:x", 3) // progress while the slave is down

	r, err := s.RestartReplica(context.Background(), idx)
	if err != nil {
		t.Fatalf("RestartReplica: %v", err)
	}
	app := r.App().(*Calculator)
	waitUntil(t, 2*time.Second, func() bool {
		return app.regs.Get("x") == 80
	}, "rejoined slave never caught up")
	// And failover to the rejoined slave works.
	s.CrashMaster()
	waitUntil(t, 5*time.Second, func() bool { return s.Master() == r }, "rejoined slave never promoted")
	if got := invoke(t, c, "get:x", 0); got != 80 {
		t.Fatalf("state after second failover = %d, want 80", got)
	}
}

func TestStandaloneTRDeployment(t *testing.T) {
	// TR runs on a single host: deploy directly, no peer, no detector.
	net := transport.NewMemNetwork(transport.WithSeed(2))
	h, err := host.New("solo", net, NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Crash()
	r, err := NewReplica(context.Background(), h, ReplicaConfig{
		System: "solo",
		FTM:    core.TR,
		Role:   core.RoleMaster,
		App:    NewCalculator(),
	})
	if err != nil {
		t.Fatalf("NewReplica(TR): %v", err)
	}
	if h.Runtime().Exists(r.Path() + "/" + NamePeer) {
		t.Fatal("single-host TR deployed a peer bridge")
	}
	if h.Runtime().Exists(r.Path() + "/" + NameDetector) {
		t.Fatal("single-host TR deployed a failure detector")
	}
	cep, err := net.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	c := rpc.NewClient("c1", cep, []transport.Address{h.Addr()})
	if got := invoke(t, c, "set:x", 5); got != 5 {
		t.Fatalf("set through TR = %d", got)
	}
	if got := invoke(t, c, "add:x", 2); got != 7 {
		t.Fatalf("add through TR = %d", got)
	}
}

func TestFigure6Architecture(t *testing.T) {
	s := newTestSystem(t, core.PBR)
	master := s.Master()
	d, err := master.Host().Runtime().Describe(master.Path())
	if err != nil {
		t.Fatal(err)
	}
	text := d.String()
	// The Figure 6 component set.
	for _, want := range []string{
		"calc/protocol", "calc/replyLog", "calc/server", "calc/peer",
		"calc/detector", "calc/syncBefore", "calc/proceed", "calc/syncAfter",
		"calc/protocol.before -> calc/syncBefore.sync",
		"calc/protocol.proceed -> calc/proceed.exec",
		"calc/protocol.after -> calc/syncAfter.sync",
		"request => protocol.request",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("architecture missing %q:\n%s", want, text)
		}
	}
}

func TestDeployedSchemesMatchCatalogue(t *testing.T) {
	for _, id := range core.DeployableSet() {
		s := newTestSystem(t, id)
		desc := core.MustLookup(id)
		mScheme, err := s.Master().CurrentScheme()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if mScheme != desc.MasterScheme {
			t.Errorf("%s master scheme = %+v, want %+v", id, mScheme, desc.MasterScheme)
		}
		sScheme, err := s.Slave().CurrentScheme()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if sScheme != desc.SlaveScheme {
			t.Errorf("%s slave scheme = %+v, want %+v", id, sScheme, desc.SlaveScheme)
		}
		s.Shutdown()
	}
}

// A NewSystem that fails must report an error (never panic) and crash
// the hosts it created, so the same network accepts a correct NewSystem
// under the same host names afterwards.
func TestNewSystemFailureLeavesNetworkClean(t *testing.T) {
	cases := []struct {
		name string
		edit func(*SystemConfig)
	}{
		{"unknown FTM", func(c *SystemConfig) { c.FTM = "nope" }},
		{"bad system name", func(c *SystemConfig) { c.System = "a.b" }},
		{"duplicate host name", func(c *SystemConfig) { c.HostNames = [2]string{"alpha", "alpha"} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewMemNetwork(transport.WithSeed(1))
			bad := fastConfig(core.PBR)
			bad.Net = net
			tc.edit(&bad)
			if _, err := NewSystem(context.Background(), bad); err == nil {
				t.Fatal("NewSystem accepted the bad config")
			}
			good := fastConfig(core.PBR)
			good.Net = net
			s, err := NewSystem(context.Background(), good)
			if err != nil {
				t.Fatalf("NewSystem on the same network after a failed one: %v", err)
			}
			s.Shutdown()
		})
	}
}

func TestRestartReplicaUnknownStoredFTM(t *testing.T) {
	s := newTestSystem(t, core.PBR)
	s.Shutdown()
	h := s.Hosts()[0]
	if err := h.Store().Commit(stablestore.ConfigRecord{System: "calc", FTM: "nope", Version: 99}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RestartReplica(context.Background(), 0); err == nil {
		t.Fatal("RestartReplica deployed an unknown FTM")
	}
}

// CrashMaster and CrashSlave return -1 when there is no such replica, so
// RestartReplica(ctx, s.CrashMaster()) on a masterless pair must report
// an error instead of indexing out of range. The hosts are crashed
// directly and the test stops at the first panic: a panic inside
// RestartReplica would leave the system's lock held, and any later call
// would wait on it forever.
func TestRestartReplicaRejectsBadIndex(t *testing.T) {
	s, err := NewSystem(context.Background(), fastConfig(core.PBR))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range s.Hosts() {
		t.Cleanup(h.Crash)
	}
	for _, idx := range []int{-1, 2} {
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("RestartReplica(%d) panicked: %v", idx, rec)
				}
			}()
			if _, err := s.RestartReplica(context.Background(), idx); err == nil {
				t.Errorf("RestartReplica(%d) succeeded", idx)
			}
		}()
	}
}
