package resilience

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"resilientft/internal/adaptation"
	"resilientft/internal/core"
	"resilientft/internal/ftm"
	"resilientft/internal/mgmt"
	"resilientft/internal/monitor"
	"resilientft/internal/rpc"
	"resilientft/internal/slo"
	"resilientft/internal/telemetry"
)

func invoke(t *testing.T, c *rpc.Client, op string, arg int64) int64 {
	t.Helper()
	resp, err := c.Invoke(context.Background(), op, ftm.EncodeArg(arg))
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	v, err := ftm.DecodeResult(resp.Payload)
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	return v
}

func decisionCount(source, shard string, action Action) uint64 {
	return telemetry.Default().Counter("adaptation_decision_total",
		"source", source, "shard", shard, "decision", string(action)).Value()
}

// TestHealthVerdictDegradesPBRToLFR: a PBR pair whose master measures
// an unhealthy bandwidth collector moves to LFR on both replicas,
// driven by the health sweep through monitor -> Service, with the
// decision counted and traced with its source. A second poll while
// still unhealthy does not transition again.
func TestHealthVerdictDegradesPBRToLFR(t *testing.T) {
	svc, sys := newService(t, core.PBR, Conservative{})
	c, err := sys.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, c, "set:x", 7)

	const rule = "master-bandwidth-unhealthy"
	master := sys.Master().Host()
	mon := monitor.New(time.Hour, svc.Sink())
	mon.AddProbe(monitor.CollectorHealthProbe("master-bandwidth", master.Health(), "bandwidth"))
	mon.AddRule(monitor.Rule{
		Name: rule, Probe: "master-bandwidth",
		Cond: monitor.Above, Threshold: 1.5, // unhealthy only
		Trigger: core.TrigBandwidthDrop,
	})

	// Healthy master: no decision.
	master.Health().Check()
	if fired := mon.Poll(); len(fired) != 0 || len(svc.Decisions()) != 0 {
		t.Fatalf("healthy master fired %v, decisions %v", fired, svc.Decisions())
	}

	// Starve the master's bandwidth; the next sweep measures Unhealthy
	// and the rule fires the Figure 8 bandwidth-drop edge.
	before := decisionCount(rule, "default", ActionTransition)
	mark := telemetry.DefaultTracer().Mark()
	master.Resources().SetBandwidth(50)
	master.Health().Check()
	mon.Poll()
	ds := svc.Decisions()
	if len(ds) != 1 || ds[0].Action != ActionTransition || ds[0].Source != rule {
		t.Fatalf("decisions = %v, want one transition from %s", ds, rule)
	}
	for _, r := range sys.Replicas() {
		if r.FTM() != core.LFR {
			t.Fatalf("replica %s FTM = %s, want lfr", r.Host().Name(), r.FTM())
		}
	}
	if v := decisionCount(rule, "default", ActionTransition); v != before+1 {
		t.Fatalf("adaptation_decision_total = %d, want %d", v, before+1)
	}
	var decisionTraced, flipTraced bool
	for _, e := range telemetry.DefaultTracer().Since(mark) {
		if e.Kind == "adaptation" && e.Name == "decision" && e.Attrs["source"] == rule &&
			e.Attrs["from"] == "pbr" && e.Attrs["to"] == "lfr" && e.Attrs["trigger"] == string(core.TrigBandwidthDrop) {
			decisionTraced = true
		}
		if e.Kind == "health" && e.Name == "unhealthy" && e.Attrs["host"] == master.Name() &&
			strings.HasPrefix(e.Attrs["cause"], "bandwidth:") {
			flipTraced = true
		}
	}
	if !decisionTraced || !flipTraced {
		t.Fatalf("trace events missing: decision=%v verdict flip with cause=%v", decisionTraced, flipTraced)
	}

	// Still unhealthy, already in LFR: no second transition.
	master.Health().Check()
	if fired := mon.Poll(); len(fired) != 0 || len(svc.Decisions()) != 1 {
		t.Fatalf("re-fired while unhealthy: %v, decisions %v", fired, svc.Decisions())
	}

	if got := invoke(t, c, "get:x", 0); got != 7 {
		t.Fatalf("get:x = %d after the degrade, want 7", got)
	}
}

// TestServicePerGroupDegradesOneShard: one Service per group of a
// sharded system, all sharing one engine. Starving shard 1's master
// moves only shard 1, and the decision lands only on shard="1".
func TestServicePerGroupDegradesOneShard(t *testing.T) {
	s, err := ftm.NewShardedSystem(context.Background(), ftm.ShardedConfig{
		System:            "calc",
		FTM:               core.PBR,
		Shards:            3,
		HeartbeatInterval: time.Hour,
		SuspectTimeout:    24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)

	const rule = "shard-master-bandwidth"
	engine := adaptation.NewEngine(nil)
	var svcs []*Service
	var mons []*monitor.Engine
	for _, g := range s.Groups() {
		svc := New(Config{
			Group:      SystemGroup(g, engine),
			FaultModel: core.NewFaultModel(core.FaultCrash),
			Traits:     core.AppTraits{Deterministic: true, StateAccess: true},
		})
		mon := monitor.New(time.Hour, svc.Sink())
		mon.AddProbe(monitor.CollectorHealthProbe("bw", g.Master().Host().Health(), "bandwidth"))
		mon.AddRule(monitor.Rule{Name: rule, Probe: "bw", Cond: monitor.Above, Threshold: 1.5, Trigger: core.TrigBandwidthDrop})
		svcs = append(svcs, svc)
		mons = append(mons, mon)
	}
	sweep := func() {
		for k, g := range s.Groups() {
			g.Master().Host().Health().Check()
			mons[k].Poll()
		}
	}

	sweep()
	for k, svc := range svcs {
		if n := len(svc.Decisions()); n != 0 {
			t.Fatalf("healthy shard %d made %d decisions", k, n)
		}
	}

	s.Group(1).Master().Host().Resources().SetBandwidth(50)
	sweep()
	sweep() // edge-triggered: the verdict persists, the transition does not repeat
	for k, want := range []int{0, 1, 0} {
		if n := len(svcs[k].Decisions()); n != want {
			t.Fatalf("shard %d made %d decisions, want %d", k, n, want)
		}
	}
	for k, want := range []core.ID{core.PBR, core.LFR, core.PBR} {
		if got := s.Group(k).Master().FTM(); got != want {
			t.Fatalf("shard %d FTM = %s, want %s", k, got, want)
		}
	}
	if c, ok := telemetry.Default().FindCounter("adaptation_decision_total",
		"source", rule, "shard", "1", "decision", string(ActionTransition)); !ok || c.Value() == 0 {
		t.Fatal("shard 1's decision not counted")
	}
	for _, shard := range []string{"0", "2"} {
		if _, ok := telemetry.Default().FindCounter("adaptation_decision_total",
			"source", rule, "shard", shard, "decision", string(ActionTransition)); ok {
			t.Fatalf("healthy shard %s carries a decision", shard)
		}
	}
}

// fakeSLO serves one canned snapshot for every shard key.
type fakeSLO struct {
	mu   sync.Mutex
	snap slo.ShardSnapshot
	ok   bool
}

func (f *fakeSLO) set(snap slo.ShardSnapshot) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.snap, f.ok = snap, true
}

func (f *fakeSLO) Paging(string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ok && f.snap.Grade == slo.GradePage
}

func (f *fakeSLO) Snapshot(string) (slo.ShardSnapshot, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.snap, f.ok
}

func pagingSnap() slo.ShardSnapshot {
	return slo.ShardSnapshot{Grade: slo.GradePage, BudgetRemaining: 0.1, LastPage: time.Now()}
}

func recoveredSnap(budget float64) slo.ShardSnapshot {
	return slo.ShardSnapshot{Grade: slo.GradeOK, BudgetRemaining: budget, LastPage: time.Now()}
}

// fakeGroup holds an FTM without replicas, so the SLO rules are tested
// without a live system.
type fakeGroup struct {
	mu       sync.Mutex
	ftm      core.ID
	history  []core.ID
	failNext error
}

func (g *fakeGroup) FTM() (core.ID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ftm, nil
}

func (g *fakeGroup) Transition(_ context.Context, to core.ID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.failNext; err != nil {
		g.failNext = nil
		return err
	}
	g.ftm = to
	g.history = append(g.history, to)
	return nil
}

func (g *fakeGroup) Shard() string { return "g0" }

func (g *fakeGroup) transitions() []core.ID {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]core.ID(nil), g.history...)
}

func newSLOLoop(t *testing.T) (*fakeSLO, *fakeGroup, *Service, *monitor.Engine) {
	t.Helper()
	src, g := &fakeSLO{}, &fakeGroup{ftm: core.PBR}
	svc := New(Config{
		Group:      g,
		FaultModel: core.NewFaultModel(core.FaultCrash),
		Traits:     core.AppTraits{Deterministic: true, StateAccess: true},
		Manager:    AutoApprove{},
	})
	mon := monitor.New(time.Hour, svc.Sink())
	InstallSLORules(mon, src, "g0")
	return src, g, svc, mon
}

func pollN(mon *monitor.Engine, n int) {
	for i := 0; i < n; i++ {
		mon.Poll()
	}
}

// TestSLOPageDegradesOnce: a paging shard moves PBR -> LFR once; a page
// that persists does not transition again.
func TestSLOPageDegradesOnce(t *testing.T) {
	src, g, svc, mon := newSLOLoop(t)

	// No snapshot for the shard yet: nothing to do.
	pollN(mon, 3)
	if got := g.transitions(); len(got) != 0 {
		t.Fatalf("transitions without a snapshot: %v", got)
	}

	src.set(pagingSnap())
	pollN(mon, 4)
	if got := g.transitions(); len(got) != 1 || got[0] != core.LFR {
		t.Fatalf("transitions = %v, want [lfr]", got)
	}
	if ds := svc.Decisions(); len(ds) != 1 || ds[0].Source != sloPageRule || ds[0].Trigger != core.TrigBandwidthDrop {
		t.Fatalf("decisions = %v, want one bandwidth-drop from %s", ds, sloPageRule)
	}
}

// TestSLORecoveryGates: after a degrade, each recovery gate alone holds
// the return to PBR back; with every gate open the shard recovers once.
func TestSLORecoveryGates(t *testing.T) {
	src, g, _, mon := newSLOLoop(t)
	src.set(pagingSnap())
	mon.Poll()
	if got := g.transitions(); len(got) != 1 {
		t.Fatalf("no degrade: %v", got)
	}

	warn := recoveredSnap(0.9)
	warn.Grade = slo.GradeWarn
	neverPaged := recoveredSnap(0.9)
	neverPaged.LastPage = time.Time{}
	for _, tc := range []struct {
		name string
		snap slo.ShardSnapshot
	}{
		{"still paging", pagingSnap()},
		{"warn grade", warn},
		{"budget low", recoveredSnap(recoverBudget - 0.1)},
		{"never paged", neverPaged},
	} {
		src.set(tc.snap)
		pollN(mon, recoverPolls+1)
		if got := g.transitions(); len(got) != 1 {
			t.Fatalf("%s: recovered through a closed gate: %v", tc.name, got)
		}
	}

	// Every gate open, but fewer quiet polls than recoverPolls.
	src.set(recoveredSnap(recoverBudget))
	pollN(mon, recoverPolls-1)
	if got := g.transitions(); len(got) != 1 {
		t.Fatalf("recovered after %d polls: %v", recoverPolls-1, got)
	}
	mon.Poll()
	if got := g.transitions(); len(got) != 2 || got[1] != core.PBR {
		t.Fatalf("transitions = %v, want [lfr pbr]", got)
	}

	// Fully recovered: idle.
	pollN(mon, recoverPolls+1)
	if got := g.transitions(); len(got) != 2 {
		t.Fatalf("acted after full recovery: %v", got)
	}
}

// TestFailedTransitionRetriesNextPoll: a recovery whose transition fails
// fires again on the next poll, and then succeeds.
func TestFailedTransitionRetriesNextPoll(t *testing.T) {
	src, g, svc, mon := newSLOLoop(t)
	src.set(pagingSnap())
	mon.Poll()

	src.set(recoveredSnap(0.9))
	g.mu.Lock()
	g.failNext = errors.New("transition refused")
	g.mu.Unlock()
	pollN(mon, recoverPolls)
	ds := svc.Decisions()
	if last := ds[len(ds)-1]; last.Action != ActionFailed || last.Source != sloRecoverRule {
		t.Fatalf("last decision = %v, want a failed %s", last, sloRecoverRule)
	}

	mon.Poll()
	ds = svc.Decisions()
	if last := ds[len(ds)-1]; last.Action != ActionTransition || last.ToFTM != core.PBR {
		t.Fatalf("retry decision = %v, want a transition to pbr", last)
	}
	if got := g.transitions(); len(got) != 2 || got[1] != core.PBR {
		t.Fatalf("transitions = %v, want [lfr pbr]", got)
	}
}

// TestDaemonGroupMovesBothReplicas pins the mixed-pair bug: a service
// holding only the master replica and the peer's address must move the
// slave too, or a later failover promotes a PBR slave that never saw
// the LFR master's acknowledged writes.
func TestDaemonGroupMovesBothReplicas(t *testing.T) {
	ctx := context.Background()
	sys, err := ftm.NewSystem(ctx, ftm.SystemConfig{
		System:            "pair",
		FTM:               core.PBR,
		HeartbeatInterval: time.Hour,
		SuspectTimeout:    24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Shutdown)
	// Each host serves the management plane, as each resilientd does.
	engine := adaptation.NewEngine(nil)
	for _, r := range sys.Replicas() {
		mgmt.NewServer(r.Host().Endpoint()).Register(r, engine)
	}
	master, slave := sys.Master(), sys.Slave()

	src := &fakeSLO{}
	svc := New(Config{
		Group:      DaemonGroup(master, slave.Host().Addr(), engine),
		FaultModel: core.NewFaultModel(core.FaultCrash),
		Traits:     core.AppTraits{Deterministic: true, StateAccess: true},
		Manager:    AutoApprove{},
	})
	mon := monitor.New(time.Hour, svc.Sink())
	InstallSLORules(mon, src, rpc.ShardLabel(master.Group()))

	c, err := sys.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, c, "add:x", 1)
	src.set(pagingSnap())
	mon.Poll()
	for _, r := range []*ftm.Replica{master, slave} {
		if r.FTM() != core.LFR {
			t.Fatalf("%s FTM = %s after the SLO degrade, want lfr (decisions %v)", r.Host().Name(), r.FTM(), svc.Decisions())
		}
	}

	const acked = 4
	for i := 1; i < acked; i++ {
		invoke(t, c, "add:x", 1)
	}
	sys.CrashMaster()
	if err := slave.Promote(ctx); err != nil {
		t.Fatal(err)
	}
	if got := invoke(t, c, "get:x", 0); got != acked {
		t.Fatalf("get:x = %d after failover, want %d acked adds", got, acked)
	}
}
