package resilience

import (
	"context"
	"strings"
	"testing"
	"time"

	"resilientft/internal/core"
	"resilientft/internal/ftm"
	"resilientft/internal/monitor"
)

func newService(t *testing.T, ftmID core.ID, mgr SystemManager) (*Service, *ftm.System) {
	t.Helper()
	s, err := ftm.NewSystem(context.Background(), ftm.SystemConfig{
		System:            "calc",
		FTM:               ftmID,
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectTimeout:    60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	svc := New(Config{
		Group:      SystemGroup(s, nil),
		FaultModel: core.NewFaultModel(core.FaultCrash),
		Traits:     core.AppTraits{Deterministic: true, StateAccess: true},
		Manager:    mgr,
	})
	return svc, s
}

func TestMandatoryTransitionExecutesAutomatically(t *testing.T) {
	svc, sys := newService(t, core.PBR, Conservative{})
	d := svc.HandleTrigger(context.Background(), core.TrigBandwidthDrop)
	if d.Action != ActionTransition {
		t.Fatalf("action = %s (%v)", d.Action, d.Err)
	}
	if d.FromFTM != core.PBR || d.ToFTM != core.LFR {
		t.Fatalf("transition %s -> %s", d.FromFTM, d.ToFTM)
	}
	if sys.Master().FTM() != core.LFR {
		t.Fatalf("live FTM = %s", sys.Master().FTM())
	}
	if len(d.Inconsistencies) != 0 {
		t.Fatalf("inconsistencies after mandatory transition: %v", d.Inconsistencies)
	}
}

func TestPossibleTransitionNeedsManagerApproval(t *testing.T) {
	svc, sys := newService(t, core.PBR, Conservative{})
	d := svc.HandleTrigger(context.Background(), core.TrigCPUIncrease)
	if d.Action != ActionDeclined {
		t.Fatalf("action = %s", d.Action)
	}
	if sys.Master().FTM() != core.PBR {
		t.Fatal("declined transition still executed")
	}

	svc2, sys2 := newService(t, core.PBR, AutoApprove{})
	d = svc2.HandleTrigger(context.Background(), core.TrigCPUIncrease)
	if d.Action != ActionTransition || d.ToFTM != core.LFR {
		t.Fatalf("approved possible transition: %s (%s -> %s) %v", d.Action, d.FromFTM, d.ToFTM, d.Err)
	}
	if sys2.Master().FTM() != core.LFR {
		t.Fatal("approved transition not executed")
	}
}

func TestIntraTransitionUpdatesTraitsOnly(t *testing.T) {
	svc, sys := newService(t, core.PBR, Conservative{})
	d := svc.HandleTrigger(context.Background(), core.TrigAppNonDeterminism)
	if d.Action != ActionIntra {
		t.Fatalf("action = %s", d.Action)
	}
	if sys.Master().FTM() != core.PBR {
		t.Fatal("intra transition changed the FTM")
	}
	_, traits, _ := svc.Model()
	if traits.Deterministic {
		t.Fatal("traits not updated")
	}
	// The FTM stays consistent: PBR supports non-determinism.
	if len(d.Inconsistencies) != 0 {
		t.Fatalf("inconsistencies: %v", d.Inconsistencies)
	}
}

func TestDeclinedPossibleFallsBackToIntra(t *testing.T) {
	// PBR/non-det + app-determinism: possible edge to LFR, intra edge to
	// PBR/det. With a conservative manager the intra edge is taken.
	svc, sys := newService(t, core.PBR, Conservative{})
	svc.HandleTrigger(context.Background(), core.TrigAppNonDeterminism)
	d := svc.HandleTrigger(context.Background(), core.TrigAppDeterminism)
	if d.Action != ActionIntra {
		t.Fatalf("action = %s", d.Action)
	}
	if sys.Master().FTM() != core.PBR {
		t.Fatal("fallback changed the FTM")
	}
}

func TestProactiveHardeningOnHardwareAging(t *testing.T) {
	svc, sys := newService(t, core.LFR, Conservative{})
	d := svc.HandleTrigger(context.Background(), core.TrigHardwareAging)
	if d.Action != ActionTransition || d.ToFTM != core.LFRTR {
		t.Fatalf("hardware aging: %s -> %s (%s) %v", d.FromFTM, d.ToFTM, d.Action, d.Err)
	}
	if sys.Master().FTM() != core.LFRTR {
		t.Fatal("LFR⊕TR not deployed")
	}
	ft, _, _ := svc.Model()
	if !ft.Has(core.FaultTransientValue) {
		t.Fatal("fault model not extended")
	}
	if d.Edge.Nature != core.Proactive {
		t.Fatal("FT-driven edge not proactive")
	}
}

func TestCriticalPhaseMovesToAssertionDuplex(t *testing.T) {
	svc, sys := newService(t, core.LFR, Conservative{})
	d := svc.HandleTrigger(context.Background(), core.TrigCriticalPhase)
	if d.Action != ActionTransition {
		t.Fatalf("action = %s: %v", d.Action, d.Err)
	}
	if got := sys.Master().FTM(); got != core.APBR {
		t.Fatalf("critical phase deployed %s, want a_pbr (state access available)", got)
	}
}

func TestStateAccessLossOnLFRTRMovesToADuplex(t *testing.T) {
	svc, sys := newService(t, core.LFRTR, Conservative{})
	// Align the model with the deployed FTM.
	svc.mu.Lock()
	svc.ft = core.NewFaultModel(core.FaultCrash, core.FaultTransientValue)
	svc.mu.Unlock()
	d := svc.HandleTrigger(context.Background(), core.TrigStateAccessLoss)
	if d.Action != ActionTransition {
		t.Fatalf("action = %s: %v", d.Action, d.Err)
	}
	if got := sys.Master().FTM(); got != core.ALFR {
		t.Fatalf("deployed %s, want a_lfr (no state access)", got)
	}
}

func TestDeadEndAndRecovery(t *testing.T) {
	svc, sys := newService(t, core.ALFR, AutoApprove{})
	d := svc.HandleTrigger(context.Background(), core.TrigAppNonDeterminism)
	if d.Action != ActionDeadEnd {
		t.Fatalf("action = %s", d.Action)
	}
	// A&LFR stays physically attached but is known-inconsistent.
	if inc, err := svc.CheckConsistency(); err != nil || len(inc) == 0 {
		t.Fatalf("dead-end consistency = %v, %v (want violations)", inc, err)
	}
	// State access returning offers a way out (possible edge, approved).
	d = svc.HandleTrigger(context.Background(), core.TrigStateAccess)
	if d.Action != ActionTransition || d.ToFTM != core.PBR {
		t.Fatalf("dead-end exit: %s to %s: %v", d.Action, d.ToFTM, d.Err)
	}
	if sys.Master().FTM() != core.PBR {
		t.Fatal("PBR not deployed after dead-end exit")
	}
}

func TestOscillationGuard(t *testing.T) {
	// A bandwidth value flapping around the threshold causes exactly one
	// transition under a conservative manager: the mandatory drop edge
	// fires; the reverse is possible and declined; further drops find the
	// system already adapted.
	svc, sys := newService(t, core.PBR, Conservative{})
	transitions := 0
	for i := 0; i < 5; i++ {
		d1 := svc.HandleTrigger(context.Background(), core.TrigBandwidthDrop)
		if d1.Action == ActionTransition {
			transitions++
		}
		d2 := svc.HandleTrigger(context.Background(), core.TrigBandwidthIncrease)
		if d2.Action == ActionTransition {
			transitions++
		}
	}
	if transitions != 1 {
		t.Fatalf("flapping caused %d transitions, want 1", transitions)
	}
	if sys.Master().FTM() != core.LFR {
		t.Fatal("system did not settle on LFR")
	}
	if len(svc.Decisions()) != 10 {
		t.Fatalf("decision log has %d entries", len(svc.Decisions()))
	}
}

func TestMonitorToResilienceLoop(t *testing.T) {
	// Full loop: a probe crosses a threshold, the monitoring engine fires
	// the trigger into the resilience service, which executes the
	// mandatory transition.
	svc, sys := newService(t, core.PBR, Conservative{})
	res := sys.Hosts()[0].Resources()
	eng := monitor.New(time.Hour, svc.Sink())
	eng.AddProbe(monitor.BandwidthProbe("bw", res))
	eng.AddRule(monitor.Rule{
		Probe: "bw", Cond: monitor.Below, Threshold: 1000,
		Consecutive: 2, Trigger: core.TrigBandwidthDrop,
	})

	eng.Poll() // healthy
	res.SetBandwidth(200)
	eng.Poll() // first low sample: hysteresis holds
	if sys.Master().FTM() != core.PBR {
		t.Fatal("transition fired before hysteresis was satisfied")
	}
	eng.Poll() // second low sample: trigger fires
	if sys.Master().FTM() != core.LFR {
		t.Fatal("monitor-driven mandatory transition did not execute")
	}
}

func TestNoEdgeTrigger(t *testing.T) {
	svc, _ := newService(t, core.PBR, Conservative{})
	d := svc.HandleTrigger(context.Background(), core.TrigHardwareReplaced)
	if d.Action != ActionNone {
		t.Fatalf("action = %s", d.Action)
	}
}

func TestMeasuredLoadDrivesTransition(t *testing.T) {
	// Full measured loop: an invocation-metrics interceptor on the live
	// server feeds a busy-fraction probe; sustained load crosses the
	// CPU rule and the resilience service executes the approved
	// LFR -> PBR transition (the "CPU drop" edge of Figure 8).
	svc, sys := newService(t, core.LFR, AutoApprove{})
	metrics, err := sys.Master().AttachMetrics()
	if err != nil {
		t.Fatal(err)
	}
	c, err := sys.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	eng := monitor.New(time.Hour, svc.Sink())
	eng.AddProbe(monitor.BusyFractionProbe("server-load", metrics.BusyTime))
	eng.AddRule(monitor.Rule{
		Name: "cpu-pressure", Probe: "server-load",
		Cond: monitor.Above, Threshold: 0.001, Consecutive: 1,
		Trigger: core.TrigCPUDrop,
	})

	eng.Poll() // baseline sample
	// Generate real load: enough requests to register busy time.
	for i := 0; i < 200; i++ {
		if _, err := c.Invoke(context.Background(), "add:x", ftm.EncodeArg(1)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Poll()
	if sys.Master().FTM() != core.PBR {
		t.Fatalf("measured load did not drive the transition; FTM = %s (fired: %v)",
			sys.Master().FTM(), eng.Fired())
	}
}

func TestDecisionStringAndAccessors(t *testing.T) {
	d := Decision{
		Trigger: core.TrigBandwidthDrop,
		From:    core.StPBRDet,
		Action:  ActionTransition,
		FromFTM: core.PBR,
		ToFTM:   core.LFR,
	}
	s := d.String()
	for _, want := range []string{"bandwidth-drop", "transition-executed", "pbr", "lfr"} {
		if !strings.Contains(s, want) {
			t.Errorf("Decision.String() = %q missing %q", s, want)
		}
	}
	d.Err = context.DeadlineExceeded
	if !strings.Contains(d.String(), "error:") {
		t.Error("error not rendered")
	}
	var mgr SystemManager = AutoApprove{}
	if !mgr.ApprovePossible(core.ScenarioEdge{}) {
		t.Error("AutoApprove declined")
	}
}

func TestSetResourcesFeedsConsistency(t *testing.T) {
	svc, _ := newService(t, core.PBR, Conservative{})
	// Precise resource values from monitoring glue override the trigger
	// defaults.
	svc.SetResources(core.ResourceState{BandwidthKbps: 100, CPUFree: 0.9, Energy: 1, Hosts: 2})
	inc, err := svc.CheckConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if len(inc) == 0 {
		t.Fatal("bandwidth-starved PBR reported consistent")
	}
	_, _, res := svc.Model()
	if res.BandwidthKbps != 100 {
		t.Fatalf("resources = %+v", res)
	}
}

func TestHandleTriggerWithAllReplicasDead(t *testing.T) {
	svc, sys := newService(t, core.PBR, Conservative{})
	sys.Shutdown()
	d := svc.HandleTrigger(context.Background(), core.TrigBandwidthDrop)
	if d.Action != ActionFailed || d.Err == nil {
		t.Fatalf("decision on dead system = %+v", d)
	}
	if _, err := svc.CheckConsistency(); err == nil {
		t.Fatal("consistency check succeeded on dead system")
	}
}

func TestCurrentFTMFallsBackToSlave(t *testing.T) {
	// With the master mid-failover (crashed, slave not yet promoted), the
	// service still resolves the deployed FTM from the surviving slave.
	svc, sys := newService(t, core.PBR, Conservative{})
	// Freeze failover by using a very long suspect timeout system.
	slow, err := ftm.NewSystem(context.Background(), ftm.SystemConfig{
		System:            "calc2",
		FTM:               core.PBR,
		HeartbeatInterval: time.Hour,
		SuspectTimeout:    24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(slow.Shutdown)
	svc2 := New(Config{
		Group:      SystemGroup(slow, nil),
		FaultModel: core.NewFaultModel(core.FaultCrash),
		Traits:     core.AppTraits{Deterministic: true, StateAccess: true},
	})
	slow.CrashMaster()
	if _, err := svc2.CheckConsistency(); err != nil {
		t.Fatalf("consistency via surviving slave: %v", err)
	}
	_ = svc
	_ = sys
}
