package resilientft

import (
	"context"
	"testing"
	"time"

	"resilientft/internal/core"
)

// TestPublicAPIQuickstart exercises the documented quickstart flow
// through the public facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	ctx := context.Background()
	sys, err := NewSystem(ctx, SystemConfig{
		System:            "calc",
		FTM:               PBR,
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectTimeout:    60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()

	client, err := sys.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Invoke(ctx, "add:x", EncodeArg(5))
	if err != nil {
		t.Fatal(err)
	}
	v, err := DecodeResult(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Fatalf("add:x = %d", v)
	}

	engine := NewEngine(NewRepository())
	report, err := engine.TransitionSystem(ctx, sys, LFR)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Succeeded() {
		t.Fatalf("transition report: %+v", report)
	}
}

func TestPublicAPISelection(t *testing.T) {
	ft := NewFaultModel(FaultCrash, FaultTransientValue)
	traits := AppTraits{Deterministic: true, StateAccess: true}
	res := ResourceState{BandwidthKbps: 500, CPUFree: 0.9, Energy: 1, Hosts: 2}
	d, err := Select(ft, traits, res, core.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != LFRTR {
		t.Fatalf("Select = %s, want lfr_tr (bandwidth constrained, transient faults)", d.ID)
	}
	if inc := Validate(d, ft, traits, res, core.DefaultThresholds()); len(inc) != 0 {
		t.Fatalf("selected FTM invalid: %v", inc)
	}
	if len(Catalogue()) != 7 {
		t.Fatalf("catalogue size = %d", len(Catalogue()))
	}
}

func TestPublicAPIResilienceLoop(t *testing.T) {
	ctx := context.Background()
	sys, err := NewSystem(ctx, SystemConfig{
		System:            "calc",
		FTM:               PBR,
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectTimeout:    60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()

	svc := NewResilience(ResilienceConfig{
		Group:      SystemGroup(sys, nil),
		FaultModel: NewFaultModel(FaultCrash),
		Traits:     AppTraits{Deterministic: true, StateAccess: true},
		Manager:    AutoApprove{},
	})
	d := svc.HandleTrigger(ctx, core.TrigBandwidthDrop)
	if d.ToFTM != LFR {
		t.Fatalf("decision: %+v", d)
	}
	if sys.Master().FTM() != LFR {
		t.Fatal("transition not applied")
	}
}

func TestManagerFuncAdapter(t *testing.T) {
	asked := 0
	var mgr SystemManager = ManagerFunc(func(edge ScenarioEdge) bool {
		asked++
		return true
	})
	if !mgr.ApprovePossible(ScenarioEdge{}) || asked != 1 {
		t.Fatal("ManagerFunc adapter broken")
	}
	var _ SystemManager = AutoApprove{}
	var _ SystemManager = Conservative{}
}
