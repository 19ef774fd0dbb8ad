package slo_test

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"resilientft/internal/appstate"
	"resilientft/internal/core"
	"resilientft/internal/ftm"
	"resilientft/internal/monitor"
	"resilientft/internal/resilience"
	"resilientft/internal/rpc"
	"resilientft/internal/slo"
	"resilientft/internal/stablestore"
	"resilientft/internal/telemetry"
)

// slowApp wraps the calculator with a settable processing delay — the
// gray failure the drill injects: the replica is alive, heartbeating
// and correct, but every request crawls. Only the plain Application
// surface is implemented (no optional fast paths), so the delay sits
// on every processed request.
type slowApp struct {
	calc  *ftm.Calculator
	delay atomic.Int64 // nanoseconds added to each Process
}

func (a *slowApp) Process(op string, arg int64) (int64, int64, error) {
	if d := a.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return a.calc.Process(op, arg)
}

func (a *slowApp) Assert(op string, arg, before, result int64) bool {
	return a.calc.Assert(op, arg, before, result)
}

func (a *slowApp) StateManager() appstate.Manager { return a.calc.StateManager() }

func (a *slowApp) Deterministic() bool { return a.calc.Deterministic() }

// TestSLOBreachDrill is the end-to-end drill the ISSUE specifies: a
// live PBR pair is driven past its latency objective, the engine pages
// within the fast windows, the diagnostic bundle (black box + pprof)
// lands in stable storage, the daemon's SLO rules drive the shard's
// Resilience Management service to degrade it to LFR with a traced
// cause, and — once the injected slowness is lifted and the budget
// refills — to recover it back to PBR.
func TestSLOBreachDrill(t *testing.T) {
	const group = "slo-e2e"
	ctx := context.Background()

	app := &slowApp{calc: ftm.NewCalculator()}
	sys, err := ftm.NewSystem(ctx, ftm.SystemConfig{
		System:            "slodrill",
		Group:             group,
		FTM:               core.PBR,
		AppFactory:        func() ftm.Application { return app },
		HeartbeatInterval: 50 * time.Millisecond,
		SuspectTimeout:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()

	// The rpc layer records per-shard series into the default registry,
	// so the engine reads it too; the drill's unique group keeps its
	// series apart from anything else the test binary records.
	fr := telemetry.NewFlightRecorder(telemetry.DefaultTracer(), telemetry.DefaultSpans(), telemetry.Default())
	incidents := stablestore.NewFileIncidentLog(t.TempDir() + "/incidents.jsonl")
	eng := slo.New(slo.Config{
		Registry: telemetry.Default(),
		Interval: 10 * time.Millisecond,
		Windows: slo.Windows{
			FastShort: 100 * time.Millisecond,
			FastLong:  300 * time.Millisecond,
			SlowShort: time.Second,
			SlowLong:  1500 * time.Millisecond,
		},
		Capture: slo.NewCapture(fr, incidents, 30*time.Millisecond),
	})
	eng.SetObjective(group, slo.Objective{LatencyP99: 1 << 22, Availability: 0.999}) // ~4.2ms
	eng.Start()
	defer eng.Stop()

	svc := resilience.New(resilience.Config{
		Group:      resilience.SystemGroup(sys, nil),
		FaultModel: core.NewFaultModel(core.FaultCrash),
		Traits:     core.AppTraits{Deterministic: true, StateAccess: true},
		Manager:    resilience.AutoApprove{},
	})
	mon := monitor.New(20*time.Millisecond, svc.Sink())
	resilience.InstallSLORules(mon, eng, group)
	mon.Start()
	defer mon.Stop()

	// Background traffic for the whole drill; errors during transitions
	// are part of the scenario, not failures.
	client, err := sys.NewClient(rpc.WithGroup(group), rpc.WithCallTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	stopTraffic := make(chan struct{})
	trafficDone := make(chan struct{})
	go func() {
		defer close(trafficDone)
		for {
			select {
			case <-stopTraffic:
				return
			default:
			}
			_, _ = client.Invoke(ctx, "add:x", ftm.EncodeArg(1))
		}
	}()
	defer func() { close(stopTraffic); <-trafficDone }()

	waitFor := func(what string, deadline time.Duration, ok func() bool) {
		t.Helper()
		end := time.Now().Add(deadline)
		for time.Now().Before(end) {
			if ok() {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		snap, _ := eng.Snapshot(group)
		t.Fatalf("%s never happened; slo snapshot: %+v", what, snap)
	}

	// A decision is counted once the whole pair has transitioned; the
	// master alone reports the new FTM a little earlier.
	reg := telemetry.Default()
	executed := func(source string, to core.ID) func() bool {
		c := reg.Counter("adaptation_decision_total", "source", source, "shard", group, "decision", "transition-executed")
		before := c.Value()
		return func() bool {
			m := sys.Master()
			return c.Value() > before && m != nil && m.FTM() == to
		}
	}

	// Phase 1 — inject 10ms of per-request slowness: every request
	// lands far past the ~4.2ms objective, both fast windows burn at
	// ~1000x, and the page rule degrades the shard to LFR.
	app.delay.Store(int64(10 * time.Millisecond))
	waitFor("counted degrade to LFR", 10*time.Second, executed("slo-page", core.LFR))
	if c, ok := reg.FindCounter("slo_breaches_total", "shard", group, "grade", "page"); !ok || c.Value() == 0 {
		t.Fatal("no page-grade breach counted")
	}

	// The traced cause: the engine's breach event and the service's
	// decision event, both carrying the shard.
	var sawBreach, sawDecision bool
	for _, e := range telemetry.DefaultTracer().Since(0) {
		if e.Kind == "slo" && e.Name == "breach" && e.Attrs["shard"] == group {
			sawBreach = true
		}
		if e.Kind == "adaptation" && e.Name == "decision" && e.Attrs["source"] == "slo-page" &&
			e.Attrs["shard"] == group && e.Attrs["to"] == "lfr" {
			sawDecision = true
		}
	}
	if !sawBreach || !sawDecision {
		t.Fatalf("trace events missing: breach=%v decision=%v", sawBreach, sawDecision)
	}

	// Phase 2 — the diagnostic bundle: a breach black box in the
	// recorder's ring and a profile-carrying bundle in stable storage.
	waitFor("diagnostic bundle persisted", 10*time.Second, func() bool {
		recs, err := incidents.Records()
		if err != nil {
			return false
		}
		for _, rec := range recs {
			if rec.Reason == slo.ReasonBundle {
				return true
			}
		}
		return false
	})
	recs, err := incidents.Records()
	if err != nil {
		t.Fatal(err)
	}
	var bundle slo.Bundle
	found := false
	for _, rec := range recs {
		if rec.Reason != slo.ReasonBundle {
			continue
		}
		if err := json.Unmarshal(rec.Data, &bundle); err != nil {
			t.Fatalf("bundle unmarshal: %v", err)
		}
		found = true
	}
	if !found {
		t.Fatal("no bundle record")
	}
	if bundle.Shard != group || bundle.Grade != "page" {
		t.Fatalf("bundle identity wrong: %+v", bundle)
	}
	if bundle.BurnShort <= 14.4 {
		t.Fatalf("bundle burn = %v, want above the page threshold", bundle.BurnShort)
	}
	if bundle.Profiles == nil {
		t.Fatalf("bundle has no profiles (err %q)", bundle.ProfilesErr)
	}
	if len(bundle.Profiles.Heap) == 0 || len(bundle.Profiles.Goroutine) == 0 {
		t.Fatal("bundle profiles empty")
	}
	boxOK := false
	for _, box := range fr.Boxes() {
		if box.Reason == slo.ReasonBreach && box.Attrs["shard"] == group {
			boxOK = true
		}
	}
	if !boxOK {
		t.Fatal("no breach black box in the recorder ring")
	}

	// Phase 3 — lift the slowness: the fast windows drain, the budget
	// refills past the recovery threshold, and after the quiet polls the
	// recovery rule restores PBR.
	app.delay.Store(0)
	waitFor("counted recovery to PBR", 20*time.Second, executed("slo-recover", core.PBR))
}
