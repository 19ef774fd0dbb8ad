package monitor

import (
	"sync"
	"testing"
	"time"

	"resilientft/internal/core"
	"resilientft/internal/host"
)

func TestRuleFiresOnceUntilRearmed(t *testing.T) {
	res := host.NewResources(5000, 0.9, 1.0)
	e := New(time.Hour, nil) // manual polling
	e.AddProbe(BandwidthProbe("bw", res))
	e.AddRule(Rule{Name: "bw-drop", Probe: "bw", Cond: Below, Threshold: 1000, Trigger: core.TrigBandwidthDrop})

	if got := e.Poll(); len(got) != 0 {
		t.Fatalf("fired above threshold: %v", got)
	}
	res.SetBandwidth(500)
	if got := e.Poll(); len(got) != 1 || got[0] != core.TrigBandwidthDrop {
		t.Fatalf("first crossing fired %v", got)
	}
	// Still below: no re-fire (edge-triggered).
	for i := 0; i < 5; i++ {
		if got := e.Poll(); len(got) != 0 {
			t.Fatalf("re-fired while held: %v", got)
		}
	}
	// Clear and cross again: re-armed.
	res.SetBandwidth(5000)
	e.Poll()
	res.SetBandwidth(400)
	if got := e.Poll(); len(got) != 1 {
		t.Fatalf("did not re-fire after re-arm: %v", got)
	}
	if total := e.Fired(); len(total) != 2 {
		t.Fatalf("Fired = %v", total)
	}
}

func TestRuleHysteresisConsecutive(t *testing.T) {
	res := host.NewResources(5000, 0.9, 1.0)
	e := New(time.Hour, nil)
	e.AddProbe(CPUFreeProbe("cpu", res))
	e.AddRule(Rule{Name: "cpu-low", Probe: "cpu", Cond: Below, Threshold: 0.25,
		Consecutive: 3, Trigger: core.TrigCPUDrop})

	res.SetCPUFree(0.1)
	if got := e.Poll(); len(got) != 0 {
		t.Fatal("fired on first sample despite Consecutive=3")
	}
	// A bounce resets the count — noise never fires.
	res.SetCPUFree(0.9)
	e.Poll()
	res.SetCPUFree(0.1)
	e.Poll()
	e.Poll()
	if got := e.Poll(); len(got) != 1 || got[0] != core.TrigCPUDrop {
		t.Fatalf("third consecutive sample fired %v", got)
	}
}

func TestAboveCondition(t *testing.T) {
	obs := NewErrorObserver("errors", time.Minute)
	e := New(time.Hour, nil)
	e.AddProbe(obs)
	e.AddRule(Rule{Name: "aging", Probe: "errors", Cond: Above, Threshold: 2, Trigger: core.TrigHardwareAging})
	e.Poll()
	obs.Report()
	obs.Report()
	if got := e.Poll(); len(got) != 0 {
		t.Fatalf("fired at threshold: %v", got)
	}
	obs.Report()
	if got := e.Poll(); len(got) != 1 || got[0] != core.TrigHardwareAging {
		t.Fatalf("error-rate rule fired %v", got)
	}
}

func TestErrorObserverWindow(t *testing.T) {
	obs := NewErrorObserver("errors", 50*time.Millisecond)
	now := time.Unix(1000, 0)
	obs.now = func() time.Time { return now }
	obs.Report()
	obs.Report()
	if got := obs.Sample(); got != 2 {
		t.Fatalf("Sample = %v", got)
	}
	now = now.Add(100 * time.Millisecond)
	if got := obs.Sample(); got != 0 {
		t.Fatalf("Sample after window = %v", got)
	}
}

func TestSinkReceivesTriggers(t *testing.T) {
	res := host.NewResources(100, 0.9, 1.0)
	var mu sync.Mutex
	var got []core.Trigger
	var rules []string
	e := New(time.Hour, func(rule string, tr core.Trigger) bool {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, tr)
		rules = append(rules, rule)
		return true
	})
	e.AddProbe(BandwidthProbe("bw", res))
	e.AddRule(Rule{Probe: "bw", Cond: Below, Threshold: 1000, Trigger: core.TrigBandwidthDrop})
	e.Poll()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != core.TrigBandwidthDrop {
		t.Fatalf("sink received %v", got)
	}
	// An unnamed rule is named after its probe.
	if len(rules) != 1 || rules[0] != "bw" {
		t.Fatalf("sink saw rules %v, want [bw]", rules)
	}
}

// TestFailedSinkRearmsRule: a trigger the sink failed to handle fires
// again on the next poll while the condition holds, and a handled one
// does not.
func TestFailedSinkRearmsRule(t *testing.T) {
	res := host.NewResources(100, 0.9, 1.0)
	fail := true
	calls := 0
	e := New(time.Hour, func(string, core.Trigger) bool {
		calls++
		return !fail
	})
	e.AddProbe(BandwidthProbe("bw", res))
	e.AddRule(Rule{Name: "bw-drop", Probe: "bw", Cond: Below, Threshold: 1000, Trigger: core.TrigBandwidthDrop})

	e.Poll() // fires, handling fails
	fail = false
	e.Poll() // still below: fires again, handled
	e.Poll() // handled: edge-triggered again, no refire
	if calls != 2 {
		t.Fatalf("sink called %d times, want 2 (one failure, one retry)", calls)
	}
}

func TestEngineStartStopPolls(t *testing.T) {
	res := host.NewResources(100, 0.9, 1.0)
	e := New(5*time.Millisecond, nil)
	e.AddProbe(BandwidthProbe("bw", res))
	e.AddRule(Rule{Probe: "bw", Cond: Below, Threshold: 1000, Trigger: core.TrigBandwidthDrop})
	e.Start()
	deadline := time.Now().Add(2 * time.Second)
	for len(e.Fired()) == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	e.Stop()
	e.Stop() // idempotent
	if len(e.Fired()) == 0 {
		t.Fatal("periodic polling never fired")
	}
}

func TestUnknownProbeRuleIgnored(t *testing.T) {
	e := New(time.Hour, nil)
	e.AddRule(Rule{Probe: "ghost", Cond: Below, Threshold: 1, Trigger: core.TrigCPUDrop})
	if got := e.Poll(); len(got) != 0 {
		t.Fatalf("rule over missing probe fired: %v", got)
	}
	if len(e.Probes()) != 0 {
		t.Fatal("phantom probes listed")
	}
}

func TestBusyFractionProbe(t *testing.T) {
	var busy time.Duration
	var mu sync.Mutex
	p := BusyFractionProbe("load", func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		return busy
	})
	if got := p.Sample(); got != 0 {
		t.Fatalf("first sample = %v, want 0", got)
	}
	// Simulate ~100%% busy: the counter advances with wall time.
	start := time.Now()
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	busy = time.Since(start)
	mu.Unlock()
	if got := p.Sample(); got < 0.5 {
		t.Fatalf("busy sample = %v, want >= 0.5", got)
	}
	// Idle window: counter frozen.
	time.Sleep(20 * time.Millisecond)
	if got := p.Sample(); got > 0.2 {
		t.Fatalf("idle sample = %v, want near 0", got)
	}
}
