package monitor

import (
	"testing"

	"resilientft/internal/core"
)

func TestSLOBreachProbeSamplesPaging(t *testing.T) {
	paging := false
	p := SLOBreachProbe("slo-page-0", func() bool { return paging })
	if p.Name() != "slo-page-0" {
		t.Fatalf("name = %q", p.Name())
	}
	if got := p.Sample(); got != 0 {
		t.Fatalf("idle sample = %v, want 0", got)
	}
	paging = true
	if got := p.Sample(); got != 1 {
		t.Fatalf("paging sample = %v, want 1", got)
	}
}

// The breach probe composes with the rule engine like any resource
// probe: `Above 0.5, Consecutive 2` fires once per confirmed paging
// episode, edge-triggered.
func TestSLOBreachRuleFiresOncePerEpisode(t *testing.T) {
	paging := false
	var fired []core.Trigger
	e := New(0, func(_ string, tr core.Trigger) bool { fired = append(fired, tr); return true })
	e.AddProbe(SLOBreachProbe("slo-page", func() bool { return paging }))
	e.AddRule(Rule{
		Name:        "slo-page-confirmed",
		Probe:       "slo-page",
		Cond:        Above,
		Threshold:   0.5,
		Consecutive: 2,
		Trigger:     core.TrigCriticalPhase,
	})

	e.Poll() // idle
	paging = true
	e.Poll() // first paging poll: not yet confirmed
	if len(fired) != 0 {
		t.Fatalf("fired before Consecutive held: %v", fired)
	}
	e.Poll() // confirmed
	if len(fired) != 1 || fired[0] != core.TrigCriticalPhase {
		t.Fatalf("fired = %v, want one TrigCriticalPhase", fired)
	}
	e.Poll() // still paging: edge-triggered, no refire
	if len(fired) != 1 {
		t.Fatalf("refired while paging persisted: %v", fired)
	}
	paging = false
	e.Poll()
	paging = true
	e.Poll()
	e.Poll() // new episode, reconfirmed
	if len(fired) != 2 {
		t.Fatalf("second episode did not refire: %v", fired)
	}
}
