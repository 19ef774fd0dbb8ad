package monitor

import (
	"testing"

	"resilientft/internal/core"
	"resilientft/internal/host"
)

func TestHealthProbeSamplesVerdictOrdinal(t *testing.T) {
	hm := host.NewHealthMonitor("m1")
	verdict := host.Healthy
	hm.Register(host.CollectorFunc{CollectorName: "dim", Fn: func() host.CheckResult {
		return host.CheckResult{Verdict: verdict, Reason: "test"}
	}})
	hm.Check()

	p := HealthProbe("m1-health", hm)
	if got := p.Sample(); got != 0 {
		t.Fatalf("healthy sample = %v, want 0", got)
	}
	verdict = host.Unhealthy
	hm.Check()
	if got := p.Sample(); got != 2 {
		t.Fatalf("unhealthy sample = %v, want 2", got)
	}

	cp := CollectorHealthProbe("m1-dim", hm, "dim")
	if got := cp.Sample(); got != 2 {
		t.Fatalf("collector sample = %v, want 2", got)
	}
	if got := CollectorHealthProbe("m1-none", hm, "absent").Sample(); got != 0 {
		t.Fatalf("absent-collector sample = %v, want 0", got)
	}
}

// TestHealthRuleFiresTrigger closes the probe->rule->trigger loop on a
// measured degradation: the engine fires exactly once while the host
// stays unhealthy (edge-triggered hysteresis), the decision input being
// the health sweep, not a declared resource number.
func TestHealthRuleFiresTrigger(t *testing.T) {
	hm := host.NewHealthMonitor("m2")
	cpuFree := 0.9
	hm.Register(host.NewCPUCollector(host.NewResources(10_000, cpuFree, 1.0), 0.2, 0.05))
	res := host.NewResources(10_000, 0.9, 1.0)
	hm.Register(host.CollectorFunc{CollectorName: "cpu", Fn: func() host.CheckResult {
		return host.CheckResult{Verdict: gradeOf(res.CPUFree()), Reason: "cpu"}
	}})
	hm.Check()

	var fired []core.Trigger
	e := New(0, func(_ string, tr core.Trigger) bool { fired = append(fired, tr); return true })
	e.AddProbe(HealthProbe("m2-health", hm))
	e.AddRule(Rule{
		Name:      "cpu-health-drop",
		Probe:     "m2-health",
		Cond:      Above,
		Threshold: 1.5, // unhealthy only
		Trigger:   core.TrigCPUDrop,
	})

	e.Poll()
	if len(fired) != 0 {
		t.Fatalf("trigger fired while healthy: %v", fired)
	}
	res.SetCPUFree(0.01)
	hm.Check()
	e.Poll()
	e.Poll() // still unhealthy: must not refire
	if len(fired) != 1 || fired[0] != core.TrigCPUDrop {
		t.Fatalf("fired = %v, want exactly one cpu-drop", fired)
	}
}

func gradeOf(cpuFree float64) host.Verdict {
	switch {
	case cpuFree < 0.05:
		return host.Unhealthy
	case cpuFree < 0.2:
		return host.Degraded
	default:
		return host.Healthy
	}
}
