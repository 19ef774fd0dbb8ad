package resilience

import (
	"resilientft/internal/core"
	"resilientft/internal/monitor"
	"resilientft/internal/slo"
)

// SLO rules. A paging shard is an R-dimension bandwidth-drop trigger:
// from PBR that is the Figure 8 mandatory edge to LFR, which sheds
// checkpointing load and keeps crash tolerance. A shard that has paged
// and since held a clean grade with enough budget back for
// recoverPolls consecutive polls is a bandwidth-increase trigger: the
// possible edge back to PBR.
const (
	sloPageRule    = "slo-page"
	sloRecoverRule = "slo-recover"
	// recoverBudget is the budget_remaining fraction a shard must regain.
	recoverBudget = 0.5
	// recoverPolls is the quiet period in polls: 30s at the daemon's
	// default 1s -slo-interval.
	recoverPolls = 30
)

// SLOSignals is the slice of the slo engine the SLO rules read.
// *slo.Engine implements it; tests substitute fakes.
type SLOSignals interface {
	Paging(shard string) bool
	Snapshot(shard string) (slo.ShardSnapshot, bool)
}

// InstallSLORules adds the page and recovery probe/rule pairs for one
// slo shard key to mon, whose sink is the shard's Service.
func InstallSLORules(mon *monitor.Engine, src SLOSignals, shard string) {
	mon.AddProbe(monitor.SLOBreachProbe(sloPageRule, func() bool { return src.Paging(shard) }))
	mon.AddProbe(monitor.ProbeFunc{ProbeName: sloRecoverRule, Fn: func() float64 {
		snap, ok := src.Snapshot(shard)
		if ok && snap.Grade == slo.GradeOK && snap.BudgetRemaining >= recoverBudget && !snap.LastPage.IsZero() {
			return 1
		}
		return 0
	}})
	mon.AddRule(monitor.Rule{
		Name: sloPageRule, Probe: sloPageRule,
		Cond: monitor.Above, Threshold: 0.5,
		Trigger: core.TrigBandwidthDrop,
	})
	mon.AddRule(monitor.Rule{
		Name: sloRecoverRule, Probe: sloRecoverRule,
		Cond: monitor.Above, Threshold: 0.5, Consecutive: recoverPolls,
		Trigger: core.TrigBandwidthIncrease,
	})
}
