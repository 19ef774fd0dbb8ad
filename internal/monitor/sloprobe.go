package monitor

// The SLO probe bridges the slo engine's conclusion into the rule
// engine, the same way health probes bridge graded verdicts: sampled
// as a plain float so threshold rules, hysteresis and triggers compose
// unchanged. The probe takes a closure rather than the engine itself —
// monitor stays ignorant of slo's types, and tests feed synthetic
// readings.

// SLOBreachProbe samples 1 while paging() holds (the shard's fast
// windows burn above the page threshold) and 0 otherwise, so a rule
// `Above 0.5, Consecutive N` fires after N confirmed paging polls.
// Wire it with the slo engine's Paging method:
//
//	monitor.SLOBreachProbe("slo-page-0", func() bool { return eng.Paging("0") })
func SLOBreachProbe(name string, paging func() bool) Probe {
	return ProbeFunc{ProbeName: name, Fn: func() float64 {
		if paging() {
			return 1
		}
		return 0
	}}
}
