package main

import "testing"

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		worse, spread, bound float64
		want                 string
	}{
		{0.02, 0.03, 0.10, verdictOK},
		{-0.30, 0.03, 0.10, verdictOK}, // better is never worse
		{0.12, 0.03, 0.10, verdictWorse},
		{0.02, 0.15, 0.10, verdictUnresolved}, // the noise hides a change of the size of the bound
		{0.50, 0.15, 0.10, verdictUnresolved},
		{0.50, 0.90, 0, verdictOK}, // per-layer metrics have no bound
	} {
		if got := judge(tc.worse, tc.spread, tc.bound); got != tc.want {
			t.Errorf("judge(worse %v, spread %v, bound %v) = %s, want %s", tc.worse, tc.spread, tc.bound, got, tc.want)
		}
	}
}

func setOf(workload string, metric string, values ...float64) Set {
	var s Set
	for i, v := range values {
		s.Runs = append(s.Runs, RunResult{
			Workload: workload, Seed: int64(i), Valid: true, Correct: true,
			Metrics: map[string]Metric{metric: {Value: v, Unit: "ms"}},
		})
	}
	return s
}

func TestCompareSets(t *testing.T) {
	defs := []metricDef{{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}}
	base := setOf("open_pbr", "latency_p50_ms", 1.00, 1.01, 0.99, 1.02, 0.98)
	same := setOf("open_pbr", "latency_p50_ms", 1.01, 1.00, 1.02, 0.99, 1.00)
	slow := setOf("open_pbr", "latency_p50_ms", 1.20, 1.21, 1.19, 1.22, 1.18)
	wild := setOf("open_pbr", "latency_p50_ms", 0.70, 1.40, 1.00, 0.60, 1.50)

	rows, _ := compareSets(base, same, defs, false)
	if len(rows) != 1 || rows[0].Verdict != verdictOK {
		t.Errorf("same commit twice: %+v", rows)
	}
	rows, _ = compareSets(base, slow, defs, false)
	if rows[0].Verdict != verdictWorse || rows[0].Worse < 0.19 || rows[0].Worse > 0.21 {
		t.Errorf("20%% slower: %+v", rows[0])
	}
	rows, _ = compareSets(base, wild, defs, false)
	if rows[0].Verdict != verdictUnresolved {
		t.Errorf("spread wider than bound: %+v", rows[0])
	}

	// higher-is-better flips the sign.
	up := []metricDef{{Name: "latency_p50_ms", Unit: "ms", Better: "higher", Bound: 0.10}}
	rows, _ = compareSets(base, slow, up, false)
	if rows[0].Verdict != verdictOK || rows[0].Worse > 0 {
		t.Errorf("a higher-is-better metric that rose: %+v", rows[0])
	}

	// Invalid runs are left out, not averaged in.
	bad := setOf("open_pbr", "latency_p50_ms", 9.0)
	bad.Runs[0].Valid = false
	mixed := Set{Runs: append(bad.Runs, same.Runs...)}
	rows, skipped := compareSets(base, mixed, defs, false)
	if skipped != 1 || rows[0].RunsB != 5 || rows[0].Verdict != verdictOK {
		t.Errorf("invalid run not skipped: skipped=%d %+v", skipped, rows[0])
	}
}
