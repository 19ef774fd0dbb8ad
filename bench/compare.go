package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of one (metric, workload) comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is one row of -compare.
type comparison struct {
	Workload, Metric, Unit string
	A, B                   float64 // medians over the runs of each file
	RunsA, RunsB           int
	// Worse is how much worse B is than A as a share of A, in the
	// metric's own direction (negative: better). Spread is the run-to-run
	// spread as a share of the median: the inter-quartile range over the
	// runs when a side has four or more, otherwise over the windows or
	// repeats inside its single run.
	Worse, Spread, Bound float64
	Verdict              string
}

func loadSet(path string) (Set, error) {
	var set Set
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// valuesOf collects, per workload, the values a metric took over the
// usable runs of a set (untraced or traced), and the within-run series
// of the last such run.
func valuesOf(set Set, traced bool, metric string) (values map[string][]float64, series map[string][]float64, skipped int) {
	values, series = map[string][]float64{}, map[string][]float64{}
	for _, r := range set.Runs {
		if r.Traced != traced {
			continue
		}
		m, ok := r.Metrics[metric]
		if !ok {
			continue
		}
		if !r.Valid || !r.Correct {
			skipped++
			continue
		}
		values[r.Workload] = append(values[r.Workload], m.Value)
		series[r.Workload] = m.Series
	}
	return values, series, skipped
}

// spreadOf is the relative spread behind a median: over the runs when
// there are enough, else over the single run's own series.
func spreadOf(values, series []float64) float64 {
	vs := values
	if len(vs) < 4 {
		vs = series
	}
	if len(vs) < 4 {
		return 0
	}
	if m := median(vs); m != 0 {
		return iqr(vs) / m
	}
	return 0
}

// judge applies the rule: a spread wider than the bound cannot resolve a
// change of the size of the bound, so the verdict is unresolved, not ok.
func judge(worse, spread, bound float64) string {
	switch {
	case bound <= 0:
		return verdictOK // per-layer metrics carry no bound
	case spread > bound:
		return verdictUnresolved
	case worse > bound:
		return verdictWorse
	}
	return verdictOK
}

// compareSets compares B against baseline A, metric by metric and
// workload by workload.
func compareSets(a, b Set, defs []metricDef, traced bool) (rows []comparison, skipped int) {
	for _, d := range defs {
		va, sa, skipA := valuesOf(a, traced, d.Name)
		vb, sb, skipB := valuesOf(b, traced, d.Name)
		skipped += skipA + skipB
		var names []string
		for w := range va {
			if len(vb[w]) > 0 {
				names = append(names, w)
			}
		}
		sort.Strings(names)
		for _, w := range names {
			c := comparison{
				Workload: w, Metric: d.Name, Unit: d.Unit, Bound: d.Bound,
				A: median(va[w]), B: median(vb[w]), RunsA: len(va[w]), RunsB: len(vb[w]),
			}
			if c.A != 0 {
				c.Worse = (c.B - c.A) / c.A
				if d.Better == "higher" {
					c.Worse = -c.Worse
				}
			}
			c.Spread = spreadOf(va[w], sa[w])
			if s := spreadOf(vb[w], sb[w]); s > c.Spread {
				c.Spread = s
			}
			c.Verdict = judge(c.Worse, c.Spread, c.Bound)
			rows = append(rows, c)
		}
	}
	return rows, skipped
}

// compareFiles prints the comparison of two result files and returns the
// process exit code: 1 when an end-to-end metric is worse or unresolved.
func compareFiles(out io.Writer, pathA, pathB string) int {
	a, err := loadSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(out, "A: %s commit=%s %s nproc=%d\nB: %s commit=%s %s nproc=%d\n",
		pathA, a.Provenance.Commit, a.Provenance.Date, a.Provenance.NumCPU,
		pathB, b.Provenance.Commit, b.Provenance.Date, b.Provenance.NumCPU)

	bad := 0
	e2e, skipped := compareSets(a, b, endToEnd, false)
	fmt.Fprintf(out, "\nend-to-end (worse = B against A in the metric's direction; unresolved = spread wider than bound)\n")
	fmt.Fprintf(out, "%-22s %-26s %12s %12s %-6s %8s %8s %7s  %s\n", "workload", "metric", "A", "B", "unit", "worse", "spread", "bound", "verdict")
	for _, c := range e2e {
		fmt.Fprintf(out, "%-22s %-26s %12.4f %12.4f %-6s %+7.1f%% %7.1f%% %6.0f%%  %s (runs %d/%d)\n",
			c.Workload, c.Metric, c.A, c.B, c.Unit, c.Worse*100, c.Spread*100, c.Bound*100, c.Verdict, c.RunsA, c.RunsB)
		if c.Verdict != verdictOK {
			bad++
		}
	}
	layer, skippedLayer := compareSets(a, b, perLayer, true)
	if len(layer) > 0 {
		fmt.Fprintf(out, "\nper-layer (no bound; for attribution)\n")
		fmt.Fprintf(out, "%-22s %-40s %14s %14s %-6s %8s %8s\n", "workload", "metric", "A", "B", "unit", "worse", "spread")
		for _, c := range layer {
			fmt.Fprintf(out, "%-22s %-40s %14.4f %14.4f %-6s %+7.1f%% %7.1f%%\n",
				c.Workload, c.Metric, c.A, c.B, c.Unit, c.Worse*100, c.Spread*100)
		}
	}
	if n := skipped + skippedLayer; n > 0 {
		fmt.Fprintf(out, "\n%d metric values came from invalid or incorrect runs and were left out\n", n)
	}
	if len(e2e) == 0 {
		fmt.Fprintln(out, "\nthe two files share no end-to-end run to compare")
		return 2
	}
	if bad > 0 {
		fmt.Fprintf(out, "\n%d end-to-end comparisons are worse or unresolved\n", bad)
		return 1
	}
	fmt.Fprintln(out, "\nevery end-to-end comparison is ok")
	return 0
}
