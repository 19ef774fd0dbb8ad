// Command bench is the repository's benchmark: it boots resilientd
// master/slave pairs as separate processes over loopback TCP, drives them
// through the shipped client stack with open- and closed-loop load,
// through live FTM transitions and master kills, checks every reply
// against a shadow model, and reports end-to-end metrics (-trace 0) or a
// per-layer budget (-trace 1). See README.md beside this file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// RunResult is one run of one workload.
type RunResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	// LoadAvg is the 1-minute load average just before the run; a run
	// taken on a busy box says so itself.
	LoadAvg float64 `json:"loadavg_before"`
	// Valid is false when the generator, not the system, shaped the
	// numbers (it ran late or took too much CPU); -compare skips such runs.
	Valid    bool     `json:"valid"`
	Warnings []string `json:"warnings,omitempty"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`

	SteadySec   float64     `json:"steady_s"`
	AdaptSec    float64     `json:"adapt_s"`
	FailoverSec float64     `json:"failover_s"`
	Windows     int         `json:"windows"`
	Transitions int         `json:"transitions_done"`
	Kills       int         `json:"kill_cycles_done"`
	Audit       auditResult `json:"audit"`

	Metrics map[string]Metric `json:"metrics"`
	// Budget, on a traced run, is the one-client pass's self-time budget;
	// SpansFile is where its spans were written.
	Budget    *budget `json:"budget,omitempty"`
	SpansFile string  `json:"spans_file,omitempty"`
}

// Provenance says what produced a set of results, so that two sets can
// be compared knowingly.
type Provenance struct {
	Commit     string `json:"commit"`
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Set is what one invocation writes: its provenance and every run.
type Set struct {
	Provenance Provenance  `json:"provenance"`
	Runs       []RunResult `json:"runs"`
}

func collectProvenance() Provenance {
	p := Provenance{
		Commit:     "unknown",
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	// A checkout need not be a git repository; read HEAD by hand rather
	// than depend on git being installed.
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if sha, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
				ref = strings.TrimSpace(string(sha))
			}
		}
		p.Commit = ref
	}
	if v, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(v))
	}
	return p
}

func loadAvg() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	var v float64
	fmt.Sscan(string(data), &v)
	return v
}

// runOne runs one workload once, untraced (end-to-end metrics) or traced
// (per-layer metrics).
func runOne(ctx context.Context, e env, w Workload, seed int64, seconds int, traced bool) (RunResult, error) {
	res := RunResult{Workload: w.Name, Seed: seed, Seconds: seconds, Traced: traced, Valid: true, LoadAvg: loadAvg()}
	if res.LoadAvg > float64(runtime.NumCPU()) {
		res.Warnings = append(res.Warnings, fmt.Sprintf("load average %.2f exceeds %d cores before the run", res.LoadAvg, runtime.NumCPU()))
	}

	pairSeconds := seconds
	var budget traceBudget
	if traced {
		budget = splitTraceBudget(seconds)
		pairSeconds = budget.pairSeconds
	}
	pr, err := runPair(ctx, e, w, seed, pairSeconds)
	if err != nil {
		return res, err
	}
	e2e, layer, attempted, failed := pr.metrics()
	res.Attempted, res.Failed = attempted, failed
	res.SteadySec, res.AdaptSec, res.FailoverSec = pr.plan.Steady.Seconds(), pr.plan.Adapt.Seconds(), pr.plan.Failover.Seconds()
	res.Windows = pr.plan.Windows
	res.Transitions, res.Kills = len(pr.faults.Transitions), len(pr.cycles)
	res.Audit = pr.audit

	res.Correct = true
	fault := func(format string, args ...any) {
		res.Correct = false
		res.Warnings = append(res.Warnings, fmt.Sprintf(format, args...))
	}
	if a := pr.audit; a.Lost != 0 || a.Dup != 0 || a.ReadErrs != 0 {
		fault("audit: %d lost acked writes, %d duplicate executions, %d read errors", a.Lost, a.Dup, a.ReadErrs)
	}
	wrong, example := pr.wrongReplies()
	if wrong != 0 {
		fault("%d replies rejected by the shadow model, e.g. %v", wrong, example)
	}
	if res.Transitions != pr.plan.Transitions || res.Kills != pr.plan.Kills {
		fault("fault schedule incomplete: %d/%d transitions, %d/%d kill cycles", res.Transitions, pr.plan.Transitions, res.Kills, pr.plan.Kills)
	}
	if len(pr.strays) != 0 {
		fault("resilientd processes outlived the run: %v", pr.strays)
	}
	if pr.swaps != 0 {
		res.Warnings = append(res.Warnings, fmt.Sprintf("master and slave had swapped roles without a kill, %d times (a spurious failover)", pr.swaps))
	}
	if failed != 0 {
		res.Warnings = append(res.Warnings, fmt.Sprintf("%d of %d requests failed, e.g. %v", failed, attempted, example))
	}
	if late := layer["loadgen.late_p99_ms"].Value; late > lateBoundMs {
		res.Valid = false
		res.Warnings = append(res.Warnings, fmt.Sprintf("generator ran late: p99 %.3f ms > %.1f ms", late, lateBoundMs))
	}
	if share := layer["loadgen.cpu_share"].Value; w.Open && share > 0.5 {
		res.Valid = false
		res.Warnings = append(res.Warnings, fmt.Sprintf("generator used %.2f cores", share))
	}

	if !traced {
		res.Metrics = e2e
		return res, checkNames(res.Metrics, endToEnd)
	}
	tr, selfTimes, spansFile, err := runTraced(ctx, e, w, seed, budget)
	if err != nil {
		return res, err
	}
	for name, m := range tr {
		layer[name] = m
	}
	res.Budget, res.SpansFile = &selfTimes, spansFile
	res.Metrics = layer
	return res, checkNames(res.Metrics, perLayer)
}

// checkNames fails when the metrics produced are not exactly the
// catalogue's, or one of them is not a finite number.
func checkNames(got map[string]Metric, want []metricDef) error {
	var problems []string
	for _, d := range want {
		m, ok := got[d.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			problems = append(problems, d.Name+" is not finite")
		case m.Unit != d.Unit:
			problems = append(problems, fmt.Sprintf("%s has unit %q, catalogue says %q", d.Name, m.Unit, d.Unit))
		}
	}
	if len(got) > len(want) {
		known := map[string]bool{}
		for _, d := range want {
			known[d.Name] = true
		}
		for name := range got {
			if !known[name] {
				problems = append(problems, "not in catalogue: "+name)
			}
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metric catalogue mismatch: %s", strings.Join(problems, "; "))
	}
	return nil
}

// printRun writes the human-readable report of one run.
func printRun(out *os.File, res RunResult) {
	mode, defs := "end-to-end", endToEnd
	if res.Traced {
		mode, defs = "per-layer", perLayer
	}
	fmt.Fprintf(out, "\n== %s seed=%d seconds=%d %s: steady %.1fs in %d windows, adapt %.1fs (%d transitions), failover %.1fs (%d kill cycles)\n",
		res.Workload, res.Seed, res.Seconds, mode, res.SteadySec, res.Windows, res.AdaptSec, res.Transitions, res.FailoverSec, res.Kills)
	fmt.Fprintf(out, "   attempted=%d failed=%d lost_acked_writes=%d duplicate_executions=%d registers_audited=%d correct=%v valid=%v loadavg=%.2f\n",
		res.Attempted, res.Failed, res.Audit.Lost, res.Audit.Dup, res.Audit.Registers, res.Correct, res.Valid, res.LoadAvg)
	for _, d := range defs {
		m := res.Metrics[d.Name]
		line := fmt.Sprintf("   %-40s %14.4f %-6s", d.Name, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf(" n=%d", m.Samples)
		}
		if m.Beyond > 0 {
			line += fmt.Sprintf(" beyond=%d", m.Beyond)
		}
		if len(m.Series) > 1 {
			parts := make([]string, len(m.Series))
			for i, v := range m.Series {
				parts[i] = fmt.Sprintf("%.4g", v)
			}
			line += " [" + strings.Join(parts, " ") + "]"
		}
		fmt.Fprintln(out, line)
	}
	if b := res.Budget; b != nil && b.Requests > 0 {
		fmt.Fprintf(out, "   self-time budget, one client, %d requests: rpc.invoke = %.2f us per request\n", b.Requests, b.InvokeUS)
		for _, row := range b.Rows {
			fmt.Fprintf(out, "     %-26s self %9.2f us  %5.1f%%  (span total %9.2f us, %d spans)\n", row.Span, row.SelfUS, row.Share*100, row.TotalUS, row.Count)
		}
		fmt.Fprintf(out, "     unaccounted %.3f%%; spans in %s\n", b.Unaccounted*100, res.SpansFile)
	}
	for _, wmsg := range res.Warnings {
		fmt.Fprintf(out, "   warning: %s\n", wmsg)
	}
}

// driverLine is the contract's last line of standard output.
func driverLine(res RunResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]mv{}}
	for name, m := range res.Metrics {
		out.Metrics[name] = mv{m.Value, m.Unit}
	}
	data, _ := json.Marshal(out) // plain numbers, strings and bools cannot fail to marshal
	return string(data)
}

func writeSet(path string, set Set) error {
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload  = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Int64("seed", 1, "seed every input derives from")
		seconds   = flag.Int("seconds", runSeconds, "length of one measured run")
		trace     = flag.Int("trace", -1, "0: end-to-end metrics; 1: per-layer metrics from the traced run; -1 (with -workload all): both")
		repeats   = flag.Int("repeats", 1, "runs per workload, on seeds seed, seed+1, ...")
		out       = flag.String("out", "", "result file (default <work>/results/<name>.json)")
		daemonBin = flag.String("daemon", "", "path of the built resilientd (run.sh passes it)")
		work      = flag.String("work", ".bench_build", "directory for logs and results")
		compare   = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
		printJSON = flag.Bool("benchmark-json", false, "print BENCHMARK.json as the metric catalogue defines it")
	)
	flag.Parse()

	if *printJSON {
		os.Stdout.Write(benchmarkJSON())
		return 0
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *daemonBin == "" {
		fmt.Fprintln(os.Stderr, "bench: -daemon <path of resilientd> is required; run bench/run.sh, which builds it")
		return 2
	}
	bin, err := filepath.Abs(*daemonBin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	e := env{daemonBin: bin, logDir: filepath.Join(*work, "logs")}
	if err := os.MkdirAll(e.logDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	var selected []Workload
	if *workload == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*workload); ok {
		selected = []Workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	modes := []bool{*trace == 1}
	if *trace < 0 {
		modes = []bool{false, true}
	}

	// Daemons die with the benchmark however it ends: normal return,
	// panic, or a signal.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer killAllDaemons()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		killAllDaemons()
		os.Exit(130)
	}()

	set := Set{Provenance: collectProvenance()}
	fmt.Printf("bench: commit=%s go=%s kernel=%s nproc=%d gomaxprocs=%d\n", set.Provenance.Commit,
		set.Provenance.GoVersion, set.Provenance.Kernel, set.Provenance.NumCPU, set.Provenance.GOMAXPROCS)
	status := 0
	var last RunResult
	for _, traced := range modes {
		for _, w := range selected {
			for rep := 0; rep < *repeats; rep++ {
				res, err := runOne(ctx, e, w, *seed+int64(rep), *seconds, traced)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
					return 1
				}
				printRun(os.Stdout, res)
				if !res.Correct {
					status = 1
				}
				set.Runs = append(set.Runs, res)
				last = res
			}
		}
	}
	if stray := strayDaemons(e.daemonBin); len(stray) != 0 {
		fmt.Fprintf(os.Stderr, "bench: resilientd processes outlived the benchmark: %v\n", stray)
		status = 1
	}

	path := *out
	if path == "" {
		path = filepath.Join(*work, "results", fmt.Sprintf("%s-seed%d-trace%d.json", *workload, *seed, *trace))
	}
	if err := writeSet(path, set); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\nbench: results written to %s\n", path)
	if len(set.Runs) == 1 {
		// Driver mode: one run, its result as the last line.
		fmt.Println(driverLine(last))
	}
	return status
}
