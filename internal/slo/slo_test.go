package slo

import (
	"encoding/json"
	"testing"
	"time"

	"resilientft/internal/rpc"
	"resilientft/internal/telemetry"
)

func TestBudgetRingRollingSums(t *testing.T) {
	r := newBudgetRing(4, []int{2, 4})
	push := func(total, bad uint64) { r.push(tickBucket{total: total, bad: bad}) }

	push(10, 1)
	push(10, 2)
	if total, bad := r.window(0); total != 20 || bad != 3 {
		t.Fatalf("2-tick window = %d/%d, want 20/3", bad, total)
	}
	push(10, 3) // the (10,1) bucket leaves the 2-tick window
	if total, bad := r.window(0); total != 20 || bad != 5 {
		t.Fatalf("2-tick window after evict = %d/%d, want 20/5", bad, total)
	}
	if total, bad := r.window(1); total != 30 || bad != 6 {
		t.Fatalf("4-tick window = %d/%d, want 30/6", bad, total)
	}
	push(10, 4)
	push(10, 5) // wraps: (10,1) leaves the 4-tick window too
	if total, bad := r.window(1); total != 40 || bad != 14 {
		t.Fatalf("4-tick window after wrap = %d/%d, want 40/14", bad, total)
	}
	// Long-run check against a naive recompute.
	for i := 0; i < 37; i++ {
		push(uint64(i), uint64(i/2))
	}
	var wantTotal, wantBad uint64
	for i := 37 - 4; i < 37; i++ {
		wantTotal += uint64(i)
		wantBad += uint64(i / 2)
	}
	if total, bad := r.window(1); total != wantTotal || bad != wantBad {
		t.Fatalf("4-tick window = %d/%d, want %d/%d", bad, total, wantBad, wantTotal)
	}
}

func TestBurnRateMath(t *testing.T) {
	cases := []struct {
		name       string
		total, bad uint64
		budget     float64
		burn       float64
		remaining  float64
	}{
		{"zero traffic", 0, 0, 0.001, 0, 1},
		{"zero budget", 100, 10, 0, 0, 1},
		{"sustainable pace", 1000, 1, 0.001, 1, 0},
		{"exact exhaustion", 10, 1, 0.1, 1, 0},
		{"half budget", 1000, 5, 0.01, 0.5, 0.5},
		{"all bad", 10, 10, 0.001, 1000, 0},
	}
	for _, tc := range cases {
		if got := burnRate(tc.total, tc.bad, tc.budget); got != tc.burn {
			t.Errorf("%s: burn = %v, want %v", tc.name, got, tc.burn)
		}
		if got := budgetRemaining(tc.total, tc.bad, tc.budget); got != tc.remaining {
			t.Errorf("%s: remaining = %v, want %v", tc.name, got, tc.remaining)
		}
	}
	if got := complianceRatio(0, 0); got != 1 {
		t.Errorf("idle compliance = %v, want 1", got)
	}
	if got := complianceRatio(10, 1); got != 0.9 {
		t.Errorf("compliance = %v, want 0.9", got)
	}
}

// testEngine returns an engine over a private registry with tick-sized
// windows (fast 2/4 ticks, slow 8/16), plus the series the rpc layer
// would have recorded for shard "0".
func testEngine(t *testing.T, cfg Config) (*Engine, *telemetry.Histogram, *telemetry.Counter) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg.Registry = reg
	cfg.Interval = time.Second
	cfg.Windows = Windows{
		FastShort: 2 * time.Second,
		FastLong:  4 * time.Second,
		SlowShort: 8 * time.Second,
		SlowLong:  16 * time.Second,
	}
	e := New(cfg)
	e.SetObjective("0", Objective{LatencyP99: 1 << 20, Availability: 0.999})
	lat := reg.Histogram(rpc.ShardLatencySeries, "shard", "0")
	errs := reg.Counter(rpc.ShardResponsesSeries, "shard", "0", "status", "app-error")
	return e, lat, errs
}

const (
	fastReq = 1000 * time.Nanosecond    // well under the 1<<20 ns target
	slowReq = 4 << 20 * time.Nanosecond // well over it
)

func TestZeroTrafficNeverPages(t *testing.T) {
	e, _, _ := testEngine(t, Config{})
	for i := 0; i < 20; i++ {
		e.Tick()
	}
	snap, ok := e.Snapshot("0")
	if !ok {
		t.Fatal("shard missing")
	}
	if snap.Grade != GradeOK {
		t.Fatalf("idle shard graded %s", snap.Grade)
	}
	if snap.BudgetRemaining != 1 {
		t.Fatalf("idle budget remaining = %v, want 1", snap.BudgetRemaining)
	}
	for _, w := range snap.Windows {
		if w.Burn != 0 || w.Compliance != 1 {
			t.Fatalf("idle window %s: burn=%v compliance=%v", w.Window, w.Burn, w.Compliance)
		}
	}
}

func TestBaselinePriming(t *testing.T) {
	e, lat, errs := testEngine(t, Config{})
	// Traffic from before the first tick must not be charged.
	for i := 0; i < 100; i++ {
		lat.Observe(slowReq)
	}
	errs.Add(50)
	e.Tick()
	snap, _ := e.Snapshot("0")
	if snap.Windows[0].Bad != 0 || snap.Windows[0].Total != 0 {
		t.Fatalf("pre-engine traffic charged: %+v", snap.Windows[0])
	}
	if snap.Grade != GradeOK {
		t.Fatalf("graded %s off pre-engine traffic", snap.Grade)
	}
}

func TestPageOnFastBurnAndRecovery(t *testing.T) {
	var breaches []Breach
	e, lat, _ := testEngine(t, Config{
		OnBreach: func(b Breach) { breaches = append(breaches, b) },
	})
	// 100% slow traffic: burn = 1/0.001 = 1000 in every filled window.
	// Both fast windows carry bad traffic from the first tick, so the
	// page fires within two ticks of the breach starting.
	for i := 0; i < 3; i++ {
		for j := 0; j < 10; j++ {
			lat.Observe(slowReq)
		}
		e.Tick()
	}
	if !e.Paging("0") {
		t.Fatal("100% slow traffic did not page")
	}
	if snap, _ := e.Snapshot("0"); snap.Windows[1].Burn < 100 {
		t.Fatalf("burn = %v, want >> 14.4", snap.Windows[1].Burn)
	}
	if len(breaches) != 1 || breaches[0].Grade != GradePage {
		t.Fatalf("breaches = %+v, want one page", breaches)
	}
	if breaches[0].Shard != "0" || breaches[0].BurnShort <= 14.4 {
		t.Fatalf("breach detail wrong: %+v", breaches[0])
	}
	snap, _ := e.Snapshot("0")
	if snap.LastPage.IsZero() {
		t.Fatal("LastPage not stamped")
	}

	// Good traffic drains the fast windows: grade returns to OK without
	// a second breach event (edge-acting, not level-acting).
	for i := 0; i < 6; i++ {
		for j := 0; j < 10; j++ {
			lat.Observe(fastReq)
		}
		e.Tick()
	}
	if e.Paging("0") {
		t.Fatal("shard still paging after fast windows drained")
	}
	if len(breaches) != 1 {
		t.Fatalf("recovery fired a breach: %+v", breaches)
	}
}

func TestFlappingPagesEachEpisodeButThrottlesCapture(t *testing.T) {
	var captures int
	e, lat, _ := testEngine(t, Config{
		Capture:       func(Breach) { captures++ },
		CaptureMinGap: time.Hour,
	})
	reg := e.cfg.Registry
	drive := func(d time.Duration, ticks int) {
		for i := 0; i < ticks; i++ {
			for j := 0; j < 10; j++ {
				lat.Observe(d)
			}
			e.Tick()
		}
	}
	drive(slowReq, 3) // episode 1: page + capture
	if !e.Paging("0") {
		t.Fatal("episode 1 did not page")
	}
	drive(fastReq, 6) // recover
	if e.Paging("0") {
		t.Fatal("did not recover")
	}
	drive(slowReq, 3) // episode 2: page again, capture throttled
	if !e.Paging("0") {
		t.Fatal("episode 2 did not page")
	}
	pages, ok := reg.FindCounter("slo_breaches_total", "shard", "0", "grade", "page")
	if !ok || pages.Value() != 2 {
		t.Fatalf("page breaches = %v, want 2", pages)
	}
	if captures != 1 {
		t.Fatalf("captures = %d, want 1 (throttled by CaptureMinGap)", captures)
	}
	caps, ok := reg.FindCounter("slo_captures_total", "shard", "0")
	if !ok || caps.Value() != 1 {
		t.Fatalf("slo_captures_total = %v, want 1", caps)
	}
}

func TestExactBudgetExhaustionDoesNotPage(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := New(Config{Registry: reg, Interval: time.Second, Windows: Windows{
		FastShort: 2 * time.Second, FastLong: 4 * time.Second,
		SlowShort: 8 * time.Second, SlowLong: 16 * time.Second,
	}})
	// 90% availability: a steady 1-bad-in-10 is burn exactly 1.0 —
	// spending the whole budget at the sustainable pace, alert-free.
	e.SetObjective("0", Objective{LatencyP99: 1 << 20, Availability: 0.9})
	lat := reg.Histogram(rpc.ShardLatencySeries, "shard", "0")
	for i := 0; i < 20; i++ {
		lat.Observe(slowReq)
		for j := 0; j < 9; j++ {
			lat.Observe(fastReq)
		}
		e.Tick()
	}
	snap, _ := e.Snapshot("0")
	if snap.Grade != GradeOK {
		t.Fatalf("burn 1.0 graded %s, want ok", snap.Grade)
	}
	// The budget is 1-0.9 in floats, so burn lands within an ulp of 1.
	for _, w := range snap.Windows {
		if w.Burn < 1-1e-9 || w.Burn > 1+1e-9 {
			t.Fatalf("window %s burn = %v, want 1", w.Window, w.Burn)
		}
	}
	if snap.BudgetRemaining > 1e-9 {
		t.Fatalf("budget remaining = %v, want 0 (exhausted)", snap.BudgetRemaining)
	}
}

func TestErrorsCountAgainstBudgetOnce(t *testing.T) {
	e, lat, errs := testEngine(t, Config{})
	e.Tick() // prime both sources
	// 10 requests, all of them slow errors: the histogram observed all
	// 10 (slow) and the error counter grew by 10 — bad must cap at 10,
	// not double to 20.
	for j := 0; j < 10; j++ {
		lat.Observe(slowReq)
	}
	errs.Add(10)
	e.Tick()
	snap, _ := e.Snapshot("0")
	if snap.Windows[0].Total != 10 || snap.Windows[0].Bad != 10 {
		t.Fatalf("window = %d bad / %d total, want 10/10 (no double count)",
			snap.Windows[0].Bad, snap.Windows[0].Total)
	}
}

func TestWarnOnSlowBurn(t *testing.T) {
	reg := telemetry.NewRegistry()
	var breaches []Breach
	e := New(Config{
		Registry: reg, Interval: time.Second,
		Windows: Windows{
			FastShort: 2 * time.Second, FastLong: 4 * time.Second,
			SlowShort: 8 * time.Second, SlowLong: 16 * time.Second,
			PageBurn: 1e9, // unreachable: isolate the warn path
		},
		OnBreach: func(b Breach) { breaches = append(breaches, b) },
	})
	e.SetObjective("0", Objective{LatencyP99: 1 << 20, Availability: 0.999})
	lat := reg.Histogram(rpc.ShardLatencySeries, "shard", "0")
	for i := 0; i < 20; i++ {
		for j := 0; j < 10; j++ {
			lat.Observe(slowReq)
		}
		e.Tick()
	}
	snap, _ := e.Snapshot("0")
	if snap.Grade != GradeWarn {
		t.Fatalf("grade = %s, want warn", snap.Grade)
	}
	if len(breaches) != 1 || breaches[0].Grade != GradeWarn {
		t.Fatalf("breaches = %+v, want one warn", breaches)
	}
}

func TestSeriesExported(t *testing.T) {
	e, lat, _ := testEngine(t, Config{})
	for j := 0; j < 10; j++ {
		lat.Observe(fastReq)
	}
	e.Tick()
	e.Tick()
	reg := e.cfg.Registry
	flat := reg.Flatten()
	if flat[`slo_budget_remaining{shard="0"}`] != 1e6 {
		t.Fatalf("budget gauge = %v, want 1e6 ppm", flat[`slo_budget_remaining{shard="0"}`])
	}
	for _, w := range []string{"2s", "4s", "8s", "16s"} {
		burn := `slo_burn_rate{shard="0",window="` + w + `"}`
		comp := `slo_compliance_ratio{shard="0",window="` + w + `"}`
		if _, ok := flat[burn]; !ok {
			t.Fatalf("missing %s in %v", burn, flat)
		}
		if flat[comp] != 1e6 {
			t.Fatalf("%s = %v, want 1e6 ppm", comp, flat[comp])
		}
	}
}

func TestReportAndJSON(t *testing.T) {
	e, lat, _ := testEngine(t, Config{})
	e.SetObjective("1", Objective{})
	for j := 0; j < 10; j++ {
		lat.Observe(fastReq)
	}
	e.Tick()
	report := e.Report()
	if len(report) != 2 || report[0].Shard != "0" || report[1].Shard != "1" {
		t.Fatalf("report = %+v, want shards [0 1]", report)
	}
	if report[0].Ticks != 1 || len(report[0].Windows) != 4 {
		t.Fatalf("shard 0 row wrong: %+v", report[0])
	}
	data, err := e.ReportJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back []ShardSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Grade != GradeOK {
		t.Fatalf("JSON round trip lost data: %+v", back)
	}
	if grade, ok := e.ShardGrade("0"); !ok || grade != "ok" {
		t.Fatalf("ShardGrade = %q/%v", grade, ok)
	}
	if _, ok := e.ShardGrade("nope"); ok {
		t.Fatal("ShardGrade resolved an undeclared shard")
	}
}

func TestSetObjectiveRedeclareResetsAccounting(t *testing.T) {
	e, lat, _ := testEngine(t, Config{})
	for i := 0; i < 3; i++ {
		for j := 0; j < 10; j++ {
			lat.Observe(slowReq)
		}
		e.Tick()
	}
	if !e.Paging("0") {
		t.Fatal("precondition: shard should page")
	}
	e.SetObjective("0", Objective{LatencyP99: 1 << 30, Availability: 0.999})
	if e.Paging("0") {
		t.Fatal("redeclare kept the old grade")
	}
	snap, _ := e.Snapshot("0")
	if snap.Windows[0].Total != 0 {
		t.Fatal("redeclare kept the old accounting")
	}
}

func TestGradeJSON(t *testing.T) {
	for _, g := range []Grade{GradeOK, GradeWarn, GradePage} {
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		var back Grade
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != g {
			t.Fatalf("grade %s did not round trip", g)
		}
	}
}

func TestSlowFromIndex(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{1, 1},
		{1 << 20, 21}, // power of two: exact lower edge of its bucket
		{(1 << 20) + 1, 21},
		{(1 << 21) - 1, 21}, // conservative: same bucket as the target
		{1 << 62, 63},
	}
	for _, tc := range cases {
		if got := slowFromIndex(tc.d); got != tc.want {
			t.Errorf("slowFromIndex(%d) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestWindowLabel(t *testing.T) {
	cases := map[time.Duration]string{
		time.Minute:            "1m",
		5 * time.Minute:        "5m",
		30 * time.Minute:       "30m",
		6 * time.Hour:          "6h",
		10 * time.Second:       "10s",
		300 * time.Millisecond: "300ms",
		90 * time.Second:       "1m30s",
	}
	for d, want := range cases {
		if got := windowLabel(d); got != want {
			t.Errorf("windowLabel(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestStartStopTicksOnTimer(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := New(Config{Registry: reg, Interval: 5 * time.Millisecond})
	e.SetObjective("0", Objective{})
	e.Start()
	e.Start() // idempotent
	defer e.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if snap, _ := e.Snapshot("0"); snap.Ticks >= 2 {
			e.Stop()
			e.Stop() // idempotent
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("engine never ticked")
}
