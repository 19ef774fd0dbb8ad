// Package slo turns the raw telemetry the request path records into
// objective-level conclusions: is each shard meeting its declared
// latency/availability objective, and how fast is it burning its
// error budget? It implements multi-window burn-rate evaluation in
// the Google SRE workbook style — a fast 1m/5m window pair that pages
// (both must burn above the page threshold, so a blip in one window
// cannot page alone) and a slow 30m/6h pair that warns — over an
// error-budget accounting ring fed from the per-shard rpc series.
//
// On a page-grade breach the engine fires its capture hook (the
// diagnostic bundle: flight-recorder black box plus pprof profiles,
// persisted via stablestore) and its breach hook. The engine only
// concludes and raises; what to *do* about a burning shard is decided
// by Resilience Management, whose monitor rules sample Paging and
// Snapshot, per the paper's separation of monitoring from adaptation.
package slo

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"time"

	"resilientft/internal/rpc"
	"resilientft/internal/telemetry"
)

// Objective is one shard's declarative service-level objective.
type Objective struct {
	// LatencyP99 is the p99 latency target: a request slower than this
	// violates the objective. The histogram's power-of-two buckets make
	// the slow count conservative within a factor of two for targets
	// that are not powers of two (the bucket containing the target
	// counts as slow); exact for power-of-two targets.
	LatencyP99 time.Duration `json:"latency_p99_ns"`
	// Availability is the target fraction of good requests over the
	// accounting window (e.g. 0.999). The error budget is its
	// complement.
	Availability float64 `json:"availability"`
}

func (o Objective) withDefaults() Objective {
	if o.LatencyP99 <= 0 {
		o.LatencyP99 = 50 * time.Millisecond
	}
	if o.Availability <= 0 || o.Availability >= 1 {
		o.Availability = 0.999
	}
	return o
}

// DefaultObjective is the objective shards get when none is declared:
// p99 under 50ms, 99.9% good requests.
func DefaultObjective() Objective { return Objective{}.withDefaults() }

// Windows configures the multi-window burn-rate evaluation. The
// fast pair pages (wake someone: the budget is burning so hot that
// hours remain), the slow pair warns (a ticket: sustained slow burn).
type Windows struct {
	FastShort time.Duration
	FastLong  time.Duration
	SlowShort time.Duration
	SlowLong  time.Duration
	// PageBurn and WarnBurn are the burn-rate thresholds; both windows
	// of a pair must exceed theirs for the grade to apply.
	PageBurn float64
	WarnBurn float64
}

// DefaultWindows returns the SRE-workbook shape: 1m/5m paging at
// 14.4x burn, 30m/6h warning at 6x.
func DefaultWindows() Windows {
	return Windows{
		FastShort: time.Minute,
		FastLong:  5 * time.Minute,
		SlowShort: 30 * time.Minute,
		SlowLong:  6 * time.Hour,
		PageBurn:  14.4,
		WarnBurn:  6,
	}
}

func (w Windows) withDefaults() Windows {
	d := DefaultWindows()
	if w.FastShort <= 0 {
		w.FastShort = d.FastShort
	}
	if w.FastLong <= 0 {
		w.FastLong = d.FastLong
	}
	if w.SlowShort <= 0 {
		w.SlowShort = d.SlowShort
	}
	if w.SlowLong <= 0 {
		w.SlowLong = d.SlowLong
	}
	if w.PageBurn <= 0 {
		w.PageBurn = d.PageBurn
	}
	if w.WarnBurn <= 0 {
		w.WarnBurn = d.WarnBurn
	}
	return w
}

// Grade is a shard's current SLO standing.
type Grade int8

const (
	GradeOK Grade = iota
	GradeWarn
	GradePage
)

func (g Grade) String() string {
	switch g {
	case GradeWarn:
		return "warn"
	case GradePage:
		return "page"
	default:
		return "ok"
	}
}

// MarshalJSON renders the grade as its name.
func (g Grade) MarshalJSON() ([]byte, error) { return json.Marshal(g.String()) }

// UnmarshalJSON parses a grade name; unknown names read as ok.
func (g *Grade) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "warn":
		*g = GradeWarn
	case "page":
		*g = GradePage
	default:
		*g = GradeOK
	}
	return nil
}

// Breach describes one grade elevation, handed to the hooks.
type Breach struct {
	Shard string
	Grade Grade
	// BurnShort and BurnLong are the burn rates of the window pair
	// that elevated the grade.
	BurnShort, BurnLong float64
	BudgetRemaining     float64
	At                  time.Time
}

// Config assembles an Engine.
type Config struct {
	// Registry is read for the per-shard series and written for the
	// slo_* series (default: the process registry).
	Registry *telemetry.Registry
	// Interval is the evaluation tick (default 1s). Every window is
	// measured in ticks, so shrinking it in tests shrinks real time.
	Interval time.Duration
	// Windows configures the burn-rate evaluation (zero fields take
	// the SRE-workbook defaults).
	Windows Windows
	// OnBreach runs on every grade elevation (warn and page), outside
	// the engine lock.
	OnBreach func(Breach)
	// Capture runs on page-grade elevations, throttled by
	// CaptureMinGap, outside the engine lock — the diagnostic-bundle
	// hook.
	Capture func(Breach)
	// CaptureMinGap is the minimum spacing between captures per shard
	// (default 1m): a flapping shard must not bury the incident log.
	CaptureMinGap time.Duration
}

// Engine evaluates objectives over the telemetry registry. Shards are
// declared with SetObjective; Tick evaluates all of them once (Start
// does so on a timer).
type Engine struct {
	cfg       Config
	winDurs   [4]time.Duration
	winTicks  [4]int
	winLabels [4]string

	mu     sync.Mutex
	shards map[string]*shardEval
	order  []string
	stop   chan struct{}
	done   chan struct{}
}

// New returns an engine; declare shards with SetObjective.
func New(cfg Config) *Engine {
	if cfg.Registry == nil {
		cfg.Registry = telemetry.Default()
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.CaptureMinGap <= 0 {
		cfg.CaptureMinGap = time.Minute
	}
	cfg.Windows = cfg.Windows.withDefaults()
	e := &Engine{cfg: cfg, shards: make(map[string]*shardEval)}
	e.winDurs = [4]time.Duration{cfg.Windows.FastShort, cfg.Windows.FastLong, cfg.Windows.SlowShort, cfg.Windows.SlowLong}
	for i, d := range e.winDurs {
		t := int(d / cfg.Interval)
		if t < 1 {
			t = 1
		}
		e.winTicks[i] = t
		e.winLabels[i] = windowLabel(d)
	}
	return e
}

// Interval returns the evaluation tick the engine was built with.
func (e *Engine) Interval() time.Duration { return e.cfg.Interval }

// SetObjective declares (or redeclares, resetting accounting) a
// shard's objective. The shard key is the value of the `shard` label
// on the rpc per-shard series — the group ID, or rpc.ShardLabel("")
// for the unsharded daemon's traffic.
func (e *Engine) SetObjective(shard string, obj Objective) {
	obj = obj.withDefaults()
	reg := e.cfg.Registry
	s := &shardEval{
		shard:    shard,
		obj:      obj,
		slowFrom: slowFromIndex(obj.LatencyP99),
		lat:      reg.HistogramHandle(rpc.ShardLatencySeries, "shard", shard),
		errs: [2]*telemetry.CounterHandle{
			reg.CounterHandle(rpc.ShardResponsesSeries, "shard", shard, "status", "app-error"),
			reg.CounterHandle(rpc.ShardResponsesSeries, "shard", shard, "status", "unavailable"),
		},
		ring:    newBudgetRing(e.winTicks[3], e.winTicks[:]),
		latWin:  newLatWindow(e.winTicks[1]),
		gBudget: reg.Gauge("slo_budget_remaining", "shard", shard),
		cPage:   reg.Counter("slo_breaches_total", "shard", shard, "grade", "page"),
		cWarn:   reg.Counter("slo_breaches_total", "shard", shard, "grade", "warn"),
		cCaps:   reg.Counter("slo_captures_total", "shard", shard),
	}
	// Gauges are integers, so ratio series pick a fixed grain (the
	// detector_phi_milli precedent): burn rates in thousandths,
	// compliance and budget in parts per million — 99.9% vs 99.99% is
	// the whole game.
	for i, label := range e.winLabels {
		s.gBurn[i] = reg.Gauge("slo_burn_rate", "shard", shard, "window", label)
		s.gComp[i] = reg.Gauge("slo_compliance_ratio", "shard", shard, "window", label)
	}
	s.gBudget.Set(ppm(1))
	e.mu.Lock()
	if _, ok := e.shards[shard]; !ok {
		e.order = append(e.order, shard)
		sort.Strings(e.order)
	}
	e.shards[shard] = s
	e.mu.Unlock()
}

// Shards returns the declared shard keys, sorted.
func (e *Engine) Shards() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.order...)
}

// Tick evaluates every declared shard once. Exported so tests and
// simulations drive evaluation deterministically; Start calls it on
// the configured interval. Hooks run after the lock is released.
func (e *Engine) Tick() {
	now := time.Now()
	e.mu.Lock()
	var fire []func()
	for _, name := range e.order {
		if f := e.shards[name].tick(e, now); f != nil {
			fire = append(fire, f...)
		}
	}
	e.mu.Unlock()
	for _, f := range fire {
		f()
	}
}

// Start ticks the engine on its interval until Stop.
func (e *Engine) Start() {
	e.mu.Lock()
	if e.stop != nil {
		e.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	e.stop, e.done = stop, done
	e.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(e.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				e.Tick()
			}
		}
	}()
}

// Stop halts the evaluation loop.
func (e *Engine) Stop() {
	e.mu.Lock()
	stop, done := e.stop, e.done
	e.stop, e.done = nil, nil
	e.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Paging reports whether the shard currently holds page grade — the
// reading an SLOBreachProbe samples.
func (e *Engine) Paging(shard string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.shards[shard]
	return ok && s.grade == GradePage
}

// WindowStat is one window's standing in a snapshot.
type WindowStat struct {
	Window     string  `json:"window"`
	Total      uint64  `json:"total"`
	Bad        uint64  `json:"bad"`
	Burn       float64 `json:"burn"`
	Compliance float64 `json:"compliance"`
}

// ShardSnapshot is one shard's full SLO standing: the /slo document's
// per-shard row and the reading the SLO recovery probe samples.
type ShardSnapshot struct {
	Shard           string        `json:"shard"`
	Objective       Objective     `json:"objective"`
	Grade           Grade         `json:"grade"`
	Windows         []WindowStat  `json:"windows"`
	BudgetRemaining float64       `json:"budget_remaining"`
	P99             time.Duration `json:"p99_ns"`
	LastPage        time.Time     `json:"last_page"`
	Captures        uint64        `json:"captures"`
	Ticks           uint64        `json:"ticks"`
}

// Snapshot returns one shard's standing.
func (e *Engine) Snapshot(shard string) (ShardSnapshot, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.shards[shard]
	if !ok {
		return ShardSnapshot{}, false
	}
	return s.snapshot(e), true
}

// Report returns every shard's standing, sorted by shard key.
func (e *Engine) Report() []ShardSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ShardSnapshot, 0, len(e.order))
	for _, name := range e.order {
		out = append(out, e.shards[name].snapshot(e))
	}
	return out
}

// ReportJSON renders Report as JSON — the /slo and OpSLO document.
func (e *Engine) ReportJSON() ([]byte, error) {
	return json.Marshal(e.Report())
}

// ShardGrade returns a shard's grade name, for roster rows.
func (e *Engine) ShardGrade(shard string) (string, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.shards[shard]
	if !ok {
		return "", false
	}
	return s.grade.String(), true
}

// shardEval is one shard's evaluation state.
type shardEval struct {
	shard    string
	obj      Objective
	slowFrom int

	lat  *telemetry.HistogramHandle
	errs [2]*telemetry.CounterHandle

	latPrimed bool
	lastLat   telemetry.HistogramSnapshot
	errPrimed bool
	lastErrs  uint64

	ring   *budgetRing
	latWin *latWindow

	burns       [4]float64
	grade       Grade
	ticks       uint64
	lastPage    time.Time
	lastCapture time.Time

	gBurn   [4]*telemetry.Gauge
	gComp   [4]*telemetry.Gauge
	gBudget *telemetry.Gauge
	cPage   *telemetry.Counter
	cWarn   *telemetry.Counter
	cCaps   *telemetry.Counter
}

// tick gathers one interval's traffic, pushes it through the ring,
// re-grades the shard and returns the hooks to fire (nil for none).
// The first reading of each source primes its baseline, so traffic
// from before the engine existed is not charged against the budget.
func (s *shardEval) tick(e *Engine, now time.Time) []func() {
	var b tickBucket
	if h, ok := s.lat.Get(); ok {
		snap := h.Snapshot()
		if !s.latPrimed {
			s.latPrimed = true
			s.lastLat = snap
		}
		delta := snap.Delta(s.lastLat)
		s.lastLat = snap
		b.total = delta.Count
		for i := s.slowFrom; i < len(delta.Buckets); i++ {
			b.bad += delta.Buckets[i]
		}
		s.latWin.push(delta)
	}
	var errs uint64
	for _, h := range s.errs {
		errs += h.Value()
	}
	if !s.errPrimed {
		s.errPrimed = true
		s.lastErrs = errs
	}
	if errs > s.lastErrs {
		// Errors are also observed by the latency histogram, so total
		// already includes them; a slow error must not count twice.
		b.bad += errs - s.lastErrs
	}
	s.lastErrs = errs
	if b.bad > b.total {
		b.bad = b.total
	}
	s.ring.push(b)
	s.ticks++

	budget := 1 - s.obj.Availability
	for i := range s.burns {
		total, bad := s.ring.window(i)
		s.burns[i] = burnRate(total, bad, budget)
		s.gBurn[i].Set(milli(s.burns[i]))
		s.gComp[i].Set(ppm(complianceRatio(total, bad)))
	}
	total, bad := s.ring.window(3)
	remaining := budgetRemaining(total, bad, budget)
	s.gBudget.Set(ppm(remaining))

	w := e.cfg.Windows
	grade := GradeOK
	if s.burns[2] > w.WarnBurn && s.burns[3] > w.WarnBurn {
		grade = GradeWarn
	}
	if s.burns[0] > w.PageBurn && s.burns[1] > w.PageBurn {
		grade = GradePage
	}

	var fire []func()
	if grade > s.grade {
		br := Breach{
			Shard: s.shard, Grade: grade, At: now,
			BurnShort: s.burns[0], BurnLong: s.burns[1],
			BudgetRemaining: remaining,
		}
		if grade == GradePage {
			s.cPage.Inc()
		} else {
			br.BurnShort, br.BurnLong = s.burns[2], s.burns[3]
			s.cWarn.Inc()
		}
		telemetry.Emit("slo", "breach", 0,
			"shard", s.shard, "grade", grade.String(),
			"burn_short", fmtBurn(br.BurnShort), "burn_long", fmtBurn(br.BurnLong),
			"budget_remaining", fmtBurn(remaining))
		if hook := e.cfg.OnBreach; hook != nil {
			fire = append(fire, func() { hook(br) })
		}
		if hook := e.cfg.Capture; hook != nil && grade == GradePage &&
			now.Sub(s.lastCapture) >= e.cfg.CaptureMinGap {
			s.lastCapture = now
			s.cCaps.Inc()
			fire = append(fire, func() { hook(br) })
		}
	}
	if grade == GradePage {
		// Recovery hysteresis measures quiet time from the *end* of the
		// paging episode, so the timestamp tracks every paging tick.
		s.lastPage = now
	}
	s.grade = grade
	return fire
}

func (s *shardEval) snapshot(e *Engine) ShardSnapshot {
	snap := ShardSnapshot{
		Shard:     s.shard,
		Objective: s.obj,
		Grade:     s.grade,
		P99:       s.latWin.p99(),
		LastPage:  s.lastPage,
		Captures:  s.cCaps.Value(),
		Ticks:     s.ticks,
	}
	budget := 1 - s.obj.Availability
	for i := range s.burns {
		total, bad := s.ring.window(i)
		snap.Windows = append(snap.Windows, WindowStat{
			Window:     e.winLabels[i],
			Total:      total,
			Bad:        bad,
			Burn:       s.burns[i],
			Compliance: complianceRatio(total, bad),
		})
	}
	total, bad := s.ring.window(3)
	snap.BudgetRemaining = budgetRemaining(total, bad, budget)
	return snap
}

// slowFromIndex maps a latency target onto the first histogram bucket
// counted as slow: the bucket whose range contains the target. For
// power-of-two targets the target is that bucket's lower edge and the
// count is exact; otherwise observations up to a factor of two below
// the target also count — conservative, never optimistic.
func slowFromIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	i := bits.Len64(uint64(d))
	if i > 63 {
		return 63
	}
	return i
}

// milli scales a ratio into thousandths for an integer gauge (the
// detector_phi_milli convention).
func milli(v float64) int64 { return int64(v * 1000) }

// ppm scales a ratio into parts per million for an integer gauge —
// compliance ratios need finer grain than milli (99.9% vs 99.99% is
// the whole game).
func ppm(v float64) int64 { return int64(v * 1e6) }

func fmtBurn(v float64) string { return fmt.Sprintf("%.2f", v) }

// windowLabel renders a window duration as a compact label ("1m",
// "6h", "300ms"): trailing zero components of the stdlib rendering
// ("1m0s", "6h0m0s") are dropped.
func windowLabel(d time.Duration) string {
	s := d.String()
	for len(s) > 2 {
		tail := s[len(s)-2:]
		if (tail != "0s" && tail != "0m") || isDigit(s[len(s)-3]) {
			break
		}
		s = s[:len(s)-2]
	}
	return s
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
