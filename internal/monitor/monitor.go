// Package monitor implements the Monitoring Engine of the resilient
// system architecture: probes sampling the resource state R (bandwidth,
// CPU, energy), observers counting error events (the non-functional
// behaviour analysis the paper describes), and threshold rules that turn
// probe readings into adaptation triggers with hysteresis so a noisy
// reading does not fire storms of triggers.
package monitor

import (
	"sort"
	"sync"
	"time"

	"resilientft/internal/core"
	"resilientft/internal/host"
)

// Probe samples one scalar of the system state.
type Probe interface {
	// Name identifies the probe in rules.
	Name() string
	// Sample reads the current value.
	Sample() float64
}

// ProbeFunc adapts a function to the Probe interface.
type ProbeFunc struct {
	ProbeName string
	Fn        func() float64
}

// Name returns the probe name.
func (p ProbeFunc) Name() string { return p.ProbeName }

// Sample calls the function.
func (p ProbeFunc) Sample() float64 { return p.Fn() }

// BandwidthProbe reads a host's available bandwidth.
func BandwidthProbe(name string, res *host.Resources) Probe {
	return ProbeFunc{ProbeName: name, Fn: res.Bandwidth}
}

// CPUFreeProbe reads a host's free CPU fraction.
func CPUFreeProbe(name string, res *host.Resources) Probe {
	return ProbeFunc{ProbeName: name, Fn: res.CPUFree}
}

// EnergyProbe reads a host's remaining energy budget.
func EnergyProbe(name string, res *host.Resources) Probe {
	return ProbeFunc{ProbeName: name, Fn: res.Energy}
}

// BusyFractionProbe samples the fraction of wall time spent busy since
// the previous sample, given a monotonically growing busy-time counter
// (e.g. component.InvocationMetrics.BusyTime). The first sample reports
// zero — measured load, not a configured value.
func BusyFractionProbe(name string, busy func() time.Duration) Probe {
	var mu sync.Mutex
	var lastBusy time.Duration
	var lastAt time.Time
	return ProbeFunc{ProbeName: name, Fn: func() float64 {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		b := busy()
		if lastAt.IsZero() {
			lastAt, lastBusy = now, b
			return 0
		}
		wall := now.Sub(lastAt)
		delta := b - lastBusy
		lastAt, lastBusy = now, b
		if wall <= 0 {
			return 0
		}
		f := float64(delta) / float64(wall)
		if f < 0 {
			return 0
		}
		if f > 1 {
			return 1
		}
		return f
	}}
}

// Condition relates a sample to a rule threshold.
type Condition int

// Conditions.
const (
	// Below fires while sample < threshold.
	Below Condition = iota + 1
	// Above fires while sample > threshold.
	Above
)

// Rule maps a probe condition to an adaptation trigger. The rule is
// edge-triggered with hysteresis: the condition must hold for Consecutive
// samples to fire, and must clear before the rule can fire again — the
// first line of defence against oscillation (§5.4). A rule whose trigger
// the sink failed to handle stays armed instead, and fires again on the
// next poll while the condition holds.
type Rule struct {
	// Name identifies the rule to the sink (default: the probe name).
	Name        string
	Probe       string
	Cond        Condition
	Threshold   float64
	Consecutive int
	Trigger     core.Trigger
}

func (r Rule) holds(sample float64) bool {
	if r.Cond == Below {
		return sample < r.Threshold
	}
	return sample > r.Threshold
}

// ruleState tracks a rule's hysteresis.
type ruleState struct {
	count int
	fired bool
}

// Sink receives each fired trigger with the name of the rule that fired
// it, and returns false when handling failed: that rule then fires again
// on the next poll while its condition holds.
type Sink func(rule string, t core.Trigger) bool

// Engine is the Monitoring Engine: it polls probes, evaluates rules and
// emits triggers to its sink (typically the Resilience Management
// Service).
type Engine struct {
	mu     sync.Mutex
	probes map[string]Probe
	rules  []Rule
	states []ruleState
	sink   Sink
	fired  []core.Trigger

	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
	started  bool
	once     sync.Once
}

// New returns an engine polling at interval and delivering triggers to
// sink (which may be nil; fired triggers are always also recorded).
func New(interval time.Duration, sink Sink) *Engine {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	return &Engine{
		probes:   make(map[string]Probe),
		sink:     sink,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// AddProbe registers a probe.
func (e *Engine) AddProbe(p Probe) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.probes[p.Name()] = p
}

// AddRule registers a rule. Consecutive defaults to 1.
func (e *Engine) AddRule(r Rule) {
	if r.Consecutive < 1 {
		r.Consecutive = 1
	}
	if r.Name == "" {
		r.Name = r.Probe
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rules = append(e.rules, r)
	e.states = append(e.states, ruleState{})
}

// Probes returns the registered probe names, sorted.
func (e *Engine) Probes() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.probes))
	for name := range e.probes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Poll evaluates every rule once against fresh samples and returns the
// triggers fired by this evaluation. Start calls it periodically; tests
// and deterministic experiments call it directly.
func (e *Engine) Poll() []core.Trigger {
	e.mu.Lock()
	type eval struct {
		rule  Rule
		probe Probe
		idx   int
	}
	evals := make([]eval, 0, len(e.rules))
	for i, r := range e.rules {
		p, ok := e.probes[r.Probe]
		if !ok {
			continue
		}
		evals = append(evals, eval{rule: r, probe: p, idx: i})
	}
	e.mu.Unlock()

	var out []core.Trigger
	var firing []eval
	for _, ev := range evals {
		sample := ev.probe.Sample()
		e.mu.Lock()
		st := &e.states[ev.idx]
		if ev.rule.holds(sample) {
			st.count++
			if st.count >= ev.rule.Consecutive && !st.fired {
				st.fired = true
				out = append(out, ev.rule.Trigger)
				firing = append(firing, ev)
				e.fired = append(e.fired, ev.rule.Trigger)
			}
		} else {
			st.count = 0
			st.fired = false
		}
		e.mu.Unlock()
	}
	if e.sink != nil {
		for _, ev := range firing {
			if !e.sink(ev.rule.Name, ev.rule.Trigger) {
				e.mu.Lock()
				e.states[ev.idx].fired = false
				e.mu.Unlock()
			}
		}
	}
	return out
}

// Fired returns every trigger emitted so far.
func (e *Engine) Fired() []core.Trigger {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]core.Trigger(nil), e.fired...)
}

// Start launches periodic polling.
func (e *Engine) Start() {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return
	}
	e.started = true
	e.mu.Unlock()
	go func() {
		defer close(e.done)
		ticker := time.NewTicker(e.interval)
		defer ticker.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-ticker.C:
				e.Poll()
			}
		}
	}()
}

// Stop halts periodic polling. Safe to call more than once; a never-
// started engine stops immediately.
func (e *Engine) Stop() {
	e.mu.Lock()
	started := e.started
	e.mu.Unlock()
	e.once.Do(func() { close(e.stop) })
	if started {
		<-e.done
	}
}

// ErrorObserver counts error events (exception rates, OS call errors,
// logged anomalies) over a sliding window; exposed as a probe it lets
// rules detect fault-model drift such as hardware aging.
type ErrorObserver struct {
	mu     sync.Mutex
	window time.Duration
	events []time.Time
	name   string
	now    func() time.Time
}

// NewErrorObserver returns an observer with the given probe name and
// window.
func NewErrorObserver(name string, window time.Duration) *ErrorObserver {
	return &ErrorObserver{name: name, window: window, now: time.Now}
}

var _ Probe = (*ErrorObserver)(nil)

// Report records one error event.
func (o *ErrorObserver) Report() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.events = append(o.events, o.now())
	o.gcLocked()
}

func (o *ErrorObserver) gcLocked() {
	cutoff := o.now().Add(-o.window)
	i := 0
	for i < len(o.events) && o.events[i].Before(cutoff) {
		i++
	}
	o.events = o.events[i:]
}

// Name returns the probe name.
func (o *ErrorObserver) Name() string { return o.name }

// Sample returns the number of error events within the window.
func (o *ErrorObserver) Sample() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.gcLocked()
	return float64(len(o.events))
}
