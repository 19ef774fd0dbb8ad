package host

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"resilientft/internal/stablestore"
	"resilientft/internal/telemetry"
)

// Graded host health (the gpud model): instead of one crashed/alive
// bit, every resource dimension has its own collector producing a
// Healthy/Degraded/Unhealthy verdict with a machine-readable reason,
// and the host aggregates them worst-of into a report that remembers
// what caused the last transitions. The monitoring engine probes the
// aggregate; the adaptation engine reads the report to decide where
// replicas may live and which FTM the master can afford — measured
// state, not the declared numbers of the resource model.

// Verdict is a graded health state. The zero value is Healthy so an
// unchecked dimension never fails a host by default.
type Verdict int

const (
	// Healthy: the dimension is within its normal operating envelope.
	Healthy Verdict = iota
	// Degraded: usable but outside the envelope — adaptation should
	// prefer alternatives but need not act immediately.
	Degraded
	// Unhealthy: the dimension cannot support its role; adaptation
	// must route around the host.
	Unhealthy
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Unhealthy:
		return "unhealthy"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// MarshalJSON encodes the verdict as its name, so /health and mgmt
// replies read as words, not enum ordinals.
func (v Verdict) MarshalJSON() ([]byte, error) { return json.Marshal(v.String()) }

// UnmarshalJSON decodes a verdict name.
func (v *Verdict) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "healthy":
		*v = Healthy
	case "degraded":
		*v = Degraded
	case "unhealthy":
		*v = Unhealthy
	default:
		return fmt.Errorf("host: unknown verdict %q", s)
	}
	return nil
}

// CheckResult is one collector's output: the graded verdict plus a
// machine-readable reason of the form "field=value threshold=value"
// that operators and tests can parse without regexes over prose.
type CheckResult struct {
	Verdict Verdict `json:"verdict"`
	Reason  string  `json:"reason,omitempty"`
}

// Collector measures one health dimension of a host. Collect must be
// safe for concurrent use and cheap enough to run on a periodic sweep
// (it is never on the request hot path).
type Collector interface {
	Name() string
	Collect() CheckResult
}

// CollectorFunc adapts a closure into a named Collector.
type CollectorFunc struct {
	CollectorName string
	Fn            func() CheckResult
}

// Name returns the collector name.
func (c CollectorFunc) Name() string { return c.CollectorName }

// Collect runs the closure.
func (c CollectorFunc) Collect() CheckResult { return c.Fn() }

// CollectorStatus is one collector's latest result in a report.
type CollectorStatus struct {
	Name      string    `json:"name"`
	Verdict   Verdict   `json:"verdict"`
	Reason    string    `json:"reason,omitempty"`
	CheckedAt time.Time `json:"checked_at"`
}

// HealthTransition records one overall-verdict flip and its cause (the
// collector and reason that moved the needle).
type HealthTransition struct {
	Time  time.Time `json:"time"`
	From  Verdict   `json:"from"`
	To    Verdict   `json:"to"`
	Cause string    `json:"cause"`
}

// Report is a host's aggregated health: the worst-of overall verdict,
// every collector's latest result, and the recent transition causes.
type Report struct {
	Host        string             `json:"host"`
	Overall     Verdict            `json:"overall"`
	Collectors  []CollectorStatus  `json:"collectors"`
	Transitions []HealthTransition `json:"transitions,omitempty"`
	GeneratedAt time.Time          `json:"generated_at"`
}

// transitionHistory bounds the per-host flip log retained in reports.
const transitionHistory = 16

// Health-series metrics. The overall and per-collector gauges encode
// the verdict ordinal (0 healthy, 1 degraded, 2 unhealthy) so a flip
// is a visible step in any scrape; the transition counter splits by
// destination verdict.
func hostHealthGauge(host string) *telemetry.Gauge {
	return telemetry.Default().Gauge("host_health", "host", host)
}

func collectorHealthGauge(host, collector string) *telemetry.Gauge {
	return telemetry.Default().Gauge("host_health_collector", "host", host, "collector", collector)
}

func healthTransitionCounter(to Verdict) *telemetry.Counter {
	return telemetry.Default().Counter("host_health_transitions_total", "to", to.String())
}

// HealthMonitor aggregates a host's collectors into a graded report.
// Collectors may be registered at any time (the heartbeat-quality
// collector arrives only once a detector runs on the host).
type HealthMonitor struct {
	host string

	mu          sync.Mutex
	collectors  []Collector
	last        map[string]CollectorStatus
	overall     Verdict
	transitions []HealthTransition

	stop chan struct{}
	done chan struct{}
	now  func() time.Time
}

// NewHealthMonitor returns a monitor for the named host with no
// collectors registered.
func NewHealthMonitor(host string) *HealthMonitor {
	return &HealthMonitor{
		host: host,
		last: make(map[string]CollectorStatus),
		now:  time.Now,
	}
}

// Register adds a collector. A collector with the same name replaces
// the earlier registration (re-deployment refreshes the heartbeat
// collector rather than stacking stale ones).
func (m *HealthMonitor) Register(c Collector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, existing := range m.collectors {
		if existing.Name() == c.Name() {
			m.collectors[i] = c
			return
		}
	}
	m.collectors = append(m.collectors, c)
}

// Unregister removes the named collector and its last result.
func (m *HealthMonitor) Unregister(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, c := range m.collectors {
		if c.Name() == name {
			m.collectors = append(m.collectors[:i], m.collectors[i+1:]...)
			break
		}
	}
	delete(m.last, name)
}

// Check runs every collector once, updates the gauges, emits a trace
// event (and increments the transition counter) on every overall flip,
// and returns the fresh aggregate verdict.
func (m *HealthMonitor) Check() Verdict {
	m.mu.Lock()
	collectors := append([]Collector(nil), m.collectors...)
	now := m.now()
	m.mu.Unlock()

	// Collect outside the lock: a slow collector (a timed store probe)
	// must not block report reads.
	results := make([]CollectorStatus, 0, len(collectors))
	worst := Healthy
	cause := ""
	for _, c := range collectors {
		r := c.Collect()
		results = append(results, CollectorStatus{
			Name: c.Name(), Verdict: r.Verdict, Reason: r.Reason, CheckedAt: now,
		})
		if r.Verdict > worst {
			worst = r.Verdict
			cause = c.Name() + ": " + r.Reason
		}
		collectorHealthGauge(m.host, c.Name()).Set(int64(r.Verdict))
	}
	hostHealthGauge(m.host).Set(int64(worst))

	m.mu.Lock()
	for _, r := range results {
		m.last[r.Name] = r
	}
	prev := m.overall
	if worst != prev {
		m.overall = worst
		if cause == "" {
			cause = "all collectors healthy"
		}
		tr := HealthTransition{Time: now, From: prev, To: worst, Cause: cause}
		m.transitions = append(m.transitions, tr)
		if len(m.transitions) > transitionHistory {
			m.transitions = m.transitions[len(m.transitions)-transitionHistory:]
		}
		m.mu.Unlock()
		healthTransitionCounter(worst).Inc()
		telemetry.Emit("health", worst.String(), 0,
			"host", m.host, "from", prev.String(), "cause", cause)
		return worst
	}
	m.mu.Unlock()
	return worst
}

// Overall returns the aggregate verdict from the latest Check (Healthy
// before any).
func (m *HealthMonitor) Overall() Verdict {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.overall
}

// Report snapshots the latest results without re-running collectors.
func (m *HealthMonitor) Report() Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	rep := Report{
		Host:        m.host,
		Overall:     m.overall,
		GeneratedAt: m.now(),
	}
	// Report collectors in registration order for stable output.
	for _, c := range m.collectors {
		if st, ok := m.last[c.Name()]; ok {
			rep.Collectors = append(rep.Collectors, st)
		} else {
			rep.Collectors = append(rep.Collectors, CollectorStatus{Name: c.Name()})
		}
	}
	rep.Transitions = append([]HealthTransition(nil), m.transitions...)
	return rep
}

// Start begins periodic checks at the given interval (a conservative
// 1s when non-positive). The sweep runs off the request path entirely.
func (m *HealthMonitor) Start(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	m.mu.Lock()
	if m.stop != nil {
		m.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	m.stop, m.done = stop, done
	m.mu.Unlock()

	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				m.Check()
			}
		}
	}()
}

// Stop halts the periodic checks.
func (m *HealthMonitor) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// gradeLow grades a "higher is better" measurement against two floor
// thresholds.
func gradeLow(name string, value, degradedBelow, unhealthyBelow float64) CheckResult {
	switch {
	case value < unhealthyBelow:
		return CheckResult{Unhealthy, fmt.Sprintf("%s=%.3f min=%.3f", name, value, unhealthyBelow)}
	case value < degradedBelow:
		return CheckResult{Degraded, fmt.Sprintf("%s=%.3f low=%.3f", name, value, degradedBelow)}
	default:
		return CheckResult{Healthy, fmt.Sprintf("%s=%.3f", name, value)}
	}
}

// NewCPUCollector grades the resource model's free-CPU fraction.
func NewCPUCollector(res *Resources, degradedBelow, unhealthyBelow float64) Collector {
	return CollectorFunc{"cpu", func() CheckResult {
		return gradeLow("cpu_free", res.CPUFree(), degradedBelow, unhealthyBelow)
	}}
}

// NewBandwidthCollector grades the available bandwidth in kbit/s.
func NewBandwidthCollector(res *Resources, degradedBelowKbps, unhealthyBelowKbps float64) Collector {
	return CollectorFunc{"bandwidth", func() CheckResult {
		return gradeLow("bandwidth_kbps", res.Bandwidth(), degradedBelowKbps, unhealthyBelowKbps)
	}}
}

// NewEnergyCollector grades the remaining energy budget fraction.
func NewEnergyCollector(res *Resources, degradedBelow, unhealthyBelow float64) Collector {
	return CollectorFunc{"energy", func() CheckResult {
		return gradeLow("energy", res.Energy(), degradedBelow, unhealthyBelow)
	}}
}

// NewStableStoreCollector probes stable storage with a timed read and
// grades the measured latency and the store's fullness (committed
// records for system against softCap). A store that answers slowly is
// degraded before it is full; a failing read is unhealthy outright.
func NewStableStoreCollector(store stablestore.Store, system string, degradedLatency time.Duration, softCap int) Collector {
	if degradedLatency <= 0 {
		degradedLatency = 50 * time.Millisecond
	}
	if softCap <= 0 {
		softCap = 4096
	}
	return CollectorFunc{"stablestore", func() CheckResult {
		t0 := time.Now()
		recs, err := store.History(system)
		lat := time.Since(t0)
		if err != nil {
			return CheckResult{Unhealthy, fmt.Sprintf("read_err=%q", err)}
		}
		if lat >= 4*degradedLatency {
			return CheckResult{Unhealthy, fmt.Sprintf("latency=%s max=%s", lat, 4*degradedLatency)}
		}
		if lat >= degradedLatency {
			return CheckResult{Degraded, fmt.Sprintf("latency=%s slow=%s", lat, degradedLatency)}
		}
		if len(recs) >= softCap {
			return CheckResult{Degraded, fmt.Sprintf("records=%d cap=%d", len(recs), softCap)}
		}
		return CheckResult{Healthy, fmt.Sprintf("latency=%s records=%d", lat, len(recs))}
	}}
}

// NewHeartbeatCollector grades heartbeat quality from a φ source (the
// failure detector's suspicion level of its peer): the same accrual
// scale the detector suspects on, read as a health dimension so a host
// whose peer is drifting silent degrades before anything is evicted.
func NewHeartbeatCollector(phiOf func() float64, degradedPhi, unhealthyPhi float64) Collector {
	if degradedPhi <= 0 {
		degradedPhi = 4
	}
	if unhealthyPhi <= degradedPhi {
		unhealthyPhi = 2 * degradedPhi
	}
	return CollectorFunc{"heartbeat", func() CheckResult {
		phi := phiOf()
		switch {
		case phi >= unhealthyPhi:
			return CheckResult{Unhealthy, fmt.Sprintf("phi=%.2f max=%.2f", phi, unhealthyPhi)}
		case phi >= degradedPhi:
			return CheckResult{Degraded, fmt.Sprintf("phi=%.2f high=%.2f", phi, degradedPhi)}
		default:
			return CheckResult{Healthy, fmt.Sprintf("phi=%.2f", phi)}
		}
	}}
}

// defaultCollectors wires the declared-resource and stable-store
// dimensions every host has from boot. Thresholds are deliberately
// generous: the default envelope flags starvation, not load.
func defaultCollectors(h *Host) []Collector {
	return []Collector{
		NewCPUCollector(h.res, 0.20, 0.05),
		NewBandwidthCollector(h.res, 1000, 100),
		NewEnergyCollector(h.res, 0.20, 0.05),
		NewStableStoreCollector(h.store, "", 50*time.Millisecond, 4096),
	}
}
