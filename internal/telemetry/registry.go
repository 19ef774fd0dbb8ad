package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// metricKind discriminates the registry's metric families.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// metric is one registered series: a base name, an optional label set,
// and the instrument behind it.
type metric struct {
	name   string
	labels []string // alternating key, value; sorted by key
	kind   metricKind

	counter   *Counter
	gauge     *Gauge
	histogram *Histogram
}

// Registry is a named collection of metrics. Lookups create on first
// use, so instrumented packages declare their series as package vars
// and hot paths never touch the registry. All methods are safe for
// concurrent use.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric

	// collectors run before each export (Snapshot, WritePrometheus) so
	// pull-style sources — runtime metrics, anything sampled rather
	// than recorded — refresh their gauges at scrape time. Guarded by
	// its own mutex: a collector updates instruments, which takes mu.
	collectMu  sync.Mutex
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics: make(map[string]*metric),
	}
}

// defaultRegistry is the process-wide registry the instrumented
// packages record into; exporters (the /metrics endpoint, benchsuite
// counter dumps, ftmctl metrics) read from it.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// seriesKey builds the canonical identity of (name, labels). Labels are
// alternating key/value strings, sorted by key before hashing, so label
// order at the call site does not split a series in two.
func seriesKey(name string, labels []string) (string, []string) {
	if len(labels) == 0 {
		return name, nil
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: metric %q has odd label list %v", name, labels))
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, pair{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	sorted := make([]string, 0, len(labels))
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
		sorted = append(sorted, p.k, p.v)
	}
	b.WriteByte('}')
	return b.String(), sorted
}

// lookup returns the metric registered under (name, labels), creating
// it via make on first use. A kind clash on an existing key panics:
// metric identities are static properties of the program.
func (r *Registry) lookup(name string, labels []string, kind metricKind, make func(*metric)) *metric {
	key, sorted := seriesKey(name, labels)
	r.mu.RLock()
	m, ok := r.metrics[key]
	r.mu.RUnlock()
	if ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", key, kind, m.kind))
		}
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok = r.metrics[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", key, kind, m.kind))
		}
		return m
	}
	m = &metric{name: name, labels: sorted, kind: kind}
	make(m)
	r.metrics[key] = m
	return m
}

// Counter returns the counter registered under name and the given
// alternating label key/value pairs, creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.lookup(name, labels, kindCounter, func(m *metric) { m.counter = &Counter{} }).counter
}

// Gauge returns the gauge registered under name and labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.lookup(name, labels, kindGauge, func(m *metric) { m.gauge = &Gauge{} }).gauge
}

// Histogram returns the histogram registered under name and labels.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	return r.lookup(name, labels, kindHistogram, func(m *metric) { m.histogram = &Histogram{} }).histogram
}

// FindHistogram returns the histogram registered under (name, labels)
// without creating it, for probes that read someone else's series.
func (r *Registry) FindHistogram(name string, labels ...string) (*Histogram, bool) {
	key, _ := seriesKey(name, labels)
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.metrics[key]
	if !ok || m.kind != kindHistogram {
		return nil, false
	}
	return m.histogram, true
}

// FindCounter returns the counter registered under (name, labels)
// without creating it.
func (r *Registry) FindCounter(name string, labels ...string) (*Counter, bool) {
	key, _ := seriesKey(name, labels)
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.metrics[key]
	if !ok || m.kind != kindCounter {
		return nil, false
	}
	return m.counter, true
}

// Sample is one exported series value. Histograms flatten into count,
// sum and quantile upper bounds.
type Sample struct {
	// Name is the full series identity, labels included.
	Name string `json:"name"`
	// Kind is "counter", "gauge" or "histogram".
	Kind string `json:"kind"`
	// Value carries the counter/gauge reading.
	Value float64 `json:"value"`
	// Histogram-only fields, in nanoseconds where durations.
	Count uint64 `json:"count,omitempty"`
	SumNs uint64 `json:"sum_ns,omitempty"`
	P50Ns int64  `json:"p50_ns,omitempty"`
	P95Ns int64  `json:"p95_ns,omitempty"`
	P99Ns int64  `json:"p99_ns,omitempty"`
}

// OnCollect registers f to run before every export of the registry.
// Collectors must only record into instruments (Set, Observe, Add);
// they must not export the registry themselves.
func (r *Registry) OnCollect(f func()) {
	r.collectMu.Lock()
	r.collectors = append(r.collectors, f)
	r.collectMu.Unlock()
}

// runCollectors runs the registered pull-style sources. Serialized so
// two concurrent scrapes do not double-feed delta-replaying collectors.
func (r *Registry) runCollectors() {
	r.collectMu.Lock()
	defer r.collectMu.Unlock()
	for _, f := range r.collectors {
		f()
	}
}

// Snapshot returns every registered series, sorted by name.
func (r *Registry) Snapshot() []Sample {
	r.runCollectors()
	r.mu.RLock()
	metrics := make([]*metric, 0, len(r.metrics))
	keys := make([]string, 0, len(r.metrics))
	for key, m := range r.metrics {
		metrics = append(metrics, m)
		keys = append(keys, key)
	}
	r.mu.RUnlock()

	out := make([]Sample, 0, len(metrics))
	for i, m := range metrics {
		s := Sample{Name: keys[i], Kind: m.kind.String()}
		switch m.kind {
		case kindCounter:
			s.Value = float64(m.counter.Value())
		case kindGauge:
			s.Value = float64(m.gauge.Value())
		case kindHistogram:
			hs := m.histogram.Snapshot()
			s.Count = hs.Count
			s.SumNs = hs.SumNs
			s.P50Ns = hs.Quantile(0.50).Nanoseconds()
			s.P95Ns = hs.Quantile(0.95).Nanoseconds()
			s.P99Ns = hs.Quantile(0.99).Nanoseconds()
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Flatten renders the registry as a flat name→value map: counters and
// gauges directly, histograms as _count, _sum_ns, _p50_ns, _p95_ns and
// _p99_ns series. This is the shape benchsuite embeds in BENCH files.
func (r *Registry) Flatten() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range r.Snapshot() {
		switch s.Kind {
		case "histogram":
			out[s.Name+"_count"] = float64(s.Count)
			out[s.Name+"_sum_ns"] = float64(s.SumNs)
			out[s.Name+"_p50_ns"] = float64(s.P50Ns)
			out[s.Name+"_p95_ns"] = float64(s.P95Ns)
			out[s.Name+"_p99_ns"] = float64(s.P99Ns)
		default:
			out[s.Name] = s.Value
		}
	}
	return out
}

// labelString renders a label set (plus optional extra pair) in
// Prometheus brace syntax; empty when there are no labels.
func labelString(labels []string, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i := 0; i+1 < len(labels); i += 2 {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	if extraKey != "" {
		if !first {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every series in the Prometheus text exposition
// format (durations in seconds, as the conventions require). Histograms
// emit cumulative le buckets up to the highest occupied bucket, plus
// +Inf, _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.runCollectors()
	r.mu.RLock()
	metrics := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		metrics = append(metrics, m)
	}
	r.mu.RUnlock()
	sort.Slice(metrics, func(i, j int) bool {
		if metrics[i].name != metrics[j].name {
			return metrics[i].name < metrics[j].name
		}
		return labelString(metrics[i].labels, "", "") < labelString(metrics[j].labels, "", "")
	})

	typed := make(map[string]bool)
	for _, m := range metrics {
		if !typed[m.name] {
			typed[m.name] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind); err != nil {
				return err
			}
		}
		ls := labelString(m.labels, "", "")
		switch m.kind {
		case kindCounter:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", m.name, ls, m.counter.Value()); err != nil {
				return err
			}
		case kindGauge:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", m.name, ls, m.gauge.Value()); err != nil {
				return err
			}
		case kindHistogram:
			hs := m.histogram.Snapshot()
			top := 0
			for i, n := range hs.Buckets {
				if n > 0 {
					top = i
				}
			}
			var cum uint64
			for i := 0; i <= top; i++ {
				cum += hs.Buckets[i]
				le := float64(bucketUpperBound(i).Nanoseconds()) / 1e9
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					m.name, labelString(m.labels, "le", fmt.Sprintf("%g", le)), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				m.name, labelString(m.labels, "le", "+Inf"), hs.Count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", m.name, ls, float64(hs.SumNs)/1e9); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", m.name, ls, hs.Count); err != nil {
				return err
			}
		}
	}
	return nil
}
