package telemetry

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Causal tracing support. A trace is the end-to-end life of one client
// request: the client delivery, the master's Before/Proceed/After
// stages, the commit wave that covered it, the peer ship carrying the
// synchronization, the slave-side apply — and, after a failover, the
// replay of its logged reply. Every hop records a Span into a lock-free
// ring; a trace ID computed deterministically from the request identity
// (client ID + sequence number) makes a post-failover redelivery land in
// the *same* trace as the original execution, which is what lets the
// flight of one request be reassembled across replicas and incidents.
//
// The layer is built for the request hot path: an unsampled request
// carries a zero SpanContext and every span operation on it is a nil
// check; a sampled one costs one ring slot per span.

// SpanContext identifies a position in a trace: the trace and the span
// under which children nest. The zero value means "not sampled" and
// disables all downstream span recording.
type SpanContext struct {
	TraceID uint64 `json:"trace_id,string"`
	SpanID  uint64 `json:"span_id,string"`
}

// Valid reports whether the context belongs to a sampled trace.
func (c SpanContext) Valid() bool { return c.TraceID != 0 }

// String renders the context as "traceID-spanID" in hex — the form that
// travels in component message metadata.
func (c SpanContext) String() string {
	return fmt.Sprintf("%016x-%016x", c.TraceID, c.SpanID)
}

// ParseSpanContext parses the String form. Malformed input yields the
// zero (unsampled) context: trace metadata is advisory, never an error.
func ParseSpanContext(s string) SpanContext {
	if len(s) != 33 || s[16] != '-' {
		return SpanContext{}
	}
	tid, err1 := strconv.ParseUint(s[:16], 16, 64)
	sid, err2 := strconv.ParseUint(s[17:], 16, 64)
	if err1 != nil || err2 != nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: tid, SpanID: sid}
}

// TraceIDFor derives the trace ID of a request identity. It is a pure
// function of (clientID, seq), so every delivery attempt of one request
// — the original, a timeout retry, a post-failover redelivery — lands in
// the same trace, and a replayed reply links to the execution it
// replays. Never zero.
func TraceIDFor(clientID string, seq uint64) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(clientID))
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(seq >> (8 * i))
	}
	_, _ = h.Write(b[:])
	id := h.Sum64()
	if id == 0 {
		return 1
	}
	return id
}

// newSpanID returns a fresh nonzero span ID.
func newSpanID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// Span is one completed, timed segment of a trace.
type Span struct {
	TraceID uint64 `json:"trace_id,string"`
	SpanID  uint64 `json:"span_id,string"`
	// Parent is the span this one nests under (zero for trace roots).
	Parent uint64 `json:"parent_id,string,omitempty"`
	// Name identifies the segment ("rpc.client", "ftm.proceed",
	// "ftm.wave.ship", ...); the span catalogue is in the README.
	Name string `json:"name"`
	// Origin names the process/replica that recorded the span (set via
	// SetOrigin); it is what distinguishes master-side from slave-side
	// spans in an assembled cross-replica view.
	Origin string        `json:"origin,omitempty"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
	// Attrs carries span-specific context (op, kind, outcome, sizes).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Sampler is a counting sampler: it admits one trace in Every. It is a
// single atomic add on the hot path.
type Sampler struct {
	every atomic.Uint64
	n     atomic.Uint64
}

// NewSampler returns a sampler admitting one in every (0 disables
// sampling entirely, 1 samples everything).
func NewSampler(every uint64) *Sampler {
	s := &Sampler{}
	s.every.Store(every)
	return s
}

// SetEvery changes the sampling rate (0 = off, 1 = always, N = 1/N).
func (s *Sampler) SetEvery(every uint64) { s.every.Store(every) }

// Every returns the current rate.
func (s *Sampler) Every() uint64 { return s.every.Load() }

// Sample reports whether the next trace should be recorded.
func (s *Sampler) Sample() bool {
	switch e := s.every.Load(); e {
	case 0:
		return false
	case 1:
		return true
	default:
		return s.n.Add(1)%e == 1
	}
}

// DefaultSampleEvery is the default sampling rate: 1% of client
// requests, cheap enough to leave on permanently while still feeding
// the trace-derived probes under steady load.
const DefaultSampleEvery = 100

var defaultSampler = NewSampler(DefaultSampleEvery)

// DefaultSampler returns the process-wide sampler consulted by trace
// entry points (the rpc client).
func DefaultSampler() *Sampler { return defaultSampler }

// SpanRecorder retains the newest spans in a lock-free ring: writers
// claim a slot with one atomic add and publish with one atomic pointer
// store, so recording never blocks the request path and readers always
// see a complete span or none.
type SpanRecorder struct {
	ring   []atomic.Pointer[Span]
	pos    atomic.Uint64
	origin atomic.Pointer[string]
}

// DefaultSpanCapacity sizes the process-wide span recorder.
const DefaultSpanCapacity = 8192

// NewSpanRecorder returns a recorder retaining the last capacity spans
// (minimum 1).
func NewSpanRecorder(capacity int) *SpanRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &SpanRecorder{ring: make([]atomic.Pointer[Span], capacity)}
}

var defaultSpans = NewSpanRecorder(DefaultSpanCapacity)

// DefaultSpans returns the process-wide span recorder.
func DefaultSpans() *SpanRecorder { return defaultSpans }

// SetOrigin stamps every subsequently recorded span with the given
// origin (typically the replica's listen address or host name).
func (r *SpanRecorder) SetOrigin(origin string) { r.origin.Store(&origin) }

// Origin returns the configured origin ("" until set).
func (r *SpanRecorder) Origin() string {
	if p := r.origin.Load(); p != nil {
		return *p
	}
	return ""
}

// record publishes one completed span into the ring.
func (r *SpanRecorder) record(s Span) {
	if s.Origin == "" {
		s.Origin = r.Origin()
	}
	p := r.pos.Add(1)
	r.ring[(p-1)%uint64(len(r.ring))].Store(&s)
}

// Add records a completed span under parent with the given timing —
// the one-shot form used when there is no surrounding Start/End pair
// (wave coverage links, replays). It is a no-op on an invalid parent.
func (r *SpanRecorder) Add(parent SpanContext, name string, start time.Time, dur time.Duration, attrs ...string) {
	if !parent.Valid() {
		return
	}
	r.record(Span{
		TraceID: parent.TraceID,
		SpanID:  newSpanID(),
		Parent:  parent.SpanID,
		Name:    name,
		Start:   start,
		Dur:     dur,
		Attrs:   attrMap(attrs),
	})
}

// Start opens a span under parent. It returns nil — on which every
// ActiveSpan method is a safe no-op — when the parent context is not
// sampled, so call sites never branch on sampling themselves.
func (r *SpanRecorder) Start(parent SpanContext, name string, attrs ...string) *ActiveSpan {
	if !parent.Valid() {
		return nil
	}
	return &ActiveSpan{
		rec: r,
		span: Span{
			TraceID: parent.TraceID,
			SpanID:  newSpanID(),
			Parent:  parent.SpanID,
			Name:    name,
			Start:   time.Now(),
			Attrs:   attrMap(attrs),
		},
	}
}

// Spans returns the retained spans, oldest start time first.
func (r *SpanRecorder) Spans() []Span {
	out := make([]Span, 0, len(r.ring))
	for i := range r.ring {
		if s := r.ring[i].Load(); s != nil {
			out = append(out, *s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// ForTrace returns the retained spans of one trace, oldest first.
func (r *SpanRecorder) ForTrace(traceID uint64) []Span {
	if traceID == 0 {
		return nil
	}
	var out []Span
	for i := range r.ring {
		if s := r.ring[i].Load(); s != nil && s.TraceID == traceID {
			out = append(out, *s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Named returns the retained spans with the given name, oldest first.
func (r *SpanRecorder) Named(name string) []Span {
	var out []Span
	for i := range r.ring {
		if s := r.ring[i].Load(); s != nil && s.Name == name {
			out = append(out, *s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// ActiveSpan is a span being timed. The nil ActiveSpan is valid and
// inert: unsampled paths carry nil and pay only the pointer check.
type ActiveSpan struct {
	rec   *SpanRecorder
	span  Span
	ended atomic.Bool
}

// Context returns the context children should nest under (the zero
// context on a nil span).
func (s *ActiveSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.span.TraceID, SpanID: s.span.SpanID}
}

// SetAttr annotates the span. Call before End.
func (s *ActiveSpan) SetAttr(key, value string) {
	if s == nil {
		return
	}
	if s.span.Attrs == nil {
		s.span.Attrs = make(map[string]string, 4)
	}
	s.span.Attrs[key] = value
}

// End completes the span and records it. Safe to call more than once;
// only the first call records.
func (s *ActiveSpan) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.span.Dur = time.Since(s.span.Start)
	s.rec.record(s.span)
}

// attrMap builds an attribute map from alternating key/value pairs.
func attrMap(attrs []string) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs)/2)
	for i := 0; i+1 < len(attrs); i += 2 {
		m[attrs[i]] = attrs[i+1]
	}
	return m
}

// TraceJSON is the assembled view of one trace as served by the /trace
// endpoint and the management plane: the spans a single replica holds
// for that trace. ftmctl merges several replicas' views into the
// cross-replica picture.
type TraceJSON struct {
	TraceID uint64 `json:"trace_id,string"`
	Spans   []Span `json:"spans"`
}

// MarshalTrace renders one trace's local spans as JSON.
func MarshalTrace(traceID uint64, spans []Span) ([]byte, error) {
	return json.Marshal(TraceJSON{TraceID: traceID, Spans: spans})
}
