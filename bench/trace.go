package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"resilientft/internal/appstate"
	"resilientft/internal/ftm"
	"resilientft/internal/rpc"
	"resilientft/internal/stablestore"
	"resilientft/internal/transport"
)

// Span names: one per layer boundary the benchmark decorates. The parent
// of each is fixed by where the call is made from.
const (
	spanInvoke       = "rpc.invoke"             // the client's Invoke, recorded by the generator
	spanClientCall   = "transport.client_call"  // client endpoint Call carrying the request
	spanServe        = "ftm.serve"              // a replica's handler for client requests
	spanProcess      = "app.process"            // Application.Process
	spanCaptureDelta = "appstate.capture_delta" // DeltaCapturer.CaptureDelta
	spanShipCall     = "transport.ship_call"    // replica endpoint Call to its peer
	spanSlaveHandle  = "ftm.slave_handle"       // the peer's handler for replica traffic
	spanApplyDelta   = "appstate.apply_delta"   // DeltaCapturer.ApplyDelta
	spanCommit       = "stablestore.commit"     // Store.Commit
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// from the tracer's epoch. Req is ClientID#Seq where the boundary can
// see the request; the others are attached by containment.
type span struct {
	Name       string
	Start, End int64
	Req        string
	// Parent indexes the enclosing span in the sorted slice, -1 for a
	// root; Covered, on a ship or apply span, counts the client requests
	// in service while it ran. Both are filled by link.
	Parent  int
	Covered int
}

// tracer collects spans and boundary counts in memory; nothing is
// written until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// from is the earliest start a span may have to be kept: reset moves
	// it to now, so that warm-up work is dropped whole.
	from int64

	// Counted at the decorated boundaries, where the work happens.
	ships      atomic.Int64 // Calls carrying replica traffic
	deltaBytes atomic.Int64 // bytes CaptureDelta produced
	// masterMsgs and masterBytes count frames and payload bytes through
	// the master's endpoint, both directions.
	masterMsgs  atomic.Int64
	masterBytes atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) record(name, req string, start, end time.Time) {
	s := span{Name: name, Req: req, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: -1}
	t.mu.Lock()
	if s.Start >= t.from {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// reset drops everything recorded so far and everything that started
// before now (warm-up).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.from = int64(time.Since(t.epoch))
	t.mu.Unlock()
	t.ships.Store(0)
	t.deltaBytes.Store(0)
	t.masterMsgs.Store(0)
	t.masterBytes.Store(0)
}

// tracedEndpoint decorates a transport.Endpoint: spans around the calls
// it makes and the handlers it runs, named by message kind, and frame
// and byte counts when it is the master's.
type tracedEndpoint struct {
	transport.Endpoint
	t      *tracer
	master bool
}

func (e *tracedEndpoint) count(frames int, bytes int) {
	if e.master {
		e.t.masterMsgs.Add(int64(frames))
		e.t.masterBytes.Add(int64(bytes))
	}
}

// requestID decodes the identity of the client request in payload.
func requestID(payload []byte) string {
	var req rpc.Request
	if err := transport.Decode(payload, &req); err != nil {
		return ""
	}
	return req.ID()
}

func (e *tracedEndpoint) Call(ctx context.Context, to transport.Address, kind string, payload []byte) ([]byte, error) {
	name, req := "", ""
	switch kind {
	case rpc.KindRequest:
		name, req = spanClientCall, requestID(payload)
	case ftm.KindReplica:
		name = spanShipCall
		e.t.ships.Add(1)
	}
	start := time.Now()
	reply, err := e.Endpoint.Call(ctx, to, kind, payload)
	if name != "" {
		e.t.record(name, req, start, time.Now())
	}
	e.count(2, len(payload)+len(reply))
	return reply, err
}

func (e *tracedEndpoint) Send(ctx context.Context, to transport.Address, kind string, payload []byte) error {
	e.count(1, len(payload))
	return e.Endpoint.Send(ctx, to, kind, payload)
}

func (e *tracedEndpoint) Handle(kind string, h transport.Handler) {
	if h == nil {
		e.Endpoint.Handle(kind, nil)
		return
	}
	name := ""
	switch kind {
	case rpc.KindRequest:
		name = spanServe
	case ftm.KindReplica:
		name = spanSlaveHandle
	}
	e.Endpoint.Handle(kind, func(ctx context.Context, p transport.Packet) ([]byte, error) {
		req := ""
		if kind == rpc.KindRequest {
			req = requestID(p.Payload)
		}
		start := time.Now()
		reply, err := h(ctx, p)
		if name != "" {
			e.t.record(name, req, start, time.Now())
		}
		frames := 1
		if reply != nil || err != nil {
			frames = 2
		}
		e.count(frames, len(p.Payload)+len(reply))
		return reply, err
	})
}

// tracedApp decorates an ftm.Application: a span around Process, and a
// decorated state manager.
type tracedApp struct {
	ftm.Application
	t   *tracer
	mgr appstate.Manager
}

func newTracedApp(app ftm.Application, t *tracer) *tracedApp {
	a := &tracedApp{Application: app, t: t, mgr: app.StateManager()}
	if dc, ok := a.mgr.(appstate.DeltaCapturer); ok {
		a.mgr = &tracedState{DeltaCapturer: dc, t: t}
	}
	return a
}

func (a *tracedApp) Process(op string, arg int64) (int64, int64, error) {
	start := time.Now()
	result, before, err := a.Application.Process(op, arg)
	a.t.record(spanProcess, "", start, time.Now())
	return result, before, err
}

func (a *tracedApp) StateManager() appstate.Manager { return a.mgr }

// tracedState decorates an appstate.DeltaCapturer.
type tracedState struct {
	appstate.DeltaCapturer
	t *tracer
}

func (s *tracedState) CaptureDelta(base uint64) ([]byte, uint64, bool, error) {
	start := time.Now()
	delta, to, ok, err := s.DeltaCapturer.CaptureDelta(base)
	s.t.record(spanCaptureDelta, "", start, time.Now())
	s.t.deltaBytes.Add(int64(len(delta)))
	return delta, to, ok, err
}

func (s *tracedState) ApplyDelta(delta []byte) (uint64, error) {
	start := time.Now()
	version, err := s.DeltaCapturer.ApplyDelta(delta)
	s.t.record(spanApplyDelta, "", start, time.Now())
	return version, err
}

// tracedStore decorates a stablestore.Store.
type tracedStore struct {
	stablestore.Store
	t *tracer
}

func (s *tracedStore) Commit(rec stablestore.ConfigRecord) error {
	start := time.Now()
	err := s.Store.Commit(rec)
	s.t.record(spanCommit, "", start, time.Now())
	return err
}

// link sorts spans by start and gives each its parent: the innermost
// span still open when it starts. With one request in flight the spans
// of a request nest strictly, so this reconstructs the call tree; a
// child that outlives its parent is clipped to it when self times are
// taken. Ship and apply spans also get Covered: how many request
// handlers were open when they started.
func link(spans []span) []span {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	var stack []int
	for i := range spans {
		for len(stack) > 0 && spans[stack[len(stack)-1]].End <= spans[i].Start {
			stack = stack[:len(stack)-1]
		}
		spans[i].Parent = -1
		if len(stack) > 0 {
			spans[i].Parent = stack[len(stack)-1]
		}
		if n := spans[i].Name; n == spanShipCall || n == spanApplyDelta {
			for _, k := range stack {
				if spans[k].Name == spanServe {
					spans[i].Covered++
				}
			}
		}
		stack = append(stack, i)
	}
	return spans
}

// selfTimes returns, for linked spans, each span's self time: its
// duration minus the union of its children's intervals (clipped to its
// own). Indexed like spans.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	// covered[i] is how far into span i its children have been counted.
	covered := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		covered[i] = s.Start
	}
	// Children appear after their parent and in start order, so one
	// forward pass subtracts each child's not-yet-covered part.
	for _, s := range spans {
		p := s.Parent
		if p < 0 {
			continue
		}
		from, to := s.Start, s.End
		if from < covered[p] {
			from = covered[p]
		}
		if to > spans[p].End {
			to = spans[p].End
		}
		if to > from {
			self[p] -= to - from
			covered[p] = to
		}
	}
	return self
}

// budgetRow is one layer's line of the self-time budget.
type budgetRow struct {
	Span    string  `json:"span"`
	Count   int     `json:"count"`
	SelfUS  float64 `json:"self_us_per_request"`
	Share   float64 `json:"share"`
	TotalUS float64 `json:"total_us_per_request"`
}

// budget is the self-time budget of a one-client pass: per span name,
// the self time under rpc.invoke roots, per request. The rows sum to the
// rpc.invoke total by construction; Unaccounted is what is left after
// rounding and clipping, as a share.
type budget struct {
	Requests    int         `json:"requests"`
	InvokeUS    float64     `json:"rpc_invoke_us_per_request"`
	Rows        []budgetRow `json:"rows"`
	Unaccounted float64     `json:"unaccounted_share"`
}

// makeBudget attributes every nanosecond of the rpc.invoke spans to the
// innermost layer that was running.
func makeBudget(spans []span) budget {
	spans = link(spans)
	self := selfTimes(spans)
	// underInvoke[i]: span i descends from an rpc.invoke root.
	under := make([]bool, len(spans))
	type agg struct {
		count       int
		self, total int64
	}
	by := map[string]*agg{}
	var b budget
	var invokeTotal int64
	for i, s := range spans {
		if s.Parent < 0 {
			under[i] = s.Name == spanInvoke
		} else {
			under[i] = under[s.Parent]
		}
		if !under[i] {
			continue
		}
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.count++
		a.self += self[i]
		a.total += s.End - s.Start
		if s.Name == spanInvoke {
			b.Requests++
			invokeTotal += s.End - s.Start
		}
	}
	if b.Requests == 0 {
		return b
	}
	n := float64(b.Requests) * 1e3 // ns over requests -> us per request
	b.InvokeUS = float64(invokeTotal) / n
	var sum int64
	for name, a := range by {
		sum += a.self
		b.Rows = append(b.Rows, budgetRow{
			Span: name, Count: a.count,
			SelfUS: float64(a.self) / n, TotalUS: float64(a.total) / n,
			Share: float64(a.self) / float64(invokeTotal),
		})
	}
	sort.Slice(b.Rows, func(i, j int) bool { return b.Rows[i].SelfUS > b.Rows[j].SelfUS })
	b.Unaccounted = float64(invokeTotal-sum) / float64(invokeTotal)
	return b
}

func (b budget) self(name string) float64 {
	for _, r := range b.Rows {
		if r.Span == name {
			return r.SelfUS
		}
	}
	return 0
}

// writeSpans dumps linked spans as CSV, at most limit of them.
func writeSpans(path string, spans []span, limit int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %d spans recorded, first %d written\nindex,name,start_ns,end_ns,parent,req,covered\n", len(spans), min(limit, len(spans)))
	for i, s := range spans {
		if i >= limit {
			break
		}
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%s,%d\n", i, s.Name, s.Start, s.End, s.Parent, s.Req, s.Covered)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
