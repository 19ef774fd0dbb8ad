package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"resilientft/internal/ftm"
	"resilientft/internal/rpc"
	"resilientft/internal/transport"
)

// sample is one request as the client saw it. Offsets are nanoseconds
// from the start of the measured run (negative during warm-up).
type sample struct {
	start int64 // due time (open loop) or send time (closed loop)
	lat   int64 // start to reply
	ok    bool
}

// identity is one client identity: its own rpc client (or router), the
// registers it alone writes, and the samples it collected. Only the
// identity's own goroutine touches regs and samples while the load runs.
type identity struct {
	invoke  func(ctx context.Context, reg int, read bool) (rpc.Response, error)
	regs    []regModel
	samples []sample
	wrong   int // replies the shadow model rejected
	jobs    chan openJob
}

type openJob struct {
	due  time.Duration // from generator start
	reg  int
	read bool
}

// loadgen drives one workload's traffic through the shipped client
// stack: one transport endpoint, hence one connection per daemon, shared
// by every identity.
type loadgen struct {
	w    Workload
	ids  []*identity
	one  []byte // the encoded argument 1, shared by every add
	t0   time.Time
	stop atomic.Bool
	// hold keeps new requests from being sent and inflight counts the ones
	// that are out: together they let the fault schedule empty the pipe
	// for the instant of a master kill (see quiesce).
	hold     atomic.Bool
	inflight atomic.Int64
	// late holds, per open-loop arrival, how long after its due time the
	// dispatcher got to it (nanoseconds), indexed like Plan.Arrivals.
	late []int64
	// tracer, in the traced in-process passes, gets one rpc.invoke span
	// per request.
	tracer *tracer
	// firstErr keeps one example of a failed request for the report.
	errMu    sync.Mutex
	firstErr error
}

// newLoadgen builds the workload's client identities over ep. Every
// identity gets its own rpc.Client — or, against sharded daemons, its
// own rpc.Router — exactly as an application process would. prefix
// names the identities and their registers: two generators against the
// same daemons need different ones, or the reply log would answer the
// second generator's first requests with the first one's replies.
func newLoadgen(w Workload, prefix string, ep transport.Endpoint, replicas []transport.Address) *loadgen {
	g := &loadgen{w: w, one: ftm.EncodeArg(1)}
	opts := []rpc.ClientOption{rpc.WithCallTimeout(callTimeout), rpc.WithMaxRounds(maxRounds)}
	var routes []rpc.ShardRoute
	for k := 0; k < w.Shards && w.Shards > 1; k++ {
		routes = append(routes, rpc.ShardRoute{ID: fmt.Sprint(k), Replicas: replicas})
	}
	for i := 0; i < w.Clients; i++ {
		id := &identity{regs: make([]regModel, w.Regs)}
		adds, gets, keys := make([]string, w.Regs), make([]string, w.Regs), make([]string, w.Regs)
		for r := range adds {
			keys[r] = fmt.Sprintf("%s%dr%d", prefix, i, r)
			adds[r], gets[r] = "add:"+keys[r], "get:"+keys[r]
		}
		op := func(reg int, read bool) string {
			if read {
				return gets[reg]
			}
			return adds[reg]
		}
		name := fmt.Sprintf("%s%d", prefix, i)
		if w.Shards > 1 {
			router := rpc.NewRouter(name, ep, routes, opts...)
			id.invoke = func(ctx context.Context, reg int, read bool) (rpc.Response, error) {
				return router.Invoke(ctx, keys[reg], op(reg, read), g.one)
			}
		} else {
			client := rpc.NewClient(name, ep, replicas, opts...)
			id.invoke = func(ctx context.Context, reg int, read bool) (rpc.Response, error) {
				return client.Invoke(ctx, op(reg, read), g.one)
			}
		}
		g.ids = append(g.ids, id)
	}
	return g
}

// do sends one request, checks the reply against the shadow model and
// records the sample. start is the instant latency counts from.
func (g *loadgen) do(ctx context.Context, id *identity, reg int, read bool, start time.Time) {
	g.enter()
	sent := time.Now()
	resp, err := id.invoke(ctx, reg, read)
	end := time.Now()
	g.inflight.Add(-1)
	if g.tracer != nil {
		g.tracer.record(spanInvoke, fmt.Sprintf("%s#%d", resp.ClientID, resp.Seq), sent, end)
	}
	ok := false
	m := &id.regs[reg]
	if err == nil {
		var v int64
		if v, err = ftm.DecodeResult(resp.Payload); err == nil {
			if err = m.check(read, v); err != nil {
				id.wrong++
				err = fmt.Errorf("%w, %.3f s into the measured run", err, end.Sub(g.t0).Seconds())
			}
		}
		ok = err == nil
	} else {
		m.failed(read)
	}
	if err != nil {
		g.errMu.Lock()
		if g.firstErr == nil {
			g.firstErr = err
		}
		g.errMu.Unlock()
	}
	id.samples = append(id.samples, sample{start: int64(start.Sub(g.t0)), lat: int64(end.Sub(start)), ok: ok})
}

// enter counts a request in, waiting first for as long as the generator
// is held. Counting before looking at hold is what closes the race with
// quiesce: a request either sees the hold, or is seen in flight.
func (g *loadgen) enter() {
	for {
		g.inflight.Add(1)
		if !g.hold.Load() {
			return
		}
		g.inflight.Add(-1)
		time.Sleep(200 * time.Microsecond)
	}
}

// quiesce holds new requests back and waits, at most limit, until none is
// in flight; resume lets them go again. Requests held keep their due
// time, so an open loop's latencies still count the wait.
//
// It exists for one defect of the commit this benchmark was built on (see
// README, "Found while building this"): a PBR master captures the state
// delta and then the reply-log tail of a checkpoint while other requests
// keep executing, so a request that executes between the two is shipped
// as a logged reply without its write. The next checkpoint repairs that,
// unless the master is killed first — then the retry is answered from the
// reply log and the write is gone. With no request in flight at the
// SIGKILL every acknowledged request was covered by its own wave's ship.
func (g *loadgen) quiesce(limit time.Duration) (resume func()) {
	g.hold.Store(true)
	for deadline := time.Now().Add(limit); g.inflight.Load() > 0 && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	return func() { g.hold.Store(false) }
}

// run generates load from now — plan.Warmup before t0, the start of the
// measured run — until stop is set, then returns once every in-flight
// request has completed. Whoever owns the fault schedule sets stop: how
// long a failover takes is not known beforehand.
func (g *loadgen) run(ctx context.Context, plan Plan, seed int64, t0 time.Time) {
	g.t0 = t0
	genStart := t0.Add(-plan.Warmup)
	var wg sync.WaitGroup
	if !g.w.Open {
		for i, id := range g.ids {
			wg.Add(1)
			go func(id *identity, ops *clientOps) {
				defer wg.Done()
				for !g.stop.Load() {
					reg, read := ops.next()
					g.do(ctx, id, reg, read, time.Now())
				}
			}(id, newClientOps(seed, i, g.w))
		}
		wg.Wait()
		return
	}

	// Open loop. Each identity waits on its own job channel; the free
	// list is FIFO, so arrivals rotate through all identities instead of
	// reusing the most recently freed few.
	free := make(chan *identity, len(g.ids))
	for _, id := range g.ids {
		id.jobs = make(chan openJob, 1)
		free <- id
		wg.Add(1)
		go func(id *identity) {
			defer wg.Done()
			for j := range id.jobs {
				g.do(ctx, id, j.reg, j.read, genStart.Add(j.due))
				free <- id
			}
		}(id)
	}
	g.late = make([]int64, len(plan.Arrivals))
	for n := 0; n < len(plan.Arrivals) && !g.stop.Load(); {
		a := plan.Arrivals[n]
		// Sleep, then dispatch everything that has come due; never spin:
		// on a 2-core box a spinning pacer starves the daemons it measures.
		if wait := a.Due - time.Since(genStart); wait > 0 {
			time.Sleep(wait)
			continue
		}
		g.late[n] = int64(time.Since(genStart) - a.Due)
		// All identities busy: the request waits for the first free one
		// and its latency still counts from its due time.
		id := <-free
		id.jobs <- openJob{due: a.Due, reg: a.Reg, read: a.Read}
		n++
	}
	for _, id := range g.ids {
		close(id.jobs)
	}
	wg.Wait()
}

// start runs the generator in the background, its measured run beginning
// plan.Warmup from now, and returns that instant and a channel closed
// when the generator has returned.
func (g *loadgen) start(ctx context.Context, plan Plan, seed int64) (t0 time.Time, done <-chan struct{}) {
	t0 = time.Now().Add(plan.Warmup)
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		g.run(ctx, plan, seed, t0)
	}()
	return t0, ch
}

// populate writes every register once, so that the measured run starts
// on the state size it will keep: the registers exist, every identity is
// in the reply log, and no window is cheaper than a later one only
// because the state was still growing.
func (g *loadgen) populate(ctx context.Context) error {
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	sem := make(chan struct{}, 16) // as many writers as the busiest workload has clients
	for _, id := range g.ids {
		wg.Add(1)
		sem <- struct{}{}
		go func(id *identity) {
			defer func() { <-sem; wg.Done() }()
			for r := range id.regs {
				resp, err := id.invoke(ctx, r, false)
				var v int64
				if err == nil {
					v, err = ftm.DecodeResult(resp.Payload)
				}
				if err == nil {
					err = id.regs[r].check(false, v)
				}
				if err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("populate register %d: %w", r, err)
					}
					mu.Unlock()
					return
				}
			}
		}(id)
	}
	wg.Wait()
	return first
}

// auditResult is the post-run read-back of every register.
type auditResult struct {
	Registers int   `json:"registers"`
	Lost      int64 `json:"lost_acked_writes"`
	Dup       int64 `json:"duplicate_executions"`
	ReadErrs  int   `json:"read_errors"`
}

func (a *auditResult) add(b auditResult) {
	a.Registers += b.Registers
	a.Lost += b.Lost
	a.Dup += b.Dup
	a.ReadErrs += b.ReadErrs
}

// audit reads every register back through the same clients (so from the
// current master) and compares it with the shadow model.
func (g *loadgen) audit(ctx context.Context) auditResult {
	var (
		mu  sync.Mutex
		res auditResult
		wg  sync.WaitGroup
	)
	// The identities are independent; a few readers in parallel keep a
	// 4096-register read-back well under a second.
	sem := make(chan struct{}, 16)
	for _, id := range g.ids {
		wg.Add(1)
		sem <- struct{}{}
		go func(id *identity) {
			defer func() { <-sem; wg.Done() }()
			var lost, dup int64
			errs := 0
			for r := range id.regs {
				resp, err := id.invoke(ctx, r, true)
				var v int64
				if err == nil {
					v, err = ftm.DecodeResult(resp.Payload)
				}
				if err != nil {
					errs++
					continue
				}
				l, d := id.regs[r].audit(v)
				lost, dup = lost+l, dup+d
			}
			mu.Lock()
			res.Registers += len(id.regs)
			res.Lost, res.Dup, res.ReadErrs = res.Lost+lost, res.Dup+dup, res.ReadErrs+errs
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	return res
}
