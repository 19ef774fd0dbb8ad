package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// traceBudget splits a traced run's seconds: most go to the run against
// the real pair (the P metrics), the rest to three in-process passes
// (the T metrics) and the timed loops (the M metrics).
type traceBudget struct {
	pairSeconds int
	pass        time.Duration // each in-process pass
	micro       time.Duration // each timed loop
}

func splitTraceBudget(seconds int) traceBudget {
	b := traceBudget{
		pass:  time.Duration(seconds) * time.Second / 12,
		micro: time.Duration(seconds) * time.Second / 240,
	}
	b.pass = clamp(b.pass, 300*time.Millisecond, 2*time.Second)
	b.micro = clamp(b.micro, 25*time.Millisecond, 100*time.Millisecond)
	// Three passes with their warm-up, about 25 timed loops, and slack
	// for assembling and tearing down the in-process pairs.
	rest := 3*(b.pass+500*time.Millisecond) + 25*b.micro + time.Second
	b.pairSeconds = seconds - int((rest+time.Second-1)/time.Second)
	if b.pairSeconds < minSeconds {
		b.pairSeconds = minSeconds
	}
	return b
}

func clamp(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// runTraced takes the T metrics (spans and counts from in-process
// passes) and the M metrics (timed loops).
//
// Pass A: one closed-loop client with w's op mix, traced. With one
// request in flight the spans nest unambiguously, which gives the
// self-time budget: rpc.invoke = the sum of the layers' self times.
// Pass A': the same, undecorated; the throughput ratio is the tracing
// overhead.
// Pass B: w's own load shape, traced, for what depends on concurrency:
// requests per ship, messages and bytes per request.
func runTraced(ctx context.Context, e env, w Workload, seed int64, b traceBudget) (out map[string]Metric, bud budget, spansFile string, err error) {
	out = map[string]Metric{}
	fail := func(err error) (map[string]Metric, budget, string, error) { return nil, bud, spansFile, err }

	solo := w
	solo.Open, solo.Clients, solo.Rate = false, 1, 0

	// Pass A.
	tA := newTracer(1 << 18)
	in, err := newInproc(ctx, w, tA)
	if err != nil {
		return fail(fmt.Errorf("traced pass: %w", err))
	}
	gA := in.pass(ctx, solo, seed, b.pass, tA)
	// Stable-store commits sit on the transition path only: run a few
	// transitions on the idle pair to see them.
	trErr := in.transitions(ctx, 2)
	in.close()
	if trErr != nil {
		return fail(trErr)
	}
	if err := passErr(gA); err != nil {
		return fail(fmt.Errorf("traced one-client pass: %w", err))
	}
	spans := tA.spans
	bud = makeBudget(spans)
	spansFile = filepath.Join(e.logDir, fmt.Sprintf("spans-%s-seed%d.csv", w.Name, seed))
	if err := writeSpans(spansFile, spans, 50_000); err != nil {
		return fail(err)
	}
	n := bud.Requests
	out["rpc.invoke_self_us"] = Metric{Value: bud.self(spanInvoke), Unit: "us", Samples: n}
	out["transport.client_call_self_us"] = Metric{Value: bud.self(spanClientCall), Unit: "us", Samples: n}
	out["ftm.serve_self_us"] = Metric{Value: bud.self(spanServe), Unit: "us", Samples: n}
	out["transport.ship_call_self_us"] = Metric{Value: bud.self(spanShipCall), Unit: "us", Samples: n}
	out["ftm.slave_handle_self_us"] = Metric{Value: bud.self(spanSlaveHandle), Unit: "us", Samples: n}
	out["app.process_us"] = Metric{Value: bud.self(spanProcess), Unit: "us", Samples: n}
	out["appstate.capture_delta_us"] = spanMedian(spans, spanCaptureDelta)
	out["appstate.apply_delta_us"] = spanMedian(spans, spanApplyDelta)
	out["stablestore.commit_us"] = spanMedian(spans, spanCommit)

	// Pass A'.
	in, err = newInproc(ctx, w, nil)
	if err != nil {
		return fail(fmt.Errorf("untraced pass: %w", err))
	}
	gU := in.pass(ctx, solo, seed, b.pass, nil)
	in.close()
	if err := passErr(gU); err != nil {
		return fail(fmt.Errorf("untraced one-client pass: %w", err))
	}
	traced, untraced := float64(ackedIn(gA)), float64(ackedIn(gU))
	out["bench.tracing_overhead_pct"] = Metric{Value: (untraced - traced) / untraced * 100, Unit: "%", Samples: int(untraced)}

	// Pass B.
	tB := newTracer(1 << 20)
	in, err = newInproc(ctx, w, tB)
	if err != nil {
		return fail(fmt.Errorf("traced pass: %w", err))
	}
	gB := in.pass(ctx, w, seed, b.pass, tB)
	in.close()
	if err := passErr(gB); err != nil {
		return fail(fmt.Errorf("traced %s pass: %w", w.Name, err))
	}
	ops := float64(ackedIn(gB))
	ships := float64(tB.ships.Load())
	if ships == 0 {
		ships = 1
	}
	out["ftm.ops_per_ship"] = Metric{Value: ops / ships, Unit: "count", Samples: int(ships)}
	out["transport.msgs_per_op"] = Metric{Value: float64(tB.masterMsgs.Load()) / ops, Unit: "count", Samples: int(ops)}
	out["transport.bytes_per_op"] = Metric{Value: float64(tB.masterBytes.Load()) / ops, Unit: "B", Samples: int(ops)}
	out["appstate.delta_bytes_per_op"] = Metric{Value: float64(tB.deltaBytes.Load()) / ops, Unit: "B", Samples: int(ops)}

	micro, err := runMicro(ctx, b.micro)
	if err != nil {
		return fail(fmt.Errorf("timed loops: %w", err))
	}
	for name, m := range micro {
		out[name] = m
	}
	return out, bud, spansFile, nil
}

// ackedIn counts the acknowledged requests of a pass's measured part.
func ackedIn(g *loadgen) int {
	n := 0
	for _, id := range g.ids {
		for _, s := range id.samples {
			if s.ok && s.start >= 0 {
				n++
			}
		}
	}
	return n
}

// passErr fails a pass in which any request failed or nothing was
// acknowledged: its spans would describe retries, not the request path.
func passErr(g *loadgen) error {
	if g.firstErr != nil {
		return g.firstErr
	}
	if ackedIn(g) == 0 {
		return fmt.Errorf("no request was acknowledged")
	}
	return nil
}

// spanMedian is the median duration (us) of the spans named name.
func spanMedian(spans []span, name string) Metric {
	var d []float64
	for _, s := range spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start)*1e-3)
		}
	}
	sort.Float64s(d)
	if len(d) == 0 {
		return Metric{Unit: "us"}
	}
	return Metric{Value: percentile(d, 0.5), Unit: "us", Samples: len(d)}
}
