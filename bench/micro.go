package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"resilientft/internal/adaptation"
	"resilientft/internal/appstate"
	"resilientft/internal/core"
	"resilientft/internal/ftm"
	"resilientft/internal/host"
	"resilientft/internal/rpc"
	"resilientft/internal/telemetry"
	"resilientft/internal/transport"
)

// Timed loops over the layers' public functions: the M metrics. Each is
// timed in microSlices slices and reported as the median slice, so one
// descheduling does not move it.
const microSlices = 5

// sink keeps results alive so the compiler cannot drop the measured call.
var sink atomic.Uint64

// timeLoop calls fn in growing batches for about d in all and returns
// the median time per call over the slices, in unit ("ns" or "us"), with
// the per-slice series.
func timeLoop(d time.Duration, unit string, fn func()) Metric {
	scale := 1.0
	if unit == "us" {
		scale = perUs
	}
	slice := d / microSlices
	series := make([]float64, 0, microSlices)
	total := 0
	for s := 0; s < microSlices; s++ {
		iters, batch := 0, 1
		start := time.Now()
		var elapsed time.Duration
		for {
			for i := 0; i < batch; i++ {
				fn()
			}
			iters += batch
			if elapsed = time.Since(start); elapsed >= slice {
				break
			}
			if batch < 1<<16 {
				batch *= 2
			}
		}
		series = append(series, float64(elapsed.Nanoseconds())/float64(iters)*scale)
		total += iters
	}
	return Metric{Value: median(series), Unit: unit, Samples: total, Series: series}
}

// perUs converts nanoseconds to microseconds.
const perUs = 1e-3

// runMicro takes every M metric, spending about d on each.
func runMicro(ctx context.Context, d time.Duration) (map[string]Metric, error) {
	out := map[string]Metric{}

	// rpc: the fast codec both ways, as the client and server use it.
	req := rpc.Request{ClientID: "i123", Seq: 123456, Op: "add:i123r7", Payload: ftm.EncodeArg(1)}
	out["rpc.request_codec_ns"] = timeLoop(d, "ns", func() {
		buf := req.AppendFast(transport.GetBuf())
		var back rpc.Request
		if err := back.DecodeFast(buf); err != nil {
			panic(err)
		}
		sink.Add(back.Seq)
		transport.PutBuf(buf)
	})
	resp := rpc.Response{ClientID: "i123", Seq: 123456, Status: rpc.StatusOK, Payload: ftm.EncodeResult(42)}
	out["rpc.response_codec_ns"] = timeLoop(d, "ns", func() {
		buf := resp.AppendFast(transport.GetBuf())
		var back rpc.Response
		if err := back.DecodeFast(buf); err != nil {
			panic(err)
		}
		sink.Add(back.Seq)
		transport.PutBuf(buf)
	})

	// rpc: the reply log with as many identities as open_pbr has.
	const ids = 256
	names := make([]string, ids)
	for i := range names {
		names[i] = fmt.Sprintf("i%d", i)
	}
	log := rpc.NewReplyLog(64) // the replicas' default retention
	var seq uint64
	out["rpc.replylog_record_ns"] = timeLoop(d, "ns", func() {
		seq++
		log.Record(rpc.Response{ClientID: names[seq%ids], Seq: seq / ids, Status: rpc.StatusOK, Payload: resp.Payload})
	})
	var look uint64
	out["rpc.replylog_lookup_ns"] = timeLoop(d, "ns", func() {
		look++
		if r, ok := log.Lookup(names[look%ids], seq/ids-1); ok {
			sink.Add(r.Seq)
		}
	})
	out["rpc.replylog_snapshot_since_us_256ids"] = timeLoop(d, "us", func() {
		// A wave's worth of new replies, rotating through the 256
		// identities, then the tail a delta checkpoint would ship. (The
		// journal keeps 4x retention entries, so a wave must stay under
		// that for a delta to be possible at all.)
		const wave = 64
		mark := log.Mark()
		for i := 0; i < wave; i++ {
			seq++
			log.Record(rpc.Response{ClientID: names[seq%ids], Seq: seq, Status: rpc.StatusOK, Payload: resp.Payload})
		}
		tail, _, ok := log.SnapshotSince(mark)
		if !ok || len(tail) != wave {
			panic(fmt.Sprintf("SnapshotSince returned %d entries, ok=%v", len(tail), ok))
		}
	})
	ring := rpc.NewRing("0", "1", "2", "3")
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("i%dr%d", i/256, i%256)
	}
	var pick int
	out["rpc.ring_pick_ns"] = timeLoop(d, "ns", func() {
		pick++
		sink.Add(uint64(len(ring.Pick(keys[pick%len(keys)]))))
	})

	// transport: the codec dispatch, then two endpoints echoing 64 bytes.
	out["transport.encode_ns"] = timeLoop(d, "ns", func() {
		buf, err := transport.EncodePooled(req)
		if err != nil {
			panic(err)
		}
		transport.PutBuf(buf)
	})
	encoded := transport.MustEncode(req)
	out["transport.decode_ns"] = timeLoop(d, "ns", func() {
		var back rpc.Request
		if err := transport.Decode(encoded, &back); err != nil {
			panic(err)
		}
		sink.Add(back.Seq)
	})
	if err := microTransport(ctx, d, out); err != nil {
		return nil, err
	}

	// ftm: the whole pipeline on the in-memory network.
	if err := microMemSystem(ctx, d, out); err != nil {
		return nil, err
	}

	// appstate: full capture and restore of a 4096-register state.
	regs := appstate.NewRegisters()
	for _, k := range keys {
		regs.Set(k, 7)
	}
	var full []byte
	out["appstate.capture_full_us_r4096"] = timeLoop(d, "us", func() {
		data, err := regs.CaptureState()
		if err != nil {
			panic(err)
		}
		full = data
	})
	target := appstate.NewRegisters()
	out["appstate.restore_full_us_r4096"] = timeLoop(d, "us", func() {
		if err := target.RestoreState(full); err != nil {
			panic(err)
		}
	})

	// adaptation: the paper's Table 3 pair on a solo replica.
	if err := microAdaptation(ctx, d, out); err != nil {
		return nil, err
	}

	// telemetry: what each of the instrumented call sites pays.
	reg := telemetry.NewRegistry()
	counter := reg.Counter("bench_counter")
	out["telemetry.counter_add_ns"] = timeLoop(d, "ns", func() { counter.Add(1) })
	hist := reg.Histogram("bench_histogram")
	var obs time.Duration
	out["telemetry.histogram_observe_ns"] = timeLoop(d, "ns", func() {
		obs += 997
		hist.Observe(obs % (50 * time.Millisecond))
	})
	rec := telemetry.NewSpanRecorder(telemetry.DefaultSpanCapacity)
	root := telemetry.SpanContext{TraceID: 1}
	out["telemetry.span_record_ns"] = timeLoop(d, "ns", func() {
		rec.Start(root, "bench").End()
	})
	return out, nil
}

// microTransport measures a 64-byte echo between two endpoints: over
// loopback TCP (sequential round trips, then 16 callers at once) and on
// the in-memory network.
func microTransport(ctx context.Context, d time.Duration, out map[string]Metric) error {
	// The reply is a copy: the transport owns the inbound payload.
	echo := func(_ context.Context, p transport.Packet) ([]byte, error) {
		return append([]byte(nil), p.Payload...), nil
	}
	payload := make([]byte, 64)

	a, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer b.Close()
	b.Handle("echo", echo)
	call := func(from transport.Endpoint, to transport.Address) error {
		callCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		_, err := from.Call(callCtx, to, "echo", payload)
		return err
	}
	if err := call(a, b.Addr()); err != nil { // dial outside the timing
		return fmt.Errorf("tcp echo: %w", err)
	}

	var rtts []float64
	for end := time.Now().Add(d); time.Now().Before(end); {
		start := time.Now()
		if err := call(a, b.Addr()); err != nil {
			return fmt.Errorf("tcp echo: %w", err)
		}
		rtts = append(rtts, float64(time.Since(start).Nanoseconds())*perUs)
	}
	sort.Float64s(rtts)
	out["transport.tcp_echo_rtt_p50_us"] = Metric{Value: percentile(rtts, 0.5), Unit: "us", Samples: len(rtts)}

	m, err := callers16(d, func(int) error { return call(a, b.Addr()) })
	if err != nil {
		return fmt.Errorf("tcp echo: %w", err)
	}
	out["transport.tcp_echo_rps_c16"] = m

	net := transport.NewMemNetwork(transport.WithSeed(1))
	ma, err := net.Endpoint("a")
	if err != nil {
		return err
	}
	mb, err := net.Endpoint("b")
	if err != nil {
		return err
	}
	mb.Handle("echo", echo)
	var memErr error
	out["transport.mem_call_ns"] = timeLoop(d, "ns", func() {
		if _, err := ma.Call(ctx, "b", "echo", payload); err != nil && memErr == nil {
			memErr = err
		}
	})
	return memErr
}

// microMemSystem measures ftm.NewSystem on MemNetwork, the topology
// every BENCH_pr1-10 figure was taken on: one client's latency and 16
// clients' throughput.
func microMemSystem(ctx context.Context, d time.Duration, out map[string]Metric) error {
	sys, err := ftm.NewSystem(ctx, ftm.SystemConfig{System: "calc", FTM: core.PBR})
	if err != nil {
		return err
	}
	defer sys.Shutdown()
	one := ftm.EncodeArg(1)
	client, err := sys.NewClient()
	if err != nil {
		return err
	}
	var invErr error
	out["ftm.mem_invoke_ns_c1"] = timeLoop(d, "ns", func() {
		if _, err := client.Invoke(ctx, "add:m0", one); err != nil && invErr == nil {
			invErr = err
		}
	})
	if invErr != nil {
		return fmt.Errorf("mem invoke: %w", invErr)
	}

	clients, ops := make([]*rpc.Client, 16), make([]string, 16)
	for c := range clients {
		if clients[c], err = sys.NewClient(); err != nil {
			return err
		}
		ops[c] = fmt.Sprintf("add:m%d", c+1)
	}
	m, err := callers16(d, func(c int) error {
		_, err := clients[c].Invoke(ctx, ops[c], one)
		return err
	})
	if err != nil {
		return fmt.Errorf("mem invoke: %w", err)
	}
	out["ftm.mem_invoke_rps_c16"] = m
	return nil
}

// callers16 has 16 goroutines call fn (passed the caller's index) back to
// back for d and returns the calls completed per second.
func callers16(d time.Duration, fn func(caller int) error) (Metric, error) {
	var (
		calls    atomic.Int64
		once     sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(d)
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(end) {
				if err := fn(c); err != nil {
					once.Do(func() { firstErr = err })
					return
				}
				calls.Add(1)
			}
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return Metric{}, firstErr
	}
	n := calls.Load()
	return Metric{Value: float64(n) / time.Since(start).Seconds(), Unit: "1/s", Samples: int(n)}, nil
}

// microAdaptation times a differential PBR<->LFR transition and a full
// FTM deployment on a solo replica (no peer, quiet detector): the two
// columns of the paper's Table 3.
func microAdaptation(ctx context.Context, d time.Duration, out map[string]Metric) error {
	solo := func(name string) (*ftm.Replica, *host.Host, error) {
		h, err := host.New(name, transport.NewMemNetwork(transport.WithSeed(1)), ftm.NewRegistry())
		if err != nil {
			return nil, nil, err
		}
		r, err := ftm.NewReplica(ctx, h, ftm.ReplicaConfig{
			System: "bench", FTM: core.PBR, Role: core.RoleMaster, App: ftm.NewCalculator(),
			HeartbeatInterval: time.Hour, SuspectTimeout: 24 * time.Hour,
		})
		if err != nil {
			h.Crash()
			return nil, nil, err
		}
		return r, h, nil
	}

	r, h, err := solo("solo-transition")
	if err != nil {
		return err
	}
	defer h.Crash()
	engine := adaptation.NewEngine(nil)
	var trErr error
	to := core.LFR
	out["adaptation.solo_transition_us"] = timeLoop(d, "us", func() {
		if rep := engine.TransitionReplica(ctx, r, to); rep.Err != nil && trErr == nil {
			trErr = rep.Err
		}
		if to == core.LFR {
			to = core.PBR
		} else {
			to = core.LFR
		}
	})
	if trErr != nil {
		return fmt.Errorf("solo transition: %w", trErr)
	}

	// Deployment is timed on its own; tearing the host down is not part
	// of it.
	var deploys []float64
	for end := time.Now().Add(d); time.Now().Before(end) || len(deploys) == 0; {
		start := time.Now()
		_, h, err := solo(fmt.Sprintf("solo-deploy-%d", len(deploys)))
		took := time.Since(start)
		if err != nil {
			return fmt.Errorf("solo deploy: %w", err)
		}
		h.Crash()
		deploys = append(deploys, float64(took.Nanoseconds())*perUs)
	}
	out["adaptation.solo_deploy_ftm_us"] = Metric{Value: median(deploys), Unit: "us", Samples: len(deploys)}
	return nil
}
