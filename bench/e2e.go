package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"resilientft/internal/core"
	"resilientft/internal/transport"
)

// Metric is one reported number with the evidence behind it.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations the value summarises; Beyond, for
	// a percentile, how many of them lie above it.
	Samples int `json:"samples,omitempty"`
	Beyond  int `json:"beyond,omitempty"`
	// Series holds the per-window, per-transition, per-kill or per-boot
	// observations the value summarises, so a reader (and -compare) can
	// see the spread.
	Series []float64 `json:"series,omitempty"`
}

// env is where a run finds its binaries and keeps its scratch files.
type env struct {
	daemonBin string
	logDir    string
}

// setupReps is how many times a run boots a pair to time set-up; the
// last boot is the one the workload then uses. Some runs boot half again
// as slowly for their first 150 ms or so (eight boots); 41 boots keep
// such a stretch well short of half the sample the median is taken over.
const setupReps = 41

// lateBoundMs is how late the open-loop dispatcher's p99 may run before
// the run is marked invalid: beyond it the generator, not the system,
// shaped the latencies.
const lateBoundMs = 5.0

// pairRun is everything measured from outside the daemons during one
// run against a real process pair.
type pairRun struct {
	plan   Plan
	setup  []float64 // seconds, one per boot
	gen    *loadgen  // the main pair's generator
	faults faultLog  // what happened on the main pair
	// cycles lists every kill cycle with the generator whose traffic saw
	// it: the main one, or that of the fresh pair the cycle ran on.
	cycles []killCycleRun
	audit  auditResult // summed over the main pair and every fresh one
	// proc[i][k] is daemon i's resource use at steady-phase window
	// boundary k (Windows+1 readings); genCPU the generator's own.
	proc   [2][]procSample
	genCPU []time.Duration
	strays []int
	// swaps counts kills before which the main pair's roles turned out to
	// have swapped on their own (a spurious failover).
	swaps int
}

// killCycleRun is one kill cycle and the generator that was driving the
// pair it happened on.
type killCycleRun struct {
	ev  killEvent
	gen *loadgen
}

// boot starts a pair, waits until both daemons report their roles and
// one request is acknowledged, and returns how long that took from the
// first exec. A daemon that dies at start-up (a lost race for its port)
// gets two more tries on fresh ports.
func boot(ctx context.Context, e env, w Workload, tag string) (p *pair, ep *transport.TCPEndpoint, took float64, err error) {
	for try := 0; try < 3; try++ {
		if p, ep, took, err = bootOnce(ctx, e, w, tag); err == nil {
			return p, ep, took, nil
		}
		fmt.Fprintf(os.Stderr, "bench: boot failed, retrying: %v\n", err)
	}
	return nil, nil, 0, err
}

func bootOnce(ctx context.Context, e env, w Workload, tag string) (*pair, *transport.TCPEndpoint, float64, error) {
	ep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, nil, 0, err
	}
	p, err := newPair(e.daemonBin, e.logDir, w.Shards, tag)
	if err != nil {
		ep.Close()
		return nil, nil, 0, err
	}
	fail := func(err error) (*pair, *transport.TCPEndpoint, float64, error) {
		logs := p.logs()
		ep.Close()
		p.stop()
		return nil, nil, 0, fmt.Errorf("%w\n%s", err, logs)
	}
	if _, err := p.awaitRole(ctx, ep, 0, "master", pollBoot, 20*time.Second); err != nil {
		return fail(err)
	}
	if _, err := p.awaitRole(ctx, ep, 1, "slave", pollBoot, 20*time.Second); err != nil {
		return fail(err)
	}
	// First acknowledged request, through the workload's client stack.
	probe := newLoadgen(Workload{Clients: 1, Regs: 1, Shards: w.Shards}, "probe", ep, p.addrs())
	if _, err := probe.ids[0].invoke(ctx, 0, true); err != nil {
		return fail(fmt.Errorf("first request: %w", err))
	}
	return p, ep, time.Since(p.d[0].started).Seconds(), nil
}

// runPair boots a fresh pair, drives w against it through the plan's
// three phases, audits the result and tears everything down.
func runPair(ctx context.Context, e env, w Workload, seed int64, seconds int) (*pairRun, error) {
	plan, err := makePlan(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	r := &pairRun{plan: plan}

	var (
		p  *pair
		ep *transport.TCPEndpoint
	)
	for i := 0; i < setupReps; i++ {
		if p != nil {
			ep.Close()
			p.stop()
		}
		var took float64
		if p, ep, took, err = boot(ctx, e, w, fmt.Sprintf("%s-s%d", w.Name, seed)); err != nil {
			return nil, err
		}
		r.setup = append(r.setup, took)
	}
	defer func() {
		ep.Close() // both are harmless to repeat
		p.stop()
		r.strays = strayDaemons(e.daemonBin)
	}()

	r.gen = newLoadgen(w, "i", ep, p.addrs())
	if err := r.gen.populate(ctx); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, p.logs())
	}
	t0, genDone := r.gen.start(ctx, plan, seed)

	// Resource use at every window boundary of the steady phase only: the
	// fault phases kill and restart the very processes being read.
	err = r.sampleSteady(ctx, p, t0)
	if err == nil {
		r.faults, err = runFaults(ctx, p, ep, r.gen, plan, t0)
	}
	r.gen.stop.Store(true)
	<-genDone
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, p.logs())
	}
	for _, ev := range r.faults.Kills {
		r.cycles = append(r.cycles, killCycleRun{ev, r.gen})
	}
	r.swaps = p.swaps
	r.audit = auditPair(ctx, r.gen, p)
	ep.Close()
	p.stop()

	// The remaining master kills, each on a pair that has never failed
	// over before.
	for c := plan.MainKills(); c < plan.Kills; c++ {
		cycle, audit, err := freshKill(ctx, e, w, seed, c, plan.KillPause[c-1])
		if err != nil {
			return nil, fmt.Errorf("kill cycle %d on a fresh pair: %w", c+1, err)
		}
		r.cycles = append(r.cycles, cycle)
		r.audit.add(audit)
	}
	return r, nil
}

// sampleSteady reads both daemons' and the generator's resource use at
// every window boundary of the steady phase.
func (r *pairRun) sampleSteady(ctx context.Context, p *pair, t0 time.Time) error {
	n := time.Duration(r.plan.Windows)
	for k := time.Duration(0); k <= n; k++ {
		if err := sleepUntil(ctx, t0.Add(r.plan.Steady*k/n)); err != nil {
			return err
		}
		for i := range r.proc {
			ps, err := readProc(p.d[i].cmd.Process.Pid)
			if err != nil {
				return fmt.Errorf("read daemon resource use: %w", err)
			}
			r.proc[i] = append(r.proc[i], ps)
		}
		r.genCPU = append(r.genCPU, selfCPU())
	}
	return nil
}

// freshKill boots and populates a new pair, puts the workload's load on
// it, runs one master-kill cycle pause after the warm-up, audits and
// tears down.
func freshKill(ctx context.Context, e env, w Workload, seed int64, c int, pause time.Duration) (killCycleRun, auditResult, error) {
	var none killCycleRun
	p, ep, _, err := boot(ctx, e, w, fmt.Sprintf("%s-s%d-k%d", w.Name, seed, c))
	if err != nil {
		return none, auditResult{}, err
	}
	defer func() {
		ep.Close()
		p.stop()
	}()
	g := newLoadgen(w, "i", ep, p.addrs())
	if err := g.populate(ctx); err != nil {
		return none, auditResult{}, fmt.Errorf("%w\n%s", err, p.logs())
	}
	// The generator is stopped when the cycle is over; the plan only has
	// to be long enough.
	plan := steadyPlan(w, seed*1009+int64(c), freshWarmup, 4*freshCycleBudget)
	t0, done := g.start(ctx, plan, seed+int64(c))
	var ev killEvent
	if err = sleepUntil(ctx, t0.Add(pause)); err == nil {
		ev, err = p.killCycle(ctx, ep, g, false)
	}
	g.stop.Store(true)
	<-done
	if err != nil {
		return none, auditResult{}, fmt.Errorf("%w\n%s", err, p.logs())
	}
	return killCycleRun{ev, g}, auditPair(ctx, g, p), nil
}

// auditPair reads every register back through g and, when the audit is
// not clean, prints the daemons' logs while they still exist.
func auditPair(ctx context.Context, g *loadgen, p *pair) auditResult {
	a := g.audit(ctx)
	if a.Lost != 0 || a.Dup != 0 || a.ReadErrs != 0 {
		fmt.Fprintf(os.Stderr, "audit failed: %+v\n%s", a, p.logs())
	}
	return a
}

// off is the offset of t from the start of the main generator's
// measured run.
func (r *pairRun) off(t time.Time) int64 { return int64(t.Sub(r.gen.t0)) }

// measured returns a generator's samples of its measured run, pooled
// over its identities.
func measured(g *loadgen) []sample {
	var out []sample
	for _, id := range g.ids {
		for _, s := range id.samples {
			if s.start >= 0 {
				out = append(out, s)
			}
		}
	}
	return out
}

// generators lists the main generator and those of the fresh pairs.
func (r *pairRun) generators() []*loadgen {
	gens := []*loadgen{r.gen}
	for _, c := range r.cycles {
		if c.gen != r.gen {
			gens = append(gens, c.gen)
		}
	}
	return gens
}

const msPerNs = 1e-6

// latencies returns the sorted latencies (ms) of the acknowledged
// samples whose start lies in [from, to).
func latencies(samples []sample, from, to int64) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok && s.start >= from && s.start < to {
			out = append(out, float64(s.lat)*msPerNs)
		}
	}
	sort.Float64s(out)
	return out
}

// metrics turns a pair run into the end-to-end metrics and the
// per-layer metrics that are read from outside the daemons.
//
// Every metric that has several observations in a run — one per steady
// window, per transition, per kill cycle — reports the quiet half of
// them (see quiet), with the whole series beside it.
func (r *pairRun) metrics() (e2e, layer map[string]Metric, attempted, failed int) {
	e2e, layer = map[string]Metric{}, map[string]Metric{}
	samples := measured(r.gen)
	steady := int64(r.plan.Steady)
	n := r.plan.Windows
	series := func(unit string, vs []float64, higher bool, count int) Metric {
		return Metric{Value: quiet(vs, higher), Unit: unit, Samples: count, Series: vs}
	}

	// Steady phase, per window.
	perWin := make([][]float64, n)
	acked := 0
	for _, s := range samples {
		attempted++
		if !s.ok {
			failed++
			continue
		}
		if w := windowOf(s.start, steady, n); w >= 0 {
			perWin[w] = append(perWin[w], float64(s.lat)*msPerNs)
			acked++
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var p50s, p99s, rates, cpu, cpuMaster, cpuSlave, ctxsw, genShare []float64
	minBeyond := math.MaxInt
	winSec := r.plan.Steady.Seconds() / float64(n)
	for k, lat := range perWin {
		sort.Float64s(lat)
		p50s = append(p50s, percentile(lat, 0.50))
		p99s = append(p99s, percentile(lat, 0.99))
		rates = append(rates, float64(len(lat))/winSec)
		if b := beyond(len(lat), 0.99); b < minBeyond {
			minBeyond = b
		}
		ops := math.Max(float64(len(lat)), 1)
		m := us(r.proc[0][k+1].cpu-r.proc[0][k].cpu) / ops
		sl := us(r.proc[1][k+1].cpu-r.proc[1][k].cpu) / ops
		cpu, cpuMaster, cpuSlave = append(cpu, m+sl), append(cpuMaster, m), append(cpuSlave, sl)
		ctxsw = append(ctxsw, float64(r.proc[0][k+1].ctxsw-r.proc[0][k].ctxsw)/ops)
		genShare = append(genShare, (r.genCPU[k+1]-r.genCPU[k]).Seconds()/winSec)
	}
	perWindow := acked / n
	e2e["latency_p50_ms"] = series("ms", p50s, false, perWindow)
	p99 := series("ms", p99s, false, perWindow)
	p99.Beyond = minBeyond
	e2e["latency_p99_ms"] = p99
	e2e["throughput_rps"] = series("1/s", rates, true, acked)
	e2e["cpu_us_per_op"] = series("us", cpu, false, acked)
	// Set-up has no quiet side to prefer: a boot is a handful of
	// milliseconds, and the contract asks for the median.
	e2e["setup_s"] = Metric{Value: median(r.setup), Unit: "s", Samples: len(r.setup), Series: r.setup}
	last := len(r.proc[0]) - 1
	e2e["peak_rss_mb"] = Metric{Value: float64(r.proc[0][last].hwmKB) / 1024, Unit: "MB", Samples: 1}
	layer["host.master_cpu_us_per_op"] = series("us", cpuMaster, false, acked)
	layer["host.slave_cpu_us_per_op"] = series("us", cpuSlave, false, acked)
	layer["host.master_ctxsw_per_op"] = series("count", ctxsw, false, acked)
	layer["host.slave_rss_mb"] = Metric{Value: float64(r.proc[1][last].rssKB) / 1024, Unit: "MB", Samples: 1}

	all := latencies(samples, 0, steady)
	layer["rpc.invoke_p999_ms"] = Metric{Value: percentile(all, 0.999), Unit: "ms", Samples: len(all), Beyond: beyond(len(all), 0.999)}

	// Generator health over the steady phase: over all of it, not its
	// quiet part — a generator that ran late anywhere taints the run.
	var late []float64
	for i, a := range r.plan.Arrivals {
		if at := int64(a.Due - r.plan.Warmup); at >= 0 && at < steady && i < len(r.gen.late) {
			late = append(late, float64(r.gen.late[i])*msPerNs)
		}
	}
	sort.Float64s(late)
	lateP99 := 0.0 // a closed loop has no schedule to be late against
	if len(late) > 0 {
		lateP99 = percentile(late, 0.99)
	}
	layer["loadgen.late_p99_ms"] = Metric{Value: lateP99, Unit: "ms", Samples: len(late), Beyond: beyond(len(late), 0.99)}
	layer["loadgen.cpu_share"] = Metric{Value: median(genShare), Unit: "cores", Samples: len(genShare), Series: genShare}

	// Adapt phase.
	var wall, deploy, script, remove, lfr []float64
	for i, tr := range r.faults.Transitions {
		wall = append(wall, float64(tr.End.Sub(tr.Start))*msPerNs)
		for _, o := range tr.Outcomes {
			deploy = append(deploy, float64(o.DeployUS))
			script = append(script, float64(o.ScriptUS))
			remove = append(remove, float64(o.RemoveUS))
		}
		if tr.To == core.LFR && i+1 < len(r.faults.Transitions) {
			lfr = append(lfr, latencies(samples, r.off(tr.End), r.off(r.faults.Transitions[i+1].Start))...)
		}
	}
	sort.Float64s(lfr)
	e2e["transition_ms"] = series("ms", wall, false, len(wall))
	layer["adaptation.deploy_us"] = Metric{Value: median(deploy), Unit: "us", Samples: len(deploy)}
	layer["adaptation.script_us"] = Metric{Value: median(script), Unit: "us", Samples: len(script)}
	layer["adaptation.remove_us"] = Metric{Value: median(remove), Unit: "us", Samples: len(remove)}
	layer["ftm.lfr_invoke_p50_ms"] = Metric{Value: percentile(lfr, 0.50), Unit: "ms", Samples: len(lfr)}

	// Failover phase, per kill cycle, each against the traffic of the
	// generator that drove the pair it ran on.
	var unavailable, detect, firstOK, rejoin, degraded []float64
	var acks []int64
	degradedN := 0
	for _, c := range r.cycles {
		traffic := samples
		if c.gen != r.gen {
			traffic = measured(c.gen)
			for _, s := range traffic {
				attempted++
				if !s.ok {
					failed++
				}
			}
		}
		off := func(t time.Time) int64 { return int64(t.Sub(c.gen.t0)) }
		killAt, restartAt := off(c.ev.Kill), off(c.ev.Restart)
		// The longest stretch without a single acknowledgement between
		// the SIGKILL and the restart. After a master kill that is the
		// time to the first acknowledgement by the promoted survivor;
		// after a slave kill, however long the master stalls before it
		// carries on alone.
		acks = acks[:0]
		for _, s := range traffic {
			if done := s.start + s.lat; s.ok && done >= killAt && done < restartAt {
				acks = append(acks, done)
			}
		}
		if len(acks) == 0 {
			continue // nothing was ever acknowledged again; the run fails on its audit
		}
		sort.Slice(acks, func(i, j int) bool { return acks[i] < acks[j] })
		prev := killAt
		var gap int64
		for _, done := range acks {
			if done-prev > gap {
				gap = done - prev
			}
			prev = done
		}
		u := float64(gap) * msPerNs
		d := float64(c.ev.Promoted.Sub(c.ev.Kill)) * msPerNs
		unavailable = append(unavailable, u)
		detect = append(detect, d)
		firstOK = append(firstOK, u-d)
		rejoin = append(rejoin, float64(c.ev.Rejoined.Sub(c.ev.Restart))*msPerNs)
		alone := latencies(traffic, off(c.ev.Promoted), restartAt)
		degraded = append(degraded, percentile(alone, 0.50))
		degradedN += len(alone)
	}
	e2e["unavailable_ms"] = series("ms", unavailable, false, len(unavailable))
	e2e["degraded_latency_p50_ms"] = series("ms", degraded, false, degradedN)
	layer["detector.kill_to_promoted_ms"] = series("ms", detect, false, len(detect))
	layer["rpc.promoted_to_first_ok_ms"] = Metric{Value: median(firstOK), Unit: "ms", Samples: len(firstOK), Series: firstOK}
	layer["ftm.rejoin_ms"] = series("ms", rejoin, false, len(rejoin))
	return e2e, layer, attempted, failed
}

// wrongReplies counts replies the shadow model rejected, on the main
// pair and the fresh ones, and returns one of them as an example.
func (r *pairRun) wrongReplies() (n int, example error) {
	for _, g := range r.generators() {
		for _, id := range g.ids {
			n += id.wrong
		}
		if example == nil {
			example = g.firstErr
		}
	}
	return n, example
}
