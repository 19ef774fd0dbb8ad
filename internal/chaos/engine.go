package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"resilientft/internal/adaptation"
	"resilientft/internal/core"
	"resilientft/internal/ftm"
	"resilientft/internal/rpc"
	"resilientft/internal/stablestore"
	"resilientft/internal/telemetry"
	"resilientft/internal/transport"
)

// opAdd is the workload operation: every write adds 1 to one register,
// so after the redelivery sweep the register's value must equal the
// attempt count and the per-attempt replies must enumerate 1..N — the
// whole exactly-once audit reduces to arithmetic.
const (
	opAdd   = "add:chaos"
	opProbe = "get:chaos"
)

// runCounter disambiguates client identities across runs in one
// process: trace IDs derive from (client ID, seq), so reusing a client
// ID across scenario runs would splice unrelated traces together.
var runCounter atomic.Uint64

// attempt is one workload write, tracked whether or not it was
// acknowledged — the sweep redelivers every one of them.
type attempt struct {
	client *rpc.Client
	seq    uint64
	traced bool
	acked  bool
	value  int64
}

// runner holds the live machinery of one scenario run.
type runner struct {
	opts  Options
	scn   Scenario
	steps []Step

	// rng is the scheduler's own stream, independent of the network's
	// seeded stream so fault timing draws don't perturb delivery draws.
	rng     *rand.Rand
	net     *transport.MemNetwork
	sys     *ftm.System
	eng     *adaptation.Engine
	stores  map[string]*stablestore.FaultStore
	hostIdx map[string]int
	crashed map[int]bool

	clients   []*rpc.Client
	clientSeq []uint64
	tracerIdx int
	probe     *rpc.Client
	rogue     transport.Endpoint
	oversize  []byte

	loadWG  sync.WaitGroup
	transWG sync.WaitGroup

	mu       sync.Mutex
	attempts []attempt

	v *Verdict
}

// Run executes one scenario under one seed and audits the system
// afterwards. The returned Verdict is complete even when invariants
// fail; the error covers only malformed scenarios and broken harness
// setup.
func Run(ctx context.Context, scn Scenario, opts Options) (*Verdict, error) {
	opts = opts.withDefaults()
	steps, err := Parse(scn.Script)
	if err != nil {
		return nil, err
	}
	ftmID := scn.FTM
	if ftmID == "" {
		ftmID = core.PBR
	}

	r := &runner{
		opts:    opts,
		scn:     scn,
		steps:   steps,
		rng:     rand.New(rand.NewSource(opts.Seed*2654435761 + 1)),
		stores:  map[string]*stablestore.FaultStore{},
		hostIdx: map[string]int{},
		crashed: map[int]bool{},
		v:       &Verdict{Scenario: scn.Name, Seed: opts.Seed},
	}
	r.net = transport.NewMemNetwork(transport.WithSeed(opts.Seed))
	var storeMu sync.Mutex
	sys, err := ftm.NewSystem(ctx, ftm.SystemConfig{
		System:            "chaos",
		FTM:               ftmID,
		Net:               r.net,
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectTimeout:    60 * time.Millisecond,
		EventHook:         opts.EventHook,
		StoreFactory: func(hostName string) stablestore.Store {
			fs := stablestore.NewFaultStore(stablestore.NewMemStore())
			storeMu.Lock()
			r.stores[hostName] = fs
			storeMu.Unlock()
			return fs
		},
	})
	if err != nil {
		return nil, err
	}
	r.sys = sys
	defer sys.Shutdown()
	for i, h := range sys.Hosts() {
		r.hostIdx[h.Name()] = i
	}
	r.eng = adaptation.NewEngine(nil)

	runID := runCounter.Add(1)
	if err := r.buildClients(runID); err != nil {
		return nil, err
	}

	start := time.Now()
	for _, st := range r.steps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r.execute(ctx, st)
	}
	// The audit only means something against a healed, serviceable
	// system: quiesce unconditionally even if the script already did.
	r.settle(ctx)
	r.awaitAsync()
	r.audit(ctx)
	r.v.Elapsed = time.Since(start)

	r.v.Pass = len(r.v.Violations) == 0
	if r.v.Pass {
		mScenarioPass.Inc()
	} else {
		mScenarioFail.Inc()
	}
	return r.v, nil
}

func (r *runner) buildClients(runID uint64) error {
	addrs := r.sys.Addresses()
	n := r.opts.Clients + 1 // last one is the always-traced client
	r.tracerIdx = n - 1
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("chaos-r%d-c%d", runID, i)
		ep, err := r.net.Endpoint(transport.Address(id))
		if err != nil {
			return err
		}
		copts := []rpc.ClientOption{
			rpc.WithCallTimeout(r.opts.CallTimeout),
			rpc.WithMaxRounds(r.opts.MaxRounds),
		}
		if i == r.tracerIdx {
			copts = append(copts, rpc.WithAlwaysTrace())
		}
		r.clients = append(r.clients, rpc.NewClient(id, ep, addrs, copts...))
		r.clientSeq = append(r.clientSeq, 0)
	}
	probeID := fmt.Sprintf("chaos-r%d-probe", runID)
	pep, err := r.net.Endpoint(transport.Address(probeID))
	if err != nil {
		return err
	}
	r.probe = rpc.NewClient(probeID, pep, addrs,
		rpc.WithCallTimeout(time.Second), rpc.WithMaxRounds(3))
	r.rogue, err = r.net.Endpoint(transport.Address(fmt.Sprintf("chaos-r%d-rogue", runID)))
	return err
}

// record appends one resolved action to the deterministic schedule.
// Only the sequential step loop calls it, so ordering is the script
// order with selectors resolved — never async outcomes, which are
// timing-dependent.
func (r *runner) record(format string, args ...any) {
	r.v.Schedule = append(r.v.Schedule, fmt.Sprintf(format, args...))
}

func (r *runner) violate(invariant, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	r.mu.Lock()
	r.v.Violations = append(r.v.Violations, Violation{Invariant: invariant, Detail: detail})
	r.mu.Unlock()
	violationMetric(invariant).Inc()
	box := telemetry.DumpBlackBox("chaos-violation",
		"scenario", r.scn.Name,
		"seed", fmt.Sprintf("%d", r.opts.Seed),
		"invariant", invariant,
		"detail", detail)
	r.v.Boxes = append(r.v.Boxes, box)
}

// resolveHost turns a host operand — a literal name or a master/slave/
// any selector — into (name, host index).
func (r *runner) resolveHost(sel string) (string, int, error) {
	switch sel {
	case "master", "slave":
		deadline := time.Now().Add(r.opts.SettleTimeout)
		for {
			var rep *ftm.Replica
			if sel == "master" {
				rep = r.sys.Master()
			} else {
				rep = r.sys.Slave()
			}
			if rep != nil {
				name := rep.Host().Name()
				return name, r.hostIdx[name], nil
			}
			if time.Now().After(deadline) {
				return "", 0, fmt.Errorf("no live %s to resolve", sel)
			}
			time.Sleep(2 * time.Millisecond)
		}
	case "any":
		hosts := r.sys.Hosts()
		h := hosts[r.rng.Intn(len(hosts))]
		return h.Name(), r.hostIdx[h.Name()], nil
	default:
		idx, ok := r.hostIdx[sel]
		if !ok {
			return "", 0, fmt.Errorf("unknown host %q", sel)
		}
		return sel, idx, nil
	}
}

func (r *runner) addr(idx int) transport.Address {
	return r.sys.Hosts()[idx].Addr()
}

func (r *runner) execute(ctx context.Context, st Step) {
	stepMetric(st.Verb).Inc()
	if st.Fault != "" {
		faultMetric(st.Fault).Inc()
	}
	switch st.Verb {
	case "partition", "heal":
		a, ai, errA := r.resolveHost(st.A)
		b, bi, errB := r.resolveHost(st.B)
		if errA != nil || errB != nil {
			r.record("%s %s %s (unresolved)", st.Verb, st.A, st.B)
			return
		}
		arrow := " "
		if st.OneWay {
			arrow = " -> "
		}
		r.record("%s %s%s%s", st.Verb, a, arrow, b)
		switch {
		case st.Verb == "partition" && st.OneWay:
			r.net.PartitionOneWay(r.addr(ai), r.addr(bi))
		case st.Verb == "partition":
			r.net.Partition(r.addr(ai), r.addr(bi))
		case st.OneWay:
			r.net.HealOneWay(r.addr(ai), r.addr(bi))
		default:
			r.net.Heal(r.addr(ai), r.addr(bi))
		}
	case "heal-all":
		r.record("heal-all")
		r.net.HealAll()
	case "link":
		a, ai, errA := r.resolveHost(st.A)
		b, bi, errB := r.resolveHost(st.B)
		if errA != nil || errB != nil {
			r.record("link %s -> %s (unresolved)", st.A, st.B)
			return
		}
		r.record("link %s -> %s latency=%v jitter=%v loss=%g callloss=%g corrupt=%g",
			a, b, st.Link.ExtraLatency, st.Link.Jitter, st.Link.Loss, st.Link.DropCalls, st.Link.Corrupt)
		r.net.SetLinkFault(r.addr(ai), r.addr(bi), st.Link)
	case "clear-links":
		r.record("clear-links")
		r.net.ClearLinkFaults()
	case "skew":
		name, idx, err := r.resolveHost(st.A)
		if err != nil {
			r.record("skew %s (unresolved)", st.A)
			return
		}
		r.record("skew %s %v", name, st.Dur)
		r.sys.Hosts()[idx].SetClockSkew(st.Dur)
	case "store-slow":
		name, _, err := r.resolveHost(st.A)
		if err != nil {
			r.record("store-slow %s (unresolved)", st.A)
			return
		}
		r.record("store-slow %s %v", name, st.Dur)
		r.stores[name].SetDelay(st.Dur)
	case "store-full":
		name, _, err := r.resolveHost(st.A)
		if err != nil {
			r.record("store-full %s (unresolved)", st.A)
			return
		}
		r.record("store-full %s %v", name, st.On)
		r.stores[name].SetFull(st.On)
	case "garbage":
		name, idx, err := r.resolveHost(st.A)
		if err != nil {
			r.record("garbage %s (unresolved)", st.A)
			return
		}
		r.record("garbage %s %d", name, st.N)
		r.throwGarbage(ctx, idx, st.N)
	case "crash":
		name, idx, err := r.resolveHost(st.A)
		if err != nil {
			r.record("crash %s (unresolved)", st.A)
			return
		}
		if r.sys.Hosts()[idx].Crashed() {
			r.record("crash %s (already down)", name)
			return
		}
		if st.A == "master" || st.A == "slave" || st.A == "any" {
			r.record("crash %s(%s)", st.A, name)
		} else {
			r.record("crash %s", name)
		}
		r.sys.Hosts()[idx].Crash()
		r.crashed[idx] = true
	case "restart":
		name, idx, err := r.resolveHost(st.A)
		if err != nil {
			r.record("restart %s (unresolved)", st.A)
			return
		}
		r.record("restart %s", name)
		r.restartHost(ctx, idx)
	case "transition":
		if st.Async {
			r.record("transition %s async", st.To)
			r.transWG.Add(1)
			go func() {
				defer r.transWG.Done()
				_, _ = r.eng.TransitionSystem(ctx, r.sys, st.To)
			}()
			return
		}
		r.record("transition %s", st.To)
		_, _ = r.eng.TransitionSystem(ctx, r.sys, st.To)
	case "await-transition":
		r.record("await-transition")
		r.transWG.Wait()
	case "load":
		if st.Async {
			r.record("load %d async", st.N)
			r.loadWG.Add(1)
			go func() {
				defer r.loadWG.Done()
				r.load(ctx, st.N)
			}()
			return
		}
		r.record("load %d", st.N)
		r.load(ctx, st.N)
	case "await-load":
		r.record("await-load")
		r.loadWG.Wait()
	case "sleep":
		r.record("sleep %v", st.Dur)
		time.Sleep(st.Dur)
	case "wait-master":
		r.record("wait-master")
		d := st.Dur
		if d <= 0 {
			d = r.opts.SettleTimeout
		}
		if !r.waitMaster(d) {
			r.violate("settle", "no master within %v after wait-master (line %d)", d, st.Line)
		}
	case "settle":
		r.record("settle")
		r.settle(ctx)
	}
}

// load issues n workload writes round-robin across the clients. Every
// attempt is recorded before its invoke: ambiguous outcomes (lost
// replies, timeouts) still get swept.
func (r *runner) load(ctx context.Context, n int) {
	for i := 0; i < n; i++ {
		r.mu.Lock()
		ci := 0
		min := r.clientSeq[0]
		for j, s := range r.clientSeq {
			if s < min {
				ci, min = j, s
			}
		}
		r.clientSeq[ci]++
		seq := r.clientSeq[ci]
		ai := len(r.attempts)
		r.attempts = append(r.attempts, attempt{
			client: r.clients[ci],
			seq:    seq,
			traced: ci == r.tracerIdx,
		})
		r.mu.Unlock()

		// Redeliver, not Invoke: the sequence number is reserved above so
		// the sweep can re-send the identical request; concurrent async
		// loads sharing a client would otherwise desynchronise the
		// client's internal counter from the recorded attempts.
		resp, err := r.clients[ci].Redeliver(ctx, seq, opAdd, ftm.EncodeArg(1))
		if err == nil {
			if v, derr := ftm.DecodeResult(resp.Payload); derr == nil {
				r.mu.Lock()
				r.attempts[ai].acked = true
				r.attempts[ai].value = v
				r.mu.Unlock()
				mRequestsAcked.Inc()
				continue
			}
		}
		mRequestsFailed.Inc()
	}
}

// throwGarbage fires n malformed frames at host idx — random junk on
// the RPC and replica kinds, alternating one-way sends with calls so
// both server decode paths chew on it — plus one over-limit envelope
// that the transport must reject at the sender.
func (r *runner) throwGarbage(ctx context.Context, idx int, n int) {
	target := r.addr(idx)
	kinds := []string{rpc.KindRequest, ftm.KindReplica}
	for i := 0; i < n; i++ {
		buf := make([]byte, 8+r.rng.Intn(56))
		r.rng.Read(buf)
		kind := kinds[i%len(kinds)]
		if i%2 == 0 {
			_ = r.rogue.Send(ctx, target, kind, buf)
		} else {
			cctx, cancel := context.WithTimeout(ctx, r.opts.CallTimeout)
			_, _ = r.rogue.Call(cctx, target, kind, buf)
			cancel()
		}
	}
	if r.oversize == nil {
		r.oversize = make([]byte, transport.MaxEnvelope+1)
	}
	if err := r.rogue.Send(ctx, target, rpc.KindRequest, r.oversize); !errors.Is(err, transport.ErrTooLarge) {
		r.violate("envelope", "oversize frame (%d bytes) not rejected: %v", len(r.oversize), err)
	}
}

func (r *runner) waitMaster(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if r.sys.Master() != nil {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// restartHost brings a crashed host back, retrying while the rejoin
// races whatever else the scenario still has broken.
func (r *runner) restartHost(ctx context.Context, idx int) {
	if !r.sys.Hosts()[idx].Crashed() {
		return
	}
	deadline := time.Now().Add(r.opts.SettleTimeout)
	for {
		if _, err := r.sys.RestartReplica(ctx, idx); err == nil {
			delete(r.crashed, idx)
			return
		}
		if time.Now().After(deadline) {
			r.violate("settle", "host %s would not restart within %v",
				r.sys.Hosts()[idx].Name(), r.opts.SettleTimeout)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// settle heals the world — network, clocks, stores, crashed hosts —
// then waits for a serviceable master. The audit runs only against a
// settled system; a system that cannot settle is itself a violation.
func (r *runner) settle(ctx context.Context) {
	r.net.HealAll()
	r.net.ClearLinkFaults()
	for _, fs := range r.stores {
		fs.SetDelay(0)
		fs.SetFull(false)
	}
	for _, h := range r.sys.Hosts() {
		h.SetClockSkew(0)
	}
	for idx := range r.crashed {
		r.restartHost(ctx, idx)
	}
	if !r.waitMaster(r.opts.SettleTimeout) {
		r.violate("settle", "no master within %v after healing everything", r.opts.SettleTimeout)
		return
	}
	// A master exists; prove it answers. The probe retries because the
	// first requests after a failover can race the promotion.
	deadline := time.Now().Add(r.opts.SettleTimeout)
	for {
		pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		_, err := r.probe.Invoke(pctx, opProbe, ftm.EncodeArg(0))
		cancel()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			r.violate("settle", "settled system does not answer probes: %v", err)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitAsync joins any async load/transition still running after the
// script ended (scripts should await explicitly; this is the backstop).
func (r *runner) awaitAsync() {
	r.loadWG.Wait()
	r.transWG.Wait()
}
