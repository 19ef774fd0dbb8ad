package main

import (
	"fmt"
	"math/rand"
	"time"
)

// Workload is one traffic mix plus the fault schedule that rides on it.
// Every workload runs the same three phases — steady, adapt (live
// PBR<->LFR transitions), failover (kill, master-alone, rejoin) — so
// that every end-to-end metric is defined on every workload; what
// differs is the load shape and how the run's seconds are split.
type Workload struct {
	Name string
	Why  string

	// Open selects an open loop: Poisson arrivals at Rate req/s spread
	// over Clients identities. Otherwise Clients closed-loop clients each
	// send their next request when the previous one completes.
	Open    bool
	Rate    float64
	Clients int
	// Regs is how many registers each client identity owns; ReadShare is
	// the share of requests that are get rather than add.
	Regs      int
	ReadShare float64
	// Shards is the daemons' -shards value; above 1 the clients go
	// through rpc.Router.
	Shards int

	// Transitions is the number of pair-wide FTM transitions in the
	// adapt phase, TransitionGap apart; Kills the number of
	// kill / master-alone / rejoin cycles in the failover phase.
	Transitions   int
	TransitionGap time.Duration
	Kills         int
	// KillSlave makes the kill cycles take the slave down instead of the
	// master: the backup-crash half of the fault model.
	KillSlave bool
}

// Fault-phase timing. A kill cycle is: SIGKILL the victim, wait until
// the survivor reports master, run alone, restart the victim as slave,
// wait until it reports slave, settle.
//
// Only a pair's first master kill is used. Promoting a replica that had
// itself rejoined after an earlier kill is broken at the commit this
// benchmark was built on (see README, "Found while building this"), so
// every further master-kill cycle runs on a freshly booted and populated
// pair, with its own generator. Slave-kill cycles promote nobody and all
// run on the main pair, with shorter pauses.
const (
	warmup = 1500 * time.Millisecond
	// master-kill cycles
	aloneFor    = 700 * time.Millisecond
	settleFor   = 300 * time.Millisecond
	cycleBudget = aloneFor + settleFor + 400*time.Millisecond // + detection, promotion, rejoin
	// freshWarmup is the load a fresh pair sees before its kill;
	// freshCycleBudget adds booting, populating, auditing and tearing it
	// down to the cycle itself.
	freshWarmup      = 400 * time.Millisecond
	freshCycleBudget = cycleBudget + freshWarmup + 700*time.Millisecond
	// drainLimit bounds the wait for an empty pipe before a master kill;
	// a request takes a millisecond or two, a stuck one must not stall
	// the schedule.
	drainLimit = 100 * time.Millisecond
	// slave-kill cycles
	slaveAloneFor    = 400 * time.Millisecond
	slaveSettleFor   = 300 * time.Millisecond
	slaveCycleBudget = slaveAloneFor + slaveSettleFor + 200*time.Millisecond
	// windowLen is the nominal length of one steady-phase window.
	windowLen = 2 * time.Second
	// callTimeout bounds one request attempt; maxRounds lets a client
	// keep retrying (50 ms apart) across a whole failover instead of
	// giving up after the default three rounds.
	callTimeout = 2 * time.Second
	maxRounds   = 40
)

var workloads = []Workload{
	{
		Name: "open_pbr",
		Why:  "Open loop, Poisson 2000 req/s over 256 identities, 80% add / 20% get: batches stay nearly empty, so per-request fixed costs set the latency and group commit does almost nothing.",
		Open: true, Rate: 2000, Clients: 256, Regs: 16, ReadShare: 0.2, Shards: 1,
		Transitions: 16, TransitionGap: 120 * time.Millisecond, Kills: 3,
	},
	{
		Name:    "closed_pbr",
		Why:     "Closed loop, 16 clients, add only: saturating, so group commit, the coalescing writer and delta merge do the work and fixed costs are amortised; the reverse prediction of open_pbr.",
		Clients: 16, Regs: 16, Shards: 1,
		Transitions: 16, TransitionGap: 120 * time.Millisecond, Kills: 3,
	},
	{
		Name:    "closed_sharded_mixed",
		Why:     "Closed loop, 16 clients via rpc.Router over 4 shards, 50% get, 4096 registers: ring pick and group mux per request, quarter-full waves, large state; shows a closed_pbr gain that costs other uses.",
		Clients: 16, Regs: 256, ReadShare: 0.5, Shards: 4,
		Transitions: 16, TransitionGap: 120 * time.Millisecond, Kills: 7, KillSlave: true,
	},
	{
		Name: "adapt_failover",
		Why:  "Open loop, Poisson 1000 req/s over 64 identities, add only, half the run in live transitions and kill/rejoin cycles: adaptation, fscript, detector, promotion and rejoin do the work, not the requests.",
		Open: true, Rate: 1000, Clients: 64, Regs: 16, Shards: 1,
		Transitions: 20, TransitionGap: 200 * time.Millisecond, Kills: 3,
	},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Plan is everything a run derives from (workload, seed, seconds) before
// the first request is sent: the same arguments give the same plan.
type Plan struct {
	Warmup   time.Duration // load runs, nothing is measured
	Steady   time.Duration // [0, Steady): no faults, the windowed metrics
	Adapt    time.Duration // [Steady, Steady+Adapt): live transitions
	Failover time.Duration // the rest: kill cycles
	Windows  int

	// Transitions and Kills are the workload's counts, cut down when the
	// run is too short for the full schedule (smoke tests).
	Transitions, Kills int
	KillSlave          bool
	// TransitionAt are offsets from the start of the measured run.
	TransitionAt []time.Duration
	// KillAt is the offset of the main pair's first SIGKILL. KillPause[i]
	// is a seeded extra pause before kill i+1 — after the previous cycle
	// on the main pair (slave kills), or after the warm-up of the fresh
	// pair it runs on (master kills) — so that kills land at varying
	// phases of the heartbeat period.
	KillAt    time.Duration
	KillPause []time.Duration

	// Arrivals is the open-loop schedule (nil for closed loops): due
	// offsets from the start of warm-up, and the op each one carries.
	Arrivals []Arrival
}

// steadyPlan is a plan with no faults: warm-up, then d of steady load in
// one window. The traced in-process passes use it.
func steadyPlan(w Workload, seed int64, warm, d time.Duration) Plan {
	p := Plan{Warmup: warm, Steady: d, Windows: 1}
	p.drawArrivals(w, rand.New(rand.NewSource(seed)))
	return p
}

// arrivalSlack is how far past a plan's nominal end its open-loop
// schedule extends.
const arrivalSlack = 5 * time.Second

// drawArrivals fills the open-loop schedule: exponential gaps at the
// offered rate, through warm-up and the whole measured run.
func (p *Plan) drawArrivals(w Workload, rng *rand.Rand) {
	if !w.Open {
		return
	}
	// Past the nominal end too: the generator runs until the fault
	// schedule, which waits on events, says it is done.
	end := p.Warmup + p.Total() + arrivalSlack
	p.Arrivals = make([]Arrival, 0, int(w.Rate*end.Seconds()*1.05)+16)
	var at time.Duration
	for {
		at += time.Duration(rng.ExpFloat64() / w.Rate * float64(time.Second))
		if at >= end {
			return
		}
		p.Arrivals = append(p.Arrivals, Arrival{Due: at, Reg: rng.Intn(w.Regs), Read: rng.Float64() < w.ReadShare})
	}
}

// Arrival is one open-loop request: when it is due and what it does. The
// identity that sends it is the first one free at that moment, so only
// the register index is fixed here.
type Arrival struct {
	Due  time.Duration // from the start of warm-up
	Reg  int
	Read bool
}

// Total is the length of the measured run.
func (p Plan) Total() time.Duration { return p.Steady + p.Adapt + p.Failover }

// MainKills is how many kill cycles run on the main pair: every slave
// kill, but only the first master kill.
func (p Plan) MainKills() int {
	if p.KillSlave || p.Kills == 0 {
		return p.Kills
	}
	return 1
}

// failoverBudget is the time the plan reserves for n kill cycles.
func failoverBudget(n int, killSlave bool) time.Duration {
	switch {
	case n == 0:
		return 0
	case killSlave:
		return time.Duration(n) * slaveCycleBudget
	}
	return cycleBudget + time.Duration(n-1)*freshCycleBudget
}

// minSeconds is the shortest run: one second of steady state, two
// transitions and one kill cycle.
const minSeconds = 5

// makePlan splits seconds into the three phases and draws every seeded
// choice. The fault phases take what their schedule needs and the steady
// phase gets the rest; a run too short for the whole schedule keeps at
// least a quarter of its time steady and drops kill cycles, then
// transitions (in pairs, so the pair ends on PBR).
func makePlan(w Workload, seed int64, seconds int) (Plan, error) {
	if seconds < minSeconds {
		return Plan{}, fmt.Errorf("a run needs at least %d seconds, got %d", minSeconds, seconds)
	}
	total := time.Duration(seconds) * time.Second
	p := Plan{Warmup: warmup, Transitions: w.Transitions, Kills: w.Kills, KillSlave: w.KillSlave}
	minSteady := total / 4
	if minSteady < time.Second {
		minSteady = time.Second
	}
	for {
		p.Adapt = time.Duration(p.Transitions) * w.TransitionGap
		p.Failover = failoverBudget(p.Kills, p.KillSlave)
		p.Steady = total - p.Adapt - p.Failover
		if p.Steady >= minSteady {
			break
		}
		switch {
		case p.Kills > 1:
			p.Kills--
		case p.Transitions > 2:
			p.Transitions -= 2
		default:
			return Plan{}, fmt.Errorf("workload %s does not fit in %d seconds", w.Name, seconds)
		}
	}
	p.Windows = int((p.Steady + windowLen/2) / windowLen)
	if p.Windows < 1 {
		p.Windows = 1
	}

	rng := rand.New(rand.NewSource(seed))
	jitter := func(max time.Duration) time.Duration { return time.Duration(rng.Int63n(int64(max))) }
	for i := 0; i < p.Transitions; i++ {
		p.TransitionAt = append(p.TransitionAt, p.Steady+time.Duration(i)*w.TransitionGap+jitter(w.TransitionGap/8))
	}
	p.KillAt = p.Steady + p.Adapt + jitter(100*time.Millisecond)
	for i := 1; i < p.Kills; i++ {
		p.KillPause = append(p.KillPause, jitter(100*time.Millisecond))
	}

	p.drawArrivals(w, rng)
	return p, nil
}

// clientOps is one closed-loop client's seeded op stream.
type clientOps struct {
	rng       *rand.Rand
	regs      int
	readShare float64
}

func newClientOps(seed int64, client int, w Workload) *clientOps {
	return &clientOps{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client) + 1)), regs: w.Regs, readShare: w.ReadShare}
}

func (c *clientOps) next() (reg int, read bool) {
	return c.rng.Intn(c.regs), c.rng.Float64() < c.readShare
}
