// Package detector implements the failure-detection substrate used by
// all duplex FTMs: a heartbeat emitter and a phi-accrual watchdog that
// grades one peer's silence into a continuous suspicion level (the
// paper's "dedicated entity (e.g., heartbeat, watchdog)" that triggers
// recovery, upgraded from a binary timeout to a measured inter-arrival
// model — see phi.go). A host runs one pair of them per peer process.
package detector

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"resilientft/internal/telemetry"
	"resilientft/internal/transport"
)

// KindHeartbeat is the transport message kind of heartbeats.
const KindHeartbeat = "fd.heartbeat"

// Heartbeater periodically sends heartbeats to one peer. Each send
// carries a one-interval timeout, so a peer that accepts bytes slowly
// (gray failure) costs at most the beats that fall due while the send is
// stalled, and the loop resumes on the next tick once the link clears.
type Heartbeater struct {
	ep       transport.Endpoint
	peer     transport.Address
	interval time.Duration

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewHeartbeater returns a heartbeater sending to peer every interval.
// Call Start to begin and Stop to halt (simulating the silence of a
// crashed replica).
func NewHeartbeater(ep transport.Endpoint, interval time.Duration, peer transport.Address) *Heartbeater {
	return &Heartbeater{
		ep:       ep,
		peer:     peer,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the heartbeat loop.
func (h *Heartbeater) Start() {
	go func() {
		defer close(h.done)
		ticker := time.NewTicker(h.interval)
		defer ticker.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-ticker.C:
				h.beat()
			}
		}
	}()
}

// beat sends one heartbeat. One full interval is the natural deadline: a
// send still in flight when the next beat is due is doing the peer's
// watchdog no good anyway.
func (h *Heartbeater) beat() {
	ctx, cancel := context.WithTimeout(context.Background(), h.interval)
	defer cancel()
	// Heartbeats are fire-and-forget; a dead peer's error is the
	// watchdog's business, not ours. A timed-out send is worth counting,
	// though: it is the emitting side's first sign of a gray peer.
	if err := h.ep.Send(ctx, h.peer, KindHeartbeat, []byte(h.ep.Addr())); err != nil {
		if ctx.Err() != nil {
			mHeartbeatsStalled.Inc()
		}
		return
	}
	mHeartbeatsSent.Inc()
}

// Stop halts the heartbeat loop. Safe to call more than once.
func (h *Heartbeater) Stop() {
	h.once.Do(func() { close(h.stop) })
	<-h.done
}

// State grades a watched peer.
type State int

// Peer states, ordered by severity.
const (
	// StateAlive: heartbeats arriving as modelled.
	StateAlive State = iota
	// StateSuspected: φ crossed the suspect threshold — failover
	// machinery engages, but the verdict is revocable.
	StateSuspected
	// StateEvicted: φ crossed the evict threshold — the silence is so
	// far outside the observed distribution the peer is treated as gone
	// for placement purposes until heartbeats durably resume.
	StateEvicted
)

// String renders the state.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspected:
		return "suspected"
	case StateEvicted:
		return "evicted"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Transition reports one peer state change, with the evidence a
// post-mortem needs: the suspicion level at the flip and how long the
// peer had been silent — so operators can tell a flap (short silence,
// quick recovery) from a hard crash (silence that keeps growing).
type Transition struct {
	Peer transport.Address
	// From and To are the states the peer moved between.
	From, To State
	// Phi is the suspicion level when the transition fired.
	Phi float64
	// Silence is how long the peer had been silent at the transition
	// (for recoveries: the gap the resumed heartbeat closed).
	Silence time.Duration
	// SilentSince is the arrival time of the last heartbeat before the
	// transition.
	SilentSince time.Time
}

// Suspected reports whether the transition's target state counts as
// suspected (suspected or evicted).
func (t Transition) Suspected() bool { return t.To >= StateSuspected }

// Config tunes the phi-accrual watchdog.
type Config struct {
	// SuspectPhi is the suspicion level raising StateSuspected
	// (default 8: the observed silence would occur by chance once in
	// 10^8 heartbeats).
	SuspectPhi float64
	// EvictPhi is the suspicion level raising StateEvicted (default 16).
	EvictPhi float64
	// RecoveryPhi is the level φ must fall below before a suspected
	// peer can return to StateAlive (default SuspectPhi/2) — the lower
	// leg of the hysteresis band.
	RecoveryPhi float64
	// RecoveryBeats is how many consecutive arrivals a suspected peer
	// must deliver (each with φ below RecoveryPhi at arrival) before it
	// is unsuspected (default 3) — the other leg: one lucky heartbeat
	// in a long silence does not clear the verdict.
	RecoveryBeats int
	// MinSamples is the inter-arrival sample count below which the
	// model is not trusted and the BootstrapTimeout silence check
	// applies instead (default 8).
	MinSamples int
	// BootstrapTimeout is the binary silence timeout used until the
	// window holds MinSamples (default 8× the expected interval when
	// derived through NewWatchdog, else 500ms).
	BootstrapTimeout time.Duration
	// AcceptablePause is subtracted from the silence before φ is
	// computed (equivalently: added to the modelled mean), absorbing
	// scheduler hiccups and GC pauses that are not evidence of failure
	// (default BootstrapTimeout/2).
	AcceptablePause time.Duration
	// EvictSilence is the minimum raw silence for an eviction verdict,
	// however high φ accrues (default 2× BootstrapTimeout): eviction is
	// the placement-affecting verdict and must mean sustained death,
	// not one sharp spike of the φ curve.
	EvictSilence time.Duration
	// Window is the inter-arrival history size (default DefaultWindow).
	Window int
	// MinStdDev floors the modelled deviation (default
	// BootstrapTimeout/20, at least 1ms).
	MinStdDev time.Duration
}

// DefaultSuspectPhi is the default suspicion threshold: silence this
// unlikely occurs by chance once in 10^8 heartbeats.
const DefaultSuspectPhi = 8

func (c Config) withDefaults() Config {
	if c.SuspectPhi <= 0 {
		c.SuspectPhi = DefaultSuspectPhi
	}
	if c.EvictPhi <= c.SuspectPhi {
		c.EvictPhi = 2 * c.SuspectPhi
	}
	if c.RecoveryPhi <= 0 || c.RecoveryPhi >= c.SuspectPhi {
		c.RecoveryPhi = c.SuspectPhi / 2
	}
	if c.RecoveryBeats <= 0 {
		c.RecoveryBeats = 3
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.BootstrapTimeout <= 0 {
		c.BootstrapTimeout = 500 * time.Millisecond
	}
	if c.AcceptablePause <= 0 {
		c.AcceptablePause = c.BootstrapTimeout / 2
	}
	if c.EvictSilence <= 0 {
		c.EvictSilence = 2 * c.BootstrapTimeout
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.MinStdDev <= 0 {
		c.MinStdDev = c.BootstrapTimeout / 20
		if c.MinStdDev < time.Millisecond {
			c.MinStdDev = time.Millisecond
		}
	}
	return c
}

// Watchdog grades one peer's heartbeat silence on the φ scale and
// reports its state transitions with hysteresis. Whoever receives the
// peer's heartbeats feeds them to Observe.
type Watchdog struct {
	cfg      Config
	peer     transport.Address
	onChange func(Transition)
	now      func() time.Time
	// skewNs is an injected clock offset in nanoseconds. The grading
	// loop and φ reads run against now()+skew, so a chaos campaign can
	// drift one host's failure-detection clock the way an
	// unsynchronized or stepped system clock would. Atomic: the readers
	// do not hold mu.
	skewNs atomic.Int64

	phiGauge     *telemetry.Gauge
	interarrival *telemetry.Histogram

	mu    sync.Mutex
	est   *PhiEstimator
	state State
	// anchored is when the grace period started (construction or the
	// last Reset); the estimator is empty until the first heartbeat lands.
	anchored time.Time
	// freshBeats counts consecutive qualifying arrivals while
	// suspected/evicted, toward RecoveryBeats.
	freshBeats int
	// silentSince snapshots est.LastSeen() when suspicion fired.
	silentSince time.Time

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewWatchdog returns a watchdog of peer with thresholds derived from
// the classic silence timeout: the bootstrap check fires at timeout, and
// the deviation floor scales with it so φ thresholds behave sensibly
// across interval regimes. onChange fires once per state transition.
func NewWatchdog(peer transport.Address, timeout time.Duration, onChange func(Transition)) *Watchdog {
	return NewPhiWatchdog(peer, Config{BootstrapTimeout: timeout}, onChange)
}

// NewPhiWatchdog returns a watchdog of peer with explicit phi-accrual
// tuning. The grace period starts now.
func NewPhiWatchdog(peer transport.Address, cfg Config, onChange func(Transition)) *Watchdog {
	w := &Watchdog{
		cfg:          cfg.withDefaults(),
		peer:         peer,
		onChange:     onChange,
		now:          time.Now,
		phiGauge:     peerPhiGauge(string(peer)),
		interarrival: peerInterarrival(string(peer)),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	w.Reset()
	return w
}

// SetSkew shifts the watchdog's notion of the current time by d —
// positive skew makes every silence look longer, driving φ up; the
// clock-skew fault of the chaos repertoire. Safe on a running watchdog.
func (w *Watchdog) SetSkew(d time.Duration) { w.skewNs.Store(int64(d)) }

// clock is the time source every grading and reading path uses: the
// configured now() plus the injected skew.
func (w *Watchdog) clock() time.Time {
	t := w.now()
	if s := w.skewNs.Load(); s != 0 {
		t = t.Add(time.Duration(s))
	}
	return t
}

// Reset re-anchors the model: the window empties, the verdict returns to
// alive and a fresh grace period starts. Out-of-band proof of life uses
// it, so that a suspicion the heartbeats have not yet cleared cannot mask
// the next real silence. The anchor is recorded on the real clock, like
// arrivals: the skewed clock belongs to the grading side only (see
// Observe).
func (w *Watchdog) Reset() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.est = NewPhiEstimator(w.cfg.Window, w.cfg.MinStdDev)
	w.state = StateAlive
	w.anchored = w.now()
	w.freshBeats = 0
	w.silentSince = time.Time{}
	w.phiGauge.Set(0)
}

// phiLocked computes the pause-adjusted suspicion level: the acceptable
// pause is deducted from the silence first, so φ accrues only against
// the part of the silence the arrival model cannot excuse.
func (w *Watchdog) phiLocked(now time.Time) float64 {
	return w.est.Phi(now.Add(-w.cfg.AcceptablePause))
}

// Observe folds one heartbeat arrival into the model and applies the
// recovery leg of the hysteresis: a suspected peer returns to alive only
// after RecoveryBeats consecutive arrivals, each observed with φ already
// back below RecoveryPhi.
func (w *Watchdog) Observe() {
	// Arrivals are external events: record them on the real clock. Only
	// the grading side (check and φ reads) runs on the skewed clock — if
	// both sides were skewed the offset would cancel after the first
	// post-skew arrival and injected skew could never manufacture the
	// sustained false suspicion it exists to model.
	arrival := w.now()
	now := w.clock()
	w.mu.Lock()
	last := w.est.LastSeen()
	if last.IsZero() {
		last = w.anchored
	}
	gap := arrival.Sub(last)
	if dt := w.est.Observe(arrival); dt > 0 {
		w.interarrival.Observe(dt)
	}
	var tr *Transition
	if w.state != StateAlive {
		if w.phiLocked(now) < w.cfg.RecoveryPhi {
			w.freshBeats++
		} else {
			w.freshBeats = 0
		}
		if w.freshBeats >= w.cfg.RecoveryBeats {
			tr = &Transition{
				Peer: w.peer, From: w.state, To: StateAlive,
				Phi: w.phiLocked(now), Silence: gap, SilentSince: w.silentSince,
			}
			w.state = StateAlive
			w.freshBeats = 0
			w.silentSince = time.Time{}
		}
	}
	w.mu.Unlock()
	if tr != nil {
		mRecoveries.Inc()
		telemetry.Emit("detector", "recovered", tr.Silence,
			"peer", string(w.peer), "phi", fmt.Sprintf("%.2f", tr.Phi))
		if w.onChange != nil {
			w.onChange(*tr)
		}
	}
}

// Suspected reports whether the peer is currently suspected (or worse).
func (w *Watchdog) Suspected() bool { return w.State() >= StateSuspected }

// State returns the peer's current graded state.
func (w *Watchdog) State() State {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state
}

// Phi returns the peer's current suspicion level (zero before any
// heartbeat) — the scalar the host's heartbeat health collector reads.
func (w *Watchdog) Phi() float64 {
	now := w.clock()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.phiLocked(now)
}

// Start launches the periodic grading check (at a quarter of the
// bootstrap timeout).
func (w *Watchdog) Start() {
	go func() {
		defer close(w.done)
		period := w.cfg.BootstrapTimeout / 4
		if period <= 0 {
			period = time.Millisecond
		}
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-ticker.C:
				w.check()
			}
		}
	}()
}

// check grades the peer: φ against the suspect and evict thresholds once
// the model has enough samples, the bootstrap silence timeout before
// that. A transition fires outside the lock.
func (w *Watchdog) check() {
	now := w.clock()
	w.mu.Lock()
	phi := w.phiLocked(now)
	w.phiGauge.Set(int64(phi * 1000))

	last := w.est.LastSeen()
	if last.IsZero() {
		last = w.anchored
	}
	silence := now.Sub(last)

	// Grade the silence: with a trusted model, on the φ scale; while
	// bootstrapping, against the binary timeout (evict at 4× it, the
	// same severity ratio the defaults give φ).
	var to State
	if w.est.Samples() >= w.cfg.MinSamples {
		switch {
		case phi >= w.cfg.EvictPhi && silence >= w.cfg.EvictSilence:
			to = StateEvicted
		case phi >= w.cfg.SuspectPhi:
			to = StateSuspected
		default:
			to = StateAlive
		}
	} else {
		switch {
		case silence >= w.cfg.EvictSilence:
			to = StateEvicted
		case silence > w.cfg.BootstrapTimeout:
			to = StateSuspected
		default:
			to = StateAlive
		}
	}

	// Only escalations happen here: de-escalation (recovery) is driven
	// by arrivals in Observe, where the hysteresis lives.
	if to <= w.state {
		w.mu.Unlock()
		return
	}
	tr := Transition{
		Peer: w.peer, From: w.state, To: to,
		Phi: phi, Silence: silence, SilentSince: last,
	}
	if w.state == StateAlive {
		w.silentSince = last
	}
	w.state = to
	w.freshBeats = 0
	w.mu.Unlock()

	switch tr.To {
	case StateSuspected:
		mSuspicions.Inc()
		telemetry.Emit("detector", "suspected", tr.Silence,
			"peer", string(tr.Peer), "phi", fmt.Sprintf("%.2f", tr.Phi))
	case StateEvicted:
		mEvictions.Inc()
		telemetry.Emit("detector", "evicted", tr.Silence,
			"peer", string(tr.Peer), "phi", fmt.Sprintf("%.2f", tr.Phi))
	}
	if w.onChange != nil {
		w.onChange(tr)
	}
}

// Stop halts the grading loop. Safe to call more than once.
func (w *Watchdog) Stop() {
	w.once.Do(func() { close(w.stop) })
	<-w.done
}
