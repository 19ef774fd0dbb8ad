// Package detector implements the failure-detection substrate used by
// all duplex FTMs: a heartbeat emitter on each replica and a phi-accrual
// watchdog that grades each peer's silence into a continuous suspicion
// level (the paper's "dedicated entity (e.g., heartbeat, watchdog)" that
// triggers recovery, upgraded from a binary timeout to a measured
// inter-arrival model — see phi.go).
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

// Heartbeater periodically sends heartbeats to a set of peers. Sends
// fan out concurrently with a per-send timeout, so one slow
// (gray-failed) peer cannot stall the others' beats and make healthy
// peers look silent.
type Heartbeater struct {
	ep          transport.Endpoint
	interval    time.Duration
	sendTimeout time.Duration
	peers       []transport.Address // fixed at construction

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewHeartbeater returns a heartbeater sending to peers every interval.
// Call Start to begin and Stop to halt (simulating the silence of a
// crashed replica).
func NewHeartbeater(ep transport.Endpoint, interval time.Duration, peers ...transport.Address) *Heartbeater {
	return &Heartbeater{
		ep:       ep,
		interval: interval,
		// One full interval is the natural deadline: a send still in
		// flight when the next beat is due is doing the watchdog's peer no
		// good anyway.
		sendTimeout: interval,
		peers:       append([]transport.Address(nil), peers...),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
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

// beat fans one heartbeat out to every peer concurrently. Each send
// carries its own timeout and runs in its own goroutine: a peer that
// accepts bytes slowly (gray failure) delays only its own beat, and
// beat itself never waits — the next tick's sends overlap a stalled
// one rather than queueing behind it.
func (h *Heartbeater) beat() {
	timeout := h.sendTimeout
	if timeout <= 0 {
		timeout = h.interval
	}
	for _, p := range h.peers {
		go func(p transport.Address) {
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			// Heartbeats are fire-and-forget; a dead peer's error is the
			// watchdog's business, not ours. A timed-out send is worth
			// counting, though: it is the emitting side's first sign of a
			// gray peer.
			if err := h.ep.Send(ctx, p, KindHeartbeat, []byte(h.ep.Addr())); err != nil {
				if ctx.Err() != nil {
					mHeartbeatsStalled.Inc()
				}
				return
			}
			mHeartbeatsSent.Inc()
		}(p)
	}
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

// peerState is one watched peer's model and graded verdict.
type peerState struct {
	est   *PhiEstimator
	state State
	// anchored is when Monitor started the grace period (the estimator
	// is empty until the first heartbeat lands).
	anchored time.Time
	// freshBeats counts consecutive qualifying arrivals while
	// suspected/evicted, toward RecoveryBeats.
	freshBeats int
	// silentSince snapshots est.LastSeen() when suspicion fired.
	silentSince time.Time
}

// Watchdog monitors heartbeat arrivals and grades each watched peer's
// silence on the φ scale, reporting state transitions with hysteresis.
type Watchdog struct {
	cfg Config

	mu       sync.Mutex
	peers    map[transport.Address]*peerState
	onChange func(Transition)
	now      func() time.Time
	// skewNs is an injected clock offset in nanoseconds. The grading
	// loop, φ reads and silence reads all run against now()+skew, so a
	// chaos campaign can drift one replica's failure-detection clock the
	// way an unsynchronized or stepped system clock would. Atomic: the
	// readers do not hold mu.
	skewNs atomic.Int64

	stop   chan struct{}
	done   chan struct{}
	once   sync.Once
	detach func()
}

// SetSkew shifts the watchdog's notion of the current time by d —
// positive skew makes every silence look longer, driving φ up; the
// clock-skew fault of the chaos repertoire. Safe on a running watchdog.
func (w *Watchdog) SetSkew(d time.Duration) { w.skewNs.Store(int64(d)) }

// Skew returns the currently injected clock offset.
func (w *Watchdog) Skew() time.Duration { return time.Duration(w.skewNs.Load()) }

// clock is the time source every grading and reading path uses: the
// configured now() plus the injected skew.
func (w *Watchdog) clock() time.Time {
	t := w.now()
	if s := w.skewNs.Load(); s != 0 {
		t = t.Add(time.Duration(s))
	}
	return t
}

// beatHub fans one endpoint's heartbeat arrivals out to every watchdog
// attached to it. With one watchdog per endpoint (the classic shape)
// it is a single indirection; with several — N shard detectors in one
// daemon — it is what keeps each watchdog fed, where registering each
// watchdog's own handler would leave only the last one receiving beats
// and the others suspecting live peers.
type beatHub struct {
	mu       sync.Mutex
	watchers []*Watchdog
	// dead marks a hub that emptied and left the registry; a racing
	// attach must build a fresh hub instead of joining a corpse.
	dead bool
}

// beatHubs maps live endpoints to their hub; an entry exists only
// while at least one watchdog is attached, so stopped test systems do
// not pin their endpoints (and the composites the endpoint handlers
// close over).
var beatHubs sync.Map // transport.Endpoint -> *beatHub

// attachBeats subscribes w to ep's heartbeat stream and returns the
// detach hook.
func attachBeats(ep transport.Endpoint, w *Watchdog) func() {
	for {
		v, _ := beatHubs.LoadOrStore(ep, &beatHub{})
		hub := v.(*beatHub)
		if hub.add(ep, w) {
			return func() { hub.remove(ep, w) }
		}
		beatHubs.CompareAndDelete(ep, hub)
	}
}

// add subscribes w, installing the endpoint handler on first use.
// Returns false if the hub is dead.
func (h *beatHub) add(ep transport.Endpoint, w *Watchdog) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.dead {
		return false
	}
	if len(h.watchers) == 0 {
		ep.Handle(KindHeartbeat, func(ctx context.Context, p transport.Packet) ([]byte, error) {
			h.dispatch(p.From)
			return nil, nil
		})
	}
	h.watchers = append(h.watchers, w)
	return true
}

func (h *beatHub) remove(ep transport.Endpoint, w *Watchdog) {
	h.mu.Lock()
	for i, x := range h.watchers {
		if x == w {
			h.watchers = append(h.watchers[:i], h.watchers[i+1:]...)
			break
		}
	}
	dead := len(h.watchers) == 0
	if dead {
		// Uninstall before the death of the hub becomes observable: a
		// racing attach builds its replacement hub only after seeing
		// dead under this lock, so its Handle strictly follows this one.
		ep.Handle(KindHeartbeat, nil)
		h.dead = true
	}
	h.mu.Unlock()
	if dead {
		beatHubs.CompareAndDelete(ep, h)
	}
}

// dispatch folds one arrival into every attached watchdog; each one
// ignores peers it does not Monitor.
func (h *beatHub) dispatch(from transport.Address) {
	h.mu.Lock()
	n := len(h.watchers)
	var solo *Watchdog
	var all []*Watchdog
	if n == 1 {
		solo = h.watchers[0]
	} else if n > 1 {
		all = append(all, h.watchers...)
	}
	h.mu.Unlock()
	if solo != nil {
		solo.observe(from)
		return
	}
	for _, w := range all {
		w.observe(from)
	}
}

// NewWatchdog returns a watchdog attached to ep with thresholds derived
// from the classic silence timeout: the bootstrap check fires at
// timeout, and the deviation floor scales with it so φ thresholds
// behave sensibly across interval regimes. onChange fires once per
// state transition. Monitor must be called for each watched peer.
func NewWatchdog(ep transport.Endpoint, timeout time.Duration, onChange func(Transition)) *Watchdog {
	cfg := Config{BootstrapTimeout: timeout}
	return NewPhiWatchdog(ep, cfg, onChange)
}

// NewPhiWatchdog returns a watchdog attached to ep with explicit
// phi-accrual tuning.
func NewPhiWatchdog(ep transport.Endpoint, cfg Config, onChange func(Transition)) *Watchdog {
	w := &Watchdog{
		cfg:      cfg.withDefaults(),
		peers:    make(map[transport.Address]*peerState),
		onChange: onChange,
		now:      time.Now,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	w.detach = attachBeats(ep, w)
	return w
}

// phiOf computes the pause-adjusted suspicion level: the acceptable
// pause is deducted from the silence first, so φ accrues only against
// the part of the silence the arrival model cannot excuse.
func (w *Watchdog) phiOf(ps *peerState, now time.Time) float64 {
	return ps.est.Phi(now.Add(-w.cfg.AcceptablePause))
}

// Monitor begins watching a peer; the grace period starts now. The
// anchor is recorded on the real clock, like arrivals: the skewed
// clock belongs to the grading side only (see observe).
func (w *Watchdog) Monitor(peer transport.Address) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.peers[peer] = &peerState{
		est:      NewPhiEstimator(w.cfg.Window, w.cfg.MinStdDev),
		anchored: w.now(),
	}
}

// Forget stops watching a peer.
func (w *Watchdog) Forget(peer transport.Address) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.peers, peer)
	peerPhiGauge(string(peer)).Set(0)
}

// observe folds one heartbeat arrival into the peer's model and applies
// the recovery leg of the hysteresis: a suspected peer returns to alive
// only after RecoveryBeats consecutive arrivals, each observed with φ
// already back below RecoveryPhi.
func (w *Watchdog) observe(peer transport.Address) {
	// Arrivals are external events: record them on the real clock. Only
	// the grading side (check, φ and silence reads) runs on the skewed
	// clock — if both sides were skewed the offset would cancel after
	// the first post-skew arrival and injected skew could never
	// manufacture the sustained false suspicion it exists to model.
	arrival := w.now()
	now := w.clock()
	w.mu.Lock()
	ps, watched := w.peers[peer]
	if !watched {
		w.mu.Unlock()
		return
	}
	gap := arrival.Sub(ps.est.LastSeen())
	if ps.est.LastSeen().IsZero() {
		gap = arrival.Sub(ps.anchored)
	}
	if dt := ps.est.Observe(arrival); dt > 0 {
		peerInterarrival(string(peer)).Observe(dt)
	}
	var tr *Transition
	if ps.state != StateAlive {
		if w.phiOf(ps, now) < w.cfg.RecoveryPhi {
			ps.freshBeats++
		} else {
			ps.freshBeats = 0
		}
		if ps.freshBeats >= w.cfg.RecoveryBeats {
			tr = &Transition{
				Peer: peer, From: ps.state, To: StateAlive,
				Phi: w.phiOf(ps, now), Silence: gap, SilentSince: ps.silentSince,
			}
			ps.state = StateAlive
			ps.freshBeats = 0
			ps.silentSince = time.Time{}
		}
	}
	cb := w.onChange
	w.mu.Unlock()
	if tr != nil {
		mRecoveries.Inc()
		telemetry.Emit("detector", "recovered", tr.Silence,
			"peer", string(peer), "phi", fmt.Sprintf("%.2f", tr.Phi))
		if cb != nil {
			cb(*tr)
		}
	}
}

// Suspected reports whether peer is currently suspected (or worse).
func (w *Watchdog) Suspected(peer transport.Address) bool {
	return w.PeerState(peer) >= StateSuspected
}

// PeerState returns the peer's current graded state (StateAlive for
// unwatched peers).
func (w *Watchdog) PeerState(peer transport.Address) State {
	w.mu.Lock()
	defer w.mu.Unlock()
	if ps, ok := w.peers[peer]; ok {
		return ps.state
	}
	return StateAlive
}

// Phi returns the peer's current suspicion level (zero for unwatched
// peers or before any heartbeat).
func (w *Watchdog) Phi(peer transport.Address) float64 {
	w.mu.Lock()
	ps, ok := w.peers[peer]
	w.mu.Unlock()
	if !ok {
		return 0
	}
	return w.phiOf(ps, w.clock())
}

// SilentFor returns how long the peer has been silent (zero for
// unwatched peers; measured from Monitor before the first heartbeat).
func (w *Watchdog) SilentFor(peer transport.Address) time.Duration {
	now := w.clock()
	w.mu.Lock()
	defer w.mu.Unlock()
	ps, ok := w.peers[peer]
	if !ok {
		return 0
	}
	last := ps.est.LastSeen()
	if last.IsZero() {
		last = ps.anchored
	}
	return now.Sub(last)
}

// InterarrivalQuantile returns the q-quantile of the peer's observed
// heartbeat inter-arrival times (zero for unwatched peers or an empty
// window) — heartbeat jitter as a health signal.
func (w *Watchdog) InterarrivalQuantile(peer transport.Address, q float64) time.Duration {
	w.mu.Lock()
	ps, ok := w.peers[peer]
	w.mu.Unlock()
	if !ok {
		return 0
	}
	return ps.est.Quantile(q)
}

// MaxPhi returns the highest current suspicion level across watched
// peers (zero with none) — the scalar a host health collector reads.
func (w *Watchdog) MaxPhi() float64 {
	now := w.clock()
	w.mu.Lock()
	defer w.mu.Unlock()
	var max float64
	for _, ps := range w.peers {
		if p := w.phiOf(ps, now); p > max {
			max = p
		}
	}
	return max
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

// check grades every watched peer: φ against the suspect and evict
// thresholds once the model has enough samples, the bootstrap silence
// timeout before that. Transitions fire outside the lock.
func (w *Watchdog) check() {
	now := w.clock()
	var fired []Transition
	w.mu.Lock()
	cb := w.onChange
	for peer, ps := range w.peers {
		phi := w.phiOf(ps, now)
		peerPhiGauge(string(peer)).Set(int64(phi * 1000))

		last := ps.est.LastSeen()
		if last.IsZero() {
			last = ps.anchored
		}
		silence := now.Sub(last)

		// Grade the silence: with a trusted model, on the φ scale; while
		// bootstrapping, against the binary timeout (evict at 4× it, the
		// same severity ratio the defaults give φ).
		var to State
		if ps.est.Samples() >= w.cfg.MinSamples {
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

		// Only escalations happen here: de-escalation (recovery) is
		// driven by arrivals in observe, where the hysteresis lives.
		if to > ps.state {
			tr := Transition{
				Peer: peer, From: ps.state, To: to,
				Phi: phi, Silence: silence, SilentSince: last,
			}
			if ps.state == StateAlive {
				ps.silentSince = last
			}
			ps.state = to
			ps.freshBeats = 0
			fired = append(fired, tr)
		}
	}
	w.mu.Unlock()

	for _, tr := range fired {
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
		if cb != nil {
			cb(tr)
		}
	}
}

// Stop halts the watchdog and detaches it from its endpoint's
// heartbeat stream. Safe to call more than once.
func (w *Watchdog) Stop() {
	w.once.Do(func() {
		close(w.stop)
		if w.detach != nil {
			w.detach()
		}
	})
	<-w.done
}
