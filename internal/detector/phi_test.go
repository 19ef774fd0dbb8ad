package detector

import (
	"math/rand"
	"testing"
	"time"

	"resilientft/internal/transport"
)

// fakeClock drives the watchdog deterministically.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time               { return c.t }
func (c *fakeClock) advance(d time.Duration)      { c.t = c.t.Add(d) }
func (c *fakeClock) at(d time.Duration) time.Time { return c.t.Add(d) }

func TestPhiMonotonicUnderGrowingSilence(t *testing.T) {
	clk := newFakeClock()
	est := NewPhiEstimator(64, time.Millisecond)
	// Regular 10ms arrivals fill the window.
	for i := 0; i < 64; i++ {
		est.Observe(clk.t)
		clk.advance(10 * time.Millisecond)
	}
	// φ must be non-decreasing as the silence grows, and must cross any
	// fixed threshold eventually (no plateau below it).
	prev := -1.0
	crossed8, crossed16 := false, false
	for silence := time.Duration(0); silence <= 2*time.Second; silence += 5 * time.Millisecond {
		phi := est.Phi(clk.at(silence))
		if phi < prev {
			t.Fatalf("phi decreased under growing silence: %v at silence %v (prev %v)", phi, silence, prev)
		}
		prev = phi
		if phi >= 8 {
			crossed8 = true
		}
		if phi >= 16 {
			crossed16 = true
		}
	}
	if !crossed8 || !crossed16 {
		t.Fatalf("phi never crossed thresholds under 2s of silence: final %v", prev)
	}
}

func TestPhiLowWhileArrivalsMatchModel(t *testing.T) {
	clk := newFakeClock()
	est := NewPhiEstimator(64, time.Millisecond)
	rng := rand.New(rand.NewSource(7))
	// Jittered arrivals: 10ms ± 3ms.
	for i := 0; i < 200; i++ {
		est.Observe(clk.t)
		clk.advance(10*time.Millisecond + time.Duration(rng.Intn(6000)-3000)*time.Microsecond)
	}
	// Right at the expected next arrival, suspicion must be negligible.
	if phi := est.Phi(est.LastSeen().Add(10 * time.Millisecond)); phi > 2 {
		t.Fatalf("phi %v at one expected interval of silence, want < 2", phi)
	}
}

func TestPhiEstimatorQuantile(t *testing.T) {
	clk := newFakeClock()
	est := NewPhiEstimator(8, time.Millisecond)
	for _, ms := range []int{10, 20, 30, 40, 50, 60, 70, 80, 90} {
		_ = ms
		est.Observe(clk.t)
		clk.advance(10 * time.Millisecond)
	}
	if q := est.Quantile(0.5); q != 10*time.Millisecond {
		t.Fatalf("median inter-arrival %v, want 10ms", q)
	}
	if q := est.Quantile(0.99); q != 10*time.Millisecond {
		t.Fatalf("p99 inter-arrival %v, want 10ms", q)
	}
}

// deterministicWatchdog builds a watchdog of peer whose clock the test
// owns; heartbeats are injected via Observe.
func deterministicWatchdog(peer transport.Address, cfg Config, onChange func(Transition)) (*Watchdog, *fakeClock) {
	w := NewPhiWatchdog(peer, cfg, onChange)
	clk := newFakeClock()
	w.now = clk.now
	w.Reset() // re-anchor the grace period on the test's clock
	return w, clk
}

// TestNoFlappingAroundThreshold is the hysteresis property test: a peer
// whose heartbeats arrive at jittered intervals straddling the nominal
// interval — occasionally stretching far enough to brush the suspect
// threshold — must not oscillate suspect/alive on every brush. The
// recovery band (RecoveryPhi + RecoveryBeats) bounds the transition
// count to the number of genuine long gaps, not the number of samples.
func TestNoFlappingAroundThreshold(t *testing.T) {
	var transitions []Transition
	cfg := Config{
		SuspectPhi:       8,
		BootstrapTimeout: 80 * time.Millisecond,
		AcceptablePause:  time.Nanosecond, // isolate the φ hysteresis itself
		MinStdDev:        time.Millisecond,
	}
	const peer = transport.Address("jittery")
	w, clk := deterministicWatchdog(peer, cfg, func(tr Transition) {
		transitions = append(transitions, tr)
	})

	rng := rand.New(rand.NewSource(42))
	// Phase 1: regular 10ms±1ms arrivals train the model.
	for i := 0; i < 100; i++ {
		clk.advance(10*time.Millisecond + time.Duration(rng.Intn(2000)-1000)*time.Microsecond)
		w.Observe()
		w.check()
	}
	if len(transitions) != 0 {
		t.Fatalf("transitions during stable phase: %v", transitions)
	}

	// Phase 2: heavy jitter around the effective threshold. With mean
	// ~10ms and σ floored at 1ms, φ=8 sits near 15ms of silence; gaps
	// drawn from 5..25ms brush both sides of it continuously. Check
	// runs between arrivals as the silence peaks.
	for i := 0; i < 400; i++ {
		gap := 5*time.Millisecond + time.Duration(rng.Intn(20))*time.Millisecond
		// Grade mid-gap and at the end of the gap, like the periodic
		// checker would.
		clk.advance(gap / 2)
		w.check()
		clk.advance(gap - gap/2)
		w.check()
		w.Observe()
	}

	// Without hysteresis every threshold brush would flip the state:
	// hundreds of transitions. With the recovery band, each suspicion
	// needs RecoveryBeats clean arrivals to clear, so the pair count is
	// bounded by the genuine long-gap count — empirically a handful.
	// The property under test: orders of magnitude fewer transitions
	// than threshold brushes, and never an eviction.
	if len(transitions) > 40 {
		t.Fatalf("detector flapped: %d transitions across 400 jittered beats", len(transitions))
	}
	for _, tr := range transitions {
		if tr.To == StateEvicted {
			t.Fatalf("jittery-but-alive peer was evicted: %+v", tr)
		}
	}
}

// TestRecoveryRequiresConsecutiveBeats: one heartbeat inside a long
// silence must not clear a suspicion; RecoveryBeats of them must.
func TestRecoveryRequiresConsecutiveBeats(t *testing.T) {
	var transitions []Transition
	cfg := Config{
		SuspectPhi:       8,
		RecoveryBeats:    3,
		BootstrapTimeout: 80 * time.Millisecond,
		AcceptablePause:  time.Nanosecond,
		EvictSilence:     time.Hour, // keep the verdict in the suspect band
		MinStdDev:        time.Millisecond,
	}
	const peer = transport.Address("lazarus")
	w, clk := deterministicWatchdog(peer, cfg, func(tr Transition) {
		transitions = append(transitions, tr)
	})
	for i := 0; i < 50; i++ {
		clk.advance(10 * time.Millisecond)
		w.Observe()
	}
	w.check()
	if w.Suspected() {
		t.Fatal("suspected while heartbeating regularly")
	}

	// Fall silent long enough to be suspected.
	clk.advance(500 * time.Millisecond)
	w.check()
	if !w.Suspected() {
		t.Fatalf("not suspected after 500ms silence (phi %v)", w.Phi())
	}

	// One heartbeat: still suspected (hysteresis).
	clk.advance(10 * time.Millisecond)
	w.Observe()
	if !w.Suspected() {
		t.Fatal("single heartbeat cleared the suspicion")
	}

	// Two more at the modelled cadence: recovered.
	clk.advance(10 * time.Millisecond)
	w.Observe()
	clk.advance(10 * time.Millisecond)
	w.Observe()
	if w.Suspected() {
		t.Fatal("three consecutive heartbeats did not clear the suspicion")
	}

	last := transitions[len(transitions)-1]
	if last.To != StateAlive || last.From != StateSuspected {
		t.Fatalf("last transition %+v, want suspected->alive", last)
	}
}

// TestEvictionAfterSustainedSilence: the graded verdict escalates
// suspected -> evicted as the silence grows, and both transitions carry
// the silence duration evidence.
func TestEvictionAfterSustainedSilence(t *testing.T) {
	var transitions []Transition
	cfg := Config{
		SuspectPhi:       8,
		EvictPhi:         16,
		BootstrapTimeout: 80 * time.Millisecond,
		MinStdDev:        time.Millisecond,
	}
	const peer = transport.Address("gone")
	w, clk := deterministicWatchdog(peer, cfg, func(tr Transition) {
		transitions = append(transitions, tr)
	})
	for i := 0; i < 50; i++ {
		clk.advance(10 * time.Millisecond)
		w.Observe()
	}

	// Walk the silence out in checker-period steps.
	for i := 0; i < 100; i++ {
		clk.advance(20 * time.Millisecond)
		w.check()
	}
	if got := w.State(); got != StateEvicted {
		t.Fatalf("state after 2s silence = %v, want evicted (phi %v)", got, w.Phi())
	}
	if len(transitions) != 2 {
		t.Fatalf("transitions = %+v, want suspected then evicted", transitions)
	}
	if transitions[0].To != StateSuspected || transitions[1].To != StateEvicted {
		t.Fatalf("transition order %v -> %v, want suspected -> evicted", transitions[0].To, transitions[1].To)
	}
	if transitions[1].Silence < w.cfg.EvictSilence {
		t.Fatalf("eviction carried silence %v, below the %v floor", transitions[1].Silence, w.cfg.EvictSilence)
	}
	if transitions[1].Silence <= transitions[0].Silence {
		t.Fatalf("silence did not grow between suspicion (%v) and eviction (%v)",
			transitions[0].Silence, transitions[1].Silence)
	}
	if transitions[0].SilentSince.IsZero() {
		t.Fatal("suspicion transition lost the silent-since timestamp")
	}
}
