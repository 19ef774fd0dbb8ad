package detector

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resilientft/internal/telemetry"
	"resilientft/internal/transport"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

type changeLog struct {
	mu     sync.Mutex
	events []string
}

func (c *changeLog) record(tr Transition) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, string(tr.Peer)+":"+tr.To.String())
}

func (c *changeLog) list() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.events...)
}

// watch starts a watchdog of peer fed by ep's heartbeat arrivals from
// peer, the way a host wires its detectors.
func watch(t *testing.T, ep transport.Endpoint, peer transport.Address, timeout time.Duration, onChange func(Transition)) *Watchdog {
	t.Helper()
	w := NewWatchdog(peer, timeout, onChange)
	ep.Handle(KindHeartbeat, func(ctx context.Context, p transport.Packet) ([]byte, error) {
		if p.From == peer {
			w.Observe()
		}
		return nil, nil
	})
	w.Start()
	t.Cleanup(w.Stop)
	return w
}

// samples returns how many inter-arrival gaps the watchdog's window
// holds: the arrival count a test waits on instead of sleeping.
func samples(w *Watchdog) int {
	w.mu.Lock()
	est := w.est
	w.mu.Unlock()
	return est.Samples()
}

func TestWatchdogDetectsSilence(t *testing.T) {
	n := transport.NewMemNetwork()
	aEp, _ := n.Endpoint("a")
	bEp, _ := n.Endpoint("b")

	log := &changeLog{}
	w := watch(t, aEp, "b", 50*time.Millisecond, log.record)
	hb := NewHeartbeater(bEp, 10*time.Millisecond, "a")
	hb.Start()

	// While heartbeating, no suspicion should form.
	waitFor(t, 2*time.Second, func() bool { return samples(w) >= 12 }, "heartbeats never arrived")
	if w.Suspected() {
		t.Fatal("peer suspected while heartbeating")
	}

	// Crash: heartbeats stop, suspicion must follow.
	hb.Stop()
	waitFor(t, 2*time.Second, w.Suspected, "silent peer never suspected")
	waitFor(t, 2*time.Second, func() bool {
		events := log.list()
		return len(events) > 0 && events[0] == "b:suspected"
	}, "suspicion not reported as the first transition")
}

func TestWatchdogRecoversOnHeartbeatResume(t *testing.T) {
	n := transport.NewMemNetwork()
	aEp, _ := n.Endpoint("a")
	bEp, _ := n.Endpoint("b")

	w := watch(t, aEp, "b", 40*time.Millisecond, nil)
	waitFor(t, 2*time.Second, w.Suspected, "silent peer never suspected")

	hb := NewHeartbeater(bEp, 10*time.Millisecond, "a")
	hb.Start()
	defer hb.Stop()
	waitFor(t, 2*time.Second, func() bool { return !w.Suspected() }, "peer never un-suspected after resume")
}

// TestWatchdogReset: Reset clears a standing suspicion and re-arms the
// verdict, so the next silence is suspected afresh.
func TestWatchdogReset(t *testing.T) {
	var edges atomic.Int32 // alive -> suspected (or worse)
	w := NewWatchdog("b", 20*time.Millisecond, func(tr Transition) {
		if tr.From == StateAlive {
			edges.Add(1)
		}
	})
	w.Start()
	defer w.Stop()
	waitFor(t, 2*time.Second, w.Suspected, "peer never suspected")
	w.Reset()
	if w.Suspected() {
		t.Fatal("reset peer still suspected")
	}
	waitFor(t, 2*time.Second, func() bool { return edges.Load() == 2 },
		"silence after Reset was not suspected afresh")
}

func TestHeartbeaterStopIdempotent(t *testing.T) {
	n := transport.NewMemNetwork()
	ep, _ := n.Endpoint("a")
	hb := NewHeartbeater(ep, 5*time.Millisecond, "b")
	hb.Start()
	hb.Stop()
	hb.Stop() // must not panic or hang
}

func TestPartitionCausesSuspicionBothWaysHeals(t *testing.T) {
	n := transport.NewMemNetwork()
	aEp, _ := n.Endpoint("a")
	bEp, _ := n.Endpoint("b")
	wa := watch(t, aEp, "b", 40*time.Millisecond, nil)
	hb := NewHeartbeater(bEp, 10*time.Millisecond, "a")
	hb.Start()
	defer hb.Stop()

	waitFor(t, 2*time.Second, func() bool { return samples(wa) >= 6 }, "heartbeats never arrived")
	if wa.Suspected() {
		t.Fatal("suspected while connected")
	}
	n.Partition("a", "b")
	waitFor(t, 2*time.Second, wa.Suspected, "partitioned peer never suspected")
	n.Heal("a", "b")
	waitFor(t, 2*time.Second, func() bool { return !wa.Suspected() }, "healed peer never un-suspected")
}

func TestClockSkewManufacturesFalseSuspicion(t *testing.T) {
	n := transport.NewMemNetwork()
	aEp, _ := n.Endpoint("a")
	bEp, _ := n.Endpoint("b")

	w := watch(t, aEp, "b", 50*time.Millisecond, nil)
	hb := NewHeartbeater(bEp, 10*time.Millisecond, "a")
	hb.Start()
	defer hb.Stop()

	// Healthy heartbeats: no suspicion.
	waitFor(t, 2*time.Second, func() bool { return samples(w) >= 15 }, "heartbeats never arrived")
	if w.Suspected() {
		t.Fatal("peer suspected while heartbeating")
	}

	// Skew the watchdog's clock far past any plausible silence: every
	// arrival now looks ancient, so suspicion must form even though the
	// peer is perfectly healthy — the false-suspicion fault chaos
	// campaigns drive promotions with.
	w.SetSkew(10 * time.Second)
	waitFor(t, 2*time.Second, w.Suspected, "skewed watchdog never suspected a healthy peer")

	// Clearing the skew lets the hysteresis recover the verdict.
	w.SetSkew(0)
	waitFor(t, 2*time.Second, func() bool { return !w.Suspected() }, "peer never recovered after skew cleared")
}

// stallableLink wraps an endpoint so that, while stalled, every Send
// wedges until its context expires — a gray-failed link: the peer is
// alive but accepts bytes arbitrarily slowly.
type stallableLink struct {
	transport.Endpoint
	stalled atomic.Bool
}

func (s *stallableLink) Send(ctx context.Context, to transport.Address, kind string, payload []byte) error {
	if s.stalled.Load() {
		<-ctx.Done()
		return ctx.Err()
	}
	return s.Endpoint.Send(ctx, to, kind, payload)
}

// TestStalledBeatIsCountedAndBeatsResume: a send blocked past the beat
// interval is given up and counted as stalled, and the heartbeat loop
// is not wedged by it — beats reach the peer again once the link clears.
func TestStalledBeatIsCountedAndBeatsResume(t *testing.T) {
	n := transport.NewMemNetwork()
	senderEp, _ := n.Endpoint("sender")
	receiverEp, _ := n.Endpoint("receiver")
	w := watch(t, receiverEp, "sender", 60*time.Millisecond, nil)

	link := &stallableLink{Endpoint: senderEp}
	link.stalled.Store(true)
	stalled := telemetry.Default().Counter("detector_heartbeats_stalled_total")
	before := stalled.Value()
	hb := NewHeartbeater(link, 10*time.Millisecond, "receiver")
	hb.OnRefused(func() { t.Error("a stalled beat was reported as refused") })
	hb.Start()
	defer hb.Stop()

	waitFor(t, 2*time.Second, func() bool { return stalled.Value() >= before+2 },
		"sends blocked past the interval were not counted as stalled")
	waitFor(t, 2*time.Second, w.Suspected, "a peer whose beats all stall was never suspected")
	link.stalled.Store(false)
	waitFor(t, 2*time.Second, func() bool { return !w.Suspected() },
		"beats did not resume once the link cleared")
}

// countingLink counts the heartbeats a heartbeater tries to send, so a
// test can wait for beats instead of sleeping.
type countingLink struct {
	transport.Endpoint
	sends atomic.Int32
}

func (c *countingLink) Send(ctx context.Context, to transport.Address, kind string, payload []byte) error {
	c.sends.Add(1)
	return c.Endpoint.Send(ctx, to, kind, payload)
}

// TestHeartbeaterReportsOnlyRefusals: a beat toward a closed endpoint is
// refused and reported; a beat across a partition is lost silently and
// is not.
func TestHeartbeaterReportsOnlyRefusals(t *testing.T) {
	n := transport.NewMemNetwork()
	senderEp, _ := n.Endpoint("sender")
	peerEp, _ := n.Endpoint("peer")
	link := &countingLink{Endpoint: senderEp}
	var refusals atomic.Int32
	hb := NewHeartbeater(link, 2*time.Millisecond, "peer")
	hb.OnRefused(func() { refusals.Add(1) })
	hb.Start()
	defer hb.Stop()

	n.Partition("sender", "peer")
	waitFor(t, 2*time.Second, func() bool { return link.sends.Load() >= 5 }, "no beats attempted")
	if got := refusals.Load(); got != 0 {
		t.Fatalf("%d beats across a partition reported as refused", got)
	}
	n.HealAll()
	peerEp.Close()
	waitFor(t, 2*time.Second, func() bool { return refusals.Load() >= 1 },
		"beats to a closed endpoint never reported as refused")
}
