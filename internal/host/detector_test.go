package host

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"resilientft/internal/telemetry"
	"resilientft/internal/transport"
)

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func newHostPair(t *testing.T, net *transport.MemNetwork, a, b string) (*Host, *Host) {
	t.Helper()
	var hosts []*Host
	for _, name := range []string{a, b} {
		h, err := New(name, net, nil)
		if err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, h)
	}
	t.Cleanup(func() {
		for _, h := range hosts {
			if !h.Crashed() {
				h.Crash()
			}
		}
	})
	return hosts[0], hosts[1]
}

// edgeLog records subscriber callbacks as start/end pairs, so a test can
// tell serial delivery from overlapping delivery.
type edgeLog struct {
	mu  sync.Mutex
	log []string
}

func (l *edgeLog) add(s string) {
	l.mu.Lock()
	l.log = append(l.log, s)
	l.mu.Unlock()
}

func (l *edgeLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.log, " ")
}

// TestDetectorDeliversEdgesOneAtATime: groups pairing with the same
// peer share one detector, whose suspicion and recovery edges reach
// each subscriber once, in subscription order, each handler returning
// before the next starts — the order co-hosted groups promote in.
func TestDetectorDeliversEdgesOneAtATime(t *testing.T) {
	net := transport.NewMemNetwork()
	a, b := newHostPair(t, net, "det-a", "det-b")
	const interval, timeout = 10 * time.Millisecond, 60 * time.Millisecond
	// b beats toward a once anything on b pairs with a.
	if _, err := b.Subscribe(a.Addr(), interval, timeout, func(bool) {}); err != nil {
		t.Fatal(err)
	}
	log := &edgeLog{}
	for k := 0; k < 3; k++ {
		if _, err := a.Subscribe(b.Addr(), interval, timeout, func(suspected bool) {
			log.add(fmt.Sprintf("%d:%v", k, suspected))
			for i := 0; i < 100; i++ {
				runtime.Gosched() // leave room for an overlapping delivery
			}
			log.add(fmt.Sprintf("%d:end", k))
		}); err != nil {
			t.Fatal(err)
		}
	}

	b.Crash()
	const suspected = "0:true 0:end 1:true 1:end 2:true 2:end"
	waitFor(t, func() bool { return log.String() == suspected },
		"suspicion edges not delivered one at a time in order")
	if !a.Watchdog(b.Addr()).Suspected() {
		t.Fatal("watchdog not suspected after its edge was delivered")
	}

	// The restarted b has no detector until something on it subscribes
	// again; then its beats clear a's suspicion with one recovery edge.
	if err := b.Restart(); err != nil {
		t.Fatal(err)
	}
	if b.Watchdog(a.Addr()) != nil {
		t.Fatal("restart kept the crashed incarnation's detector")
	}
	if _, err := b.Subscribe(a.Addr(), interval, timeout, func(bool) {}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return log.String() == suspected+" 0:false 0:end 1:false 1:end 2:false 2:end" },
		"recovery edges not delivered one at a time in order")
}

// TestDetectorTimingIsOneSettingPerPair: a second subscription for the
// same peer must ask for the running detector's timing; zero timings
// mean the defaults.
func TestDetectorTimingIsOneSettingPerPair(t *testing.T) {
	net := transport.NewMemNetwork()
	a, b := newHostPair(t, net, "timing-a", "timing-b")
	if _, err := a.Subscribe(b.Addr(), 10*time.Millisecond, 60*time.Millisecond, func(bool) {}); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckDetector(b.Addr(), 10*time.Millisecond, 60*time.Millisecond); err != nil {
		t.Fatalf("same timing refused: %v", err)
	}
	_, err := a.Subscribe(b.Addr(), 20*time.Millisecond, 60*time.Millisecond, func(bool) {})
	if err == nil || !strings.Contains(err.Error(), "10ms") || !strings.Contains(err.Error(), "20ms") {
		t.Fatalf("conflicting heartbeat: err = %v, want one naming 10ms and 20ms", err)
	}
	if err := a.CheckDetector(b.Addr(), 10*time.Millisecond, 90*time.Millisecond); err == nil {
		t.Fatal("conflicting suspect timeout accepted")
	}
	if err := a.CheckDetector("elsewhere", time.Second, time.Hour); err != nil {
		t.Fatalf("a peer without a detector is unconstrained: %v", err)
	}
	if _, err := b.Subscribe(a.Addr(), 0, 0, func(bool) {}); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckDetector(a.Addr(), defaultHeartbeatInterval, defaultSuspectTimeout); err != nil {
		t.Fatalf("zero timings did not take the defaults: %v", err)
	}

	a.Crash()
	if _, err := a.Subscribe(b.Addr(), 0, 0, func(bool) {}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("subscribe on a crashed host: err = %v", err)
	}
}

// TestHeartbeatsFromUnwatchedPeersIgnored: a beat from a process no
// replica on the host pairs with feeds no watchdog — a silent peer is
// suspected however busily a third process beats.
func TestHeartbeatsFromUnwatchedPeersIgnored(t *testing.T) {
	net := transport.NewMemNetwork()
	a, b := newHostPair(t, net, "unwatched-a", "unwatched-b")
	c, err := New("unwatched-c", net, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Crash)
	if _, err := c.Subscribe(a.Addr(), 5*time.Millisecond, time.Second, func(bool) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Subscribe(b.Addr(), 10*time.Millisecond, 40*time.Millisecond, func(bool) {}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return a.Watchdog(b.Addr()).Suspected() }, "silent peer never suspected")
	if a.Watchdog(c.Addr()) != nil {
		t.Fatal("beats from an unwatched process built a watchdog")
	}
}

// edgeRecorder collects one subscriber's edges and the time each arrived.
type edgeRecorder struct {
	mu    sync.Mutex
	edges []bool
	at    []time.Time
}

func (r *edgeRecorder) onEdge(suspected bool) {
	r.mu.Lock()
	r.edges = append(r.edges, suspected)
	r.at = append(r.at, time.Now())
	r.mu.Unlock()
}

func (r *edgeRecorder) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprint(r.edges)
}

// first returns the arrival time of the first edge, zero before it.
func (r *edgeRecorder) first() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.at) == 0 {
		return time.Time{}
	}
	return r.at[0]
}

// watchedPair subscribes a to b and b to a, and returns once a has heard
// b: a's watchdog has folded at least two of b's beats.
func watchedPair(t *testing.T, name string, interval, timeout time.Duration) (*transport.MemNetwork, *Host, *Host, *edgeRecorder) {
	t.Helper()
	net := transport.NewMemNetwork()
	a, b := newHostPair(t, net, name+"-a", name+"-b")
	arrivals := telemetry.Default().Histogram("detector_interarrival", "peer", string(b.Addr()))
	heard := arrivals.Count()
	rec := &edgeRecorder{}
	if _, err := a.Subscribe(b.Addr(), interval, timeout, rec.onEdge); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe(a.Addr(), interval, timeout, func(bool) {}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return arrivals.Count() > heard }, "a never heard b's beats")
	return net, a, b, rec
}

// TestCrashedPeerSuspectedByRefusal: a crashed host's endpoint refuses
// the survivor's next beat, and that refusal raises the suspicion edge
// within two beat intervals, far inside a suspect timeout φ would need.
func TestCrashedPeerSuspectedByRefusal(t *testing.T) {
	const interval, timeout = 50 * time.Millisecond, 10 * time.Second
	_, a, b, rec := watchedPair(t, "refused", interval, timeout)
	refused := telemetry.Default().Counter("detector_suspicions_total", "reason", "refused")
	before := refused.Value()

	crashed := time.Now()
	b.Crash()
	waitFor(t, func() bool { return !rec.first().IsZero() }, "crashed peer never suspected")
	if took := rec.first().Sub(crashed); took > 2*interval {
		t.Fatalf("suspicion edge %v after the crash, want within two beat intervals (%v)", took, 2*interval)
	}
	if rec.String() != "[true]" {
		t.Fatalf("edges %s, want [true]", rec)
	}
	if got := refused.Value() - before; got != 1 {
		t.Fatalf("refused suspicions grew by %d, want 1", got)
	}
	if !a.Watchdog(b.Addr()).Suspected() {
		t.Fatal("watchdog not suspected after its edge")
	}
}

// TestPartitionedPeerSuspectedByPhiOnly: a partition loses beats
// silently, so the peer is suspected by accrued silence — not before the
// watchdog's acceptable pause has passed — and never for a refusal.
func TestPartitionedPeerSuspectedByPhiOnly(t *testing.T) {
	const interval, timeout = 10 * time.Millisecond, 200 * time.Millisecond
	net, a, b, rec := watchedPair(t, "partitioned", interval, timeout)
	refused := telemetry.Default().Counter("detector_suspicions_total", "reason", "refused")
	phi := telemetry.Default().Counter("detector_suspicions_total", "reason", "phi")
	refusedBefore, phiBefore := refused.Value(), phi.Value()

	cut := time.Now()
	net.Partition(a.Addr(), b.Addr())
	waitFor(t, func() bool { return !rec.first().IsZero() }, "partitioned peer never suspected")
	// The acceptable pause (half the timeout) is deducted from the
	// silence before φ accrues at all; the last beat may predate the cut
	// by one interval.
	if took := rec.first().Sub(cut); took < timeout/2-interval {
		t.Fatalf("partitioned peer suspected %v after the cut, before the φ path could fire", took)
	}
	if got := refused.Value() - refusedBefore; got != 0 {
		t.Fatalf("a partition raised %d refused suspicions", got)
	}
	if phi.Value() == phiBefore {
		t.Fatal("the partition's suspicion was not counted as φ")
	}
}

// TestLateSubscriberGetsStandingSuspicion: a group that subscribes while
// the host already suspects the peer receives that suspicion edge once,
// and then the recovery edge like every other subscriber.
func TestLateSubscriberGetsStandingSuspicion(t *testing.T) {
	const interval, timeout = 10 * time.Millisecond, 60 * time.Millisecond
	_, a, b, early := watchedPair(t, "late", interval, timeout)
	b.Crash()
	waitFor(t, func() bool { return early.String() == "[true]" }, "crashed peer never suspected")

	late := &edgeRecorder{}
	if _, err := a.Subscribe(b.Addr(), interval, timeout, late.onEdge); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return late.String() == "[true]" },
		"a subscriber joining a standing suspicion got no edge")

	if err := b.Restart(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe(a.Addr(), interval, timeout, func(bool) {}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return early.String() == "[true false]" && late.String() == "[true false]" },
		"recovery edge not delivered once to both subscribers")
}
