package host

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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
