package host

import (
	"context"
	"fmt"
	"sync"
	"time"

	"resilientft/internal/detector"
	"resilientft/internal/telemetry"
	"resilientft/internal/transport"
)

// Failure-detector timing for replica configurations that leave it unset.
const (
	defaultHeartbeatInterval = 15 * time.Millisecond
	defaultSuspectTimeout    = 80 * time.Millisecond
)

// peerDetector is the host's failure detector for one peer process: one
// heartbeat loop toward it and one φ watchdog grading its beats — the
// fixed feature beneath the FTM of the paper's Fig. 6. Every replica
// group on the host that pairs with the peer subscribes to it, so the
// pair exchanges one beat per interval however many groups it carries,
// and the groups see each suspicion edge once, in one order.
type peerDetector struct {
	interval, timeout time.Duration
	hb                *detector.Heartbeater
	wd                *detector.Watchdog

	mu   sync.Mutex
	subs []*subscriber // in subscription order
	// deliver serializes edge deliveries: subscriber k+1 sees an edge only
	// after subscriber k's handling of it (a promotion) has returned, and
	// a recovery edge never overtakes a suspicion still being delivered.
	deliver sync.Mutex
}

type subscriber struct{ onEdge func(suspected bool) }

// Subscribe delivers the binary suspicion edges of peer to onEdge,
// building and starting the host's detector for peer on first use. Zero
// timings take the defaults. The beat interval and suspect timeout are
// one setting per process pair: a detector already running at another
// timing is an error. unsubscribe stops the deliveries; the detector
// itself runs until the host crashes.
func (h *Host) Subscribe(peer transport.Address, interval, timeout time.Duration, onEdge func(suspected bool)) (unsubscribe func(), err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.rt == nil {
		return nil, ErrCrashed
	}
	if err := h.checkDetectorLocked(peer, interval, timeout); err != nil {
		return nil, err
	}
	d := h.detectors[peer]
	if d == nil {
		d = h.startDetectorLocked(peer, interval, timeout)
	}
	sub := &subscriber{onEdge: onEdge}
	d.mu.Lock()
	d.subs = append(d.subs, sub)
	d.mu.Unlock()
	return func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		for i, s := range d.subs {
			if s == sub {
				d.subs = append(d.subs[:i], d.subs[i+1:]...)
				return
			}
		}
	}, nil
}

// CheckDetector reports whether a replica pairing with peer at the given
// timing can subscribe: it is an error, naming both timings, when the
// host already runs a detector for peer at another one.
func (h *Host) CheckDetector(peer transport.Address, interval, timeout time.Duration) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.checkDetectorLocked(peer, interval, timeout)
}

func (h *Host) checkDetectorLocked(peer transport.Address, interval, timeout time.Duration) error {
	d := h.detectors[peer]
	if d == nil {
		return nil
	}
	interval, timeout = detectorTiming(interval, timeout)
	if d.interval != interval || d.timeout != timeout {
		return fmt.Errorf("host %s: detector for %s runs at heartbeat / suspect %v / %v, not %v / %v",
			h.name, peer, d.interval, d.timeout, interval, timeout)
	}
	return nil
}

func detectorTiming(interval, timeout time.Duration) (time.Duration, time.Duration) {
	if interval <= 0 {
		interval = defaultHeartbeatInterval
	}
	if timeout <= 0 {
		timeout = defaultSuspectTimeout
	}
	return interval, timeout
}

// startDetectorLocked builds, registers and starts the detector for
// peer. The first detector of an endpoint incarnation installs the
// endpoint's heartbeat handler.
func (h *Host) startDetectorLocked(peer transport.Address, interval, timeout time.Duration) *peerDetector {
	interval, timeout = detectorTiming(interval, timeout)
	if len(h.detectors) == 0 {
		h.ep.Handle(detector.KindHeartbeat, h.onHeartbeat)
	}
	if h.detectors == nil {
		h.detectors = make(map[transport.Address]*peerDetector)
	}
	d := &peerDetector{interval: interval, timeout: timeout}
	d.wd = detector.NewWatchdog(peer, timeout, d.onTransition)
	d.hb = detector.NewHeartbeater(h.ep, interval, peer)
	h.detectors[peer] = d
	d.hb.Start()
	d.wd.Start()
	// Heartbeat quality is a health dimension: the host degrades at half
	// the suspect level and is unhealthy at the suspect level itself, so
	// /health flips while the watchdog is still only accruing suspicion.
	h.health.Register(NewHeartbeatCollector(d.wd.Phi,
		detector.DefaultSuspectPhi/2, detector.DefaultSuspectPhi))
	return d
}

// onHeartbeat routes one arrival to the watchdog of its sender. Beats
// from a process no replica here pairs with are dropped.
func (h *Host) onHeartbeat(ctx context.Context, p transport.Packet) ([]byte, error) {
	h.mu.Lock()
	d := h.detectors[p.From]
	h.mu.Unlock()
	if d != nil {
		d.wd.Observe()
	}
	return nil, nil
}

// onTransition turns the watchdog's graded transitions into the binary
// suspicion edge replicas consume and delivers it to the subscribers in
// subscription order, one at a time. suspected→evicted escalates an edge
// already delivered, so it is not delivered again. An eviction dumps the
// flight recorder: the black box captures the telemetry window in which
// the peer died, silence evidence included.
func (d *peerDetector) onTransition(tr detector.Transition) {
	if tr.To == detector.StateEvicted {
		telemetry.DumpBlackBox("peer-evicted",
			"peer", string(tr.Peer),
			"phi", fmt.Sprintf("%.2f", tr.Phi),
			"silence", tr.Silence.String(),
			"silent_since", tr.SilentSince.Format(time.RFC3339Nano))
	}
	suspected := tr.Suspected()
	if suspected == (tr.From >= detector.StateSuspected) {
		return
	}
	d.deliver.Lock()
	defer d.deliver.Unlock()
	d.mu.Lock()
	subs := append([]*subscriber(nil), d.subs...)
	d.mu.Unlock()
	for _, s := range subs {
		s.onEdge(suspected)
	}
}

// Watchdog returns the watchdog grading peer's heartbeats on this host,
// or nil when no replica here has paired with peer since the last
// restart.
func (h *Host) Watchdog(peer transport.Address) *detector.Watchdog {
	h.mu.Lock()
	defer h.mu.Unlock()
	if d := h.detectors[peer]; d != nil {
		return d.wd
	}
	return nil
}

// SetClockSkew shifts the failure-detection clock of every detector on
// the host by d — the chaos engine's clock-skew fault. Positive skew
// makes a peer's silence look longer than it is, which is how an
// unsynchronized clock manufactures false suspicion. The skew lives with
// the detectors, so a restart drops it.
func (h *Host) SetClockSkew(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, pd := range h.detectors {
		pd.wd.SetSkew(d)
	}
}
