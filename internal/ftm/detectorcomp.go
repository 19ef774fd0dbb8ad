package ftm

import (
	"context"
	"fmt"
	"sync"
	"time"

	"resilientft/internal/component"
	"resilientft/internal/detector"
	"resilientft/internal/faultinject"
	"resilientft/internal/host"
	"resilientft/internal/telemetry"
	"resilientft/internal/transport"
)

// TypeDetector is the component type of the failure-detector component.
const TypeDetector = "ftm.detector"

// detectorContent wraps the heartbeat/watchdog substrate as the "failure
// detector" component of Figure 6. It heartbeats the peer, watches the
// peer's heartbeats, and reports suspicion transitions to the protocol's
// control service. It falls silent with the host's crash switch.
type detectorContent struct {
	brickRefs

	mu       sync.Mutex
	ep       transport.Endpoint
	peer     transport.Address
	crash    *faultinject.CrashSwitch
	interval time.Duration
	timeout  time.Duration

	hb *detector.Heartbeater
	wd *detector.Watchdog
	// reported is the last suspected-bool edge sent per peer: the φ
	// detector grades alive/suspected/evicted, but the replication
	// protocol consumes a binary suspicion, so suspected→evicted must
	// not re-fire OpPeerChange.
	reported map[transport.Address]bool
	// health is the host's monitor (wired by deploy); the detector
	// contributes the heartbeat-quality collector to it.
	health *host.HealthMonitor
	// skew is the clock offset to apply to the watchdog (chaos
	// injection); kept here so a skew set before OnStart survives into
	// the watchdog it builds.
	skew time.Duration
}

func newDetectorContent(ep transport.Endpoint, peer transport.Address, crash *faultinject.CrashSwitch, interval, timeout time.Duration, health *host.HealthMonitor) *detectorContent {
	if interval <= 0 {
		interval = 15 * time.Millisecond
	}
	if timeout <= 0 {
		timeout = 80 * time.Millisecond
	}
	return &detectorContent{ep: ep, peer: peer, crash: crash, interval: interval, timeout: timeout, health: health}
}

var (
	_ component.Content          = (*detectorContent)(nil)
	_ component.Lifecycle        = (*detectorContent)(nil)
	_ component.PropertyReceiver = (*detectorContent)(nil)
)

// SetProperty injects a clock-skew offset into the live watchdog (the
// chaos engine's clock fault) or re-arms the verdict for one peer.
func (d *detectorContent) SetProperty(name string, value any) error {
	switch name {
	case "clock-skew":
		var skew time.Duration
		switch v := value.(type) {
		case time.Duration:
			skew = v
		case string:
			d, err := time.ParseDuration(v)
			if err != nil {
				return fmt.Errorf("ftm: detector clock-skew: %w", err)
			}
			skew = d
		default:
			return fmt.Errorf("ftm: detector clock-skew property is %T", value)
		}
		d.mu.Lock()
		d.skew = skew
		wd := d.wd
		d.mu.Unlock()
		if wd != nil {
			wd.SetSkew(skew)
		}
	case "reset":
		// Re-arm the verdict for one peer: out-of-band proof of life (a
		// role-query reply during split-brain resolution) arrived while
		// the watchdog may still be holding an unrecovered suspicion.
		// The watchdog and the reported map survive role-change
		// reconfigurations (the detector is a fixed feature), so without
		// this a replica demoted mid-suspicion would never see another
		// suspicion edge for that peer — re-anchor the model and clear
		// the reported edge so the next real silence fires fresh.
		peer, err := addressProp("detector reset", value)
		if err != nil || peer == "" {
			return err
		}
		d.mu.Lock()
		wd := d.wd
		delete(d.reported, peer)
		d.mu.Unlock()
		if wd != nil {
			wd.Forget(peer)
			wd.Monitor(peer)
		}
	}
	return nil
}

// OnStart launches the heartbeat and watchdog loops.
func (d *detectorContent) OnStart(ctx context.Context) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reported = make(map[transport.Address]bool)
	d.hb = detector.NewHeartbeater(d.ep, d.interval, d.peer)
	d.wd = detector.NewWatchdog(d.ep, d.timeout, d.onTransition)
	if d.skew != 0 {
		d.wd.SetSkew(d.skew)
	}
	d.wd.Monitor(d.peer)
	d.hb.Start()
	d.wd.Start()
	if d.health != nil {
		// The detector contributes heartbeat quality as a health
		// dimension: the host degrades at half the suspect level and is
		// unhealthy at the suspect level itself, so /health flips while
		// the watchdog is still only accruing suspicion.
		wd := d.wd
		d.health.Register(host.NewHeartbeatCollector(wd.MaxPhi,
			detector.DefaultSuspectPhi/2, detector.DefaultSuspectPhi))
	}
	hb, wd := d.hb, d.wd
	if d.crash != nil {
		d.crash.OnTrip(func() {
			// A crashed host stops heartbeating and watching; Stop is
			// idempotent so a later OnStop is safe.
			go func() {
				hb.Stop()
				wd.Stop()
			}()
		})
	}
	return nil
}

// onTransition consumes graded watchdog transitions: the protocol gets
// the deduplicated binary suspicion edge (suspected→evicted is an
// escalation of an already-reported suspicion), and an eviction dumps
// the flight recorder — the black box captures the telemetry window in
// which the peer died, silence evidence included.
func (d *detectorContent) onTransition(tr detector.Transition) {
	if tr.To == detector.StateEvicted {
		telemetry.DumpBlackBox("peer-evicted",
			"peer", string(tr.Peer),
			"phi", fmt.Sprintf("%.2f", tr.Phi),
			"silence", tr.Silence.String(),
			"silent_since", tr.SilentSince.Format(time.RFC3339Nano))
	}
	suspected := tr.Suspected()
	d.mu.Lock()
	last, seen := d.reported[tr.Peer]
	if seen && last == suspected {
		d.mu.Unlock()
		return
	}
	if d.reported == nil {
		d.reported = make(map[transport.Address]bool)
	}
	d.reported[tr.Peer] = suspected
	d.mu.Unlock()
	protocol := d.ref("protocol")
	if protocol == nil {
		return
	}
	_, _ = protocol.Invoke(context.Background(), component.Message{Op: OpPeerChange, Payload: suspected})
}

// OnStop halts the loops.
func (d *detectorContent) OnStop(ctx context.Context) error {
	d.mu.Lock()
	hb, wd := d.hb, d.wd
	d.mu.Unlock()
	if hb != nil {
		hb.Stop()
	}
	if wd != nil {
		wd.Stop()
	}
	return nil
}

func (d *detectorContent) Invoke(ctx context.Context, service string, msg component.Message) (component.Message, error) {
	if service != "status" {
		return component.Message{}, fmt.Errorf("%w: service %q on detector", component.ErrNotFound, service)
	}
	d.mu.Lock()
	wd, peer := d.wd, d.peer
	d.mu.Unlock()
	suspected := wd != nil && wd.Suspected(peer)
	return component.NewMessage("ok", suspected), nil
}
