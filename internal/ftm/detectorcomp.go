package ftm

import (
	"context"
	"fmt"
	"sync"
	"time"

	"resilientft/internal/component"
	"resilientft/internal/host"
	"resilientft/internal/transport"
)

// TypeDetector is the component type of the failure-detector component.
const TypeDetector = "ftm.detector"

// detectorContent is the "failure detector" component of Figure 6: a
// subscriber to the host's detector for the peer process, which owns
// the heartbeats and the φ model. It forwards the binary suspicion edge
// to the protocol's control service while started.
type detectorContent struct {
	brickRefs

	h                 *host.Host
	peer              transport.Address
	interval, timeout time.Duration

	mu          sync.Mutex
	unsubscribe func()
}

var (
	_ component.Content   = (*detectorContent)(nil)
	_ component.Lifecycle = (*detectorContent)(nil)
)

// OnStart subscribes to the host's detector for the peer.
func (d *detectorContent) OnStart(ctx context.Context) error {
	unsubscribe, err := d.h.Subscribe(d.peer, d.interval, d.timeout, d.onEdge)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.unsubscribe = unsubscribe
	d.mu.Unlock()
	return nil
}

// onEdge hands one suspicion edge to the protocol, which escalates it to
// the replica; the host waits for it before the next group's turn.
func (d *detectorContent) onEdge(suspected bool) {
	protocol := d.ref("protocol")
	if protocol == nil {
		return
	}
	_, _ = protocol.Invoke(context.Background(), component.Message{Op: OpPeerChange, Payload: suspected})
}

// OnStop unsubscribes.
func (d *detectorContent) OnStop(ctx context.Context) error {
	d.mu.Lock()
	unsubscribe := d.unsubscribe
	d.unsubscribe = nil
	d.mu.Unlock()
	if unsubscribe != nil {
		unsubscribe()
	}
	return nil
}

func (d *detectorContent) Invoke(ctx context.Context, service string, msg component.Message) (component.Message, error) {
	if service != "status" {
		return component.Message{}, fmt.Errorf("%w: service %q on detector", component.ErrNotFound, service)
	}
	wd := d.h.Watchdog(d.peer)
	return component.NewMessage("ok", wd != nil && wd.Suspected()), nil
}
