// Package host models one computing node of the replicated system: a
// component runtime, a network endpoint, a resource model (the R
// dimension the monitoring engine probes), a crash switch and access to
// stable storage. Hosts crash (endpoint closed, runtime discarded,
// heartbeats silenced) and restart empty, to be re-provisioned by the
// adaptation layer from the configuration committed in stable storage.
package host

import (
	"errors"
	"fmt"
	"sync"

	"resilientft/internal/component"
	"resilientft/internal/faultinject"
	"resilientft/internal/stablestore"
	"resilientft/internal/transport"
)

// ErrCrashed reports an operation on a crashed host.
var ErrCrashed = errors.New("host: crashed")

// Resources is the host's resource availability — the R parameter class.
// The monitoring engine reads it through probes; scenarios change it to
// drive adaptation triggers.
type Resources struct {
	mu sync.Mutex
	// BandwidthKbps is the available network bandwidth.
	bandwidthKbps float64
	// CPUFree is the free CPU fraction (0..1).
	cpuFree float64
	// EnergyBudget is the remaining energy budget fraction (0..1).
	energyBudget float64
}

// NewResources returns a resource model with the given availabilities.
func NewResources(bandwidthKbps, cpuFree, energyBudget float64) *Resources {
	return &Resources{bandwidthKbps: bandwidthKbps, cpuFree: cpuFree, energyBudget: energyBudget}
}

// Bandwidth returns the available bandwidth in kbit/s.
func (r *Resources) Bandwidth() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bandwidthKbps
}

// SetBandwidth updates the available bandwidth.
func (r *Resources) SetBandwidth(kbps float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bandwidthKbps = kbps
}

// CPUFree returns the free CPU fraction.
func (r *Resources) CPUFree() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cpuFree
}

// SetCPUFree updates the free CPU fraction.
func (r *Resources) SetCPUFree(f float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cpuFree = f
}

// Energy returns the remaining energy budget fraction.
func (r *Resources) Energy() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.energyBudget
}

// SetEnergy updates the remaining energy budget fraction.
func (r *Resources) SetEnergy(f float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.energyBudget = f
}

// Host is one computing node.
type Host struct {
	name   string
	net    *transport.MemNetwork
	store  stablestore.Store
	res    *Resources
	health *HealthMonitor

	mu       sync.Mutex
	ep       transport.Endpoint
	rt       *component.Runtime
	registry *component.Registry
	crash    *faultinject.CrashSwitch
	restarts int
	// detectors holds the current incarnation's failure detector per
	// peer process: Crash stops them and Restart drops them.
	detectors map[transport.Address]*peerDetector
}

// Option configures a Host.
type Option func(*Host)

// WithResources sets the host's initial resource model.
func WithResources(r *Resources) Option {
	return func(h *Host) { h.res = r }
}

// WithStore sets the host's stable storage.
func WithStore(s stablestore.Store) Option {
	return func(h *Host) { h.store = s }
}

// New boots a host named name on net, with a component runtime resolving
// types in registry.
func New(name string, net *transport.MemNetwork, registry *component.Registry, opts ...Option) (*Host, error) {
	h := &Host{
		name:     name,
		net:      net,
		registry: registry,
		res:      NewResources(10_000, 0.9, 1.0),
		store:    stablestore.NewMemStore(),
		crash:    &faultinject.CrashSwitch{},
	}
	for _, o := range opts {
		o(h)
	}
	ep, err := net.Endpoint(transport.Address(name))
	if err != nil {
		return nil, fmt.Errorf("host %s: %w", name, err)
	}
	h.ep = ep
	h.rt = component.NewRuntime(registry)
	h.initHealth()
	return h, nil
}

// NewWithEndpoint boots a host over an externally managed endpoint (for
// example a TCP listener). Such hosts cannot Restart themselves — their
// process supervisor owns that — but everything else behaves identically.
func NewWithEndpoint(name string, ep transport.Endpoint, registry *component.Registry, opts ...Option) (*Host, error) {
	if ep == nil {
		return nil, fmt.Errorf("host %s: nil endpoint", name)
	}
	h := &Host{
		name:     name,
		registry: registry,
		res:      NewResources(10_000, 0.9, 1.0),
		store:    stablestore.NewMemStore(),
		crash:    &faultinject.CrashSwitch{},
		ep:       ep,
	}
	for _, o := range opts {
		o(h)
	}
	h.rt = component.NewRuntime(registry)
	h.initHealth()
	return h, nil
}

// initHealth attaches the health monitor with the default resource and
// stable-store collectors. Heartbeat quality joins them with the first
// failure detector (see Subscribe).
func (h *Host) initHealth() {
	h.health = NewHealthMonitor(h.name)
	for _, c := range defaultCollectors(h) {
		h.health.Register(c)
	}
}

// Name returns the host name (also its network address).
func (h *Host) Name() string { return h.name }

// Addr returns the host's network address.
func (h *Host) Addr() transport.Address { return transport.Address(h.name) }

// Endpoint returns the live network endpoint.
func (h *Host) Endpoint() transport.Endpoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ep
}

// Runtime returns the live component runtime.
func (h *Host) Runtime() *component.Runtime {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rt
}

// Resources returns the host resource model.
func (h *Host) Resources() *Resources { return h.res }

// Health returns the host's graded health monitor.
func (h *Host) Health() *HealthMonitor { return h.health }

// Store returns the host's stable storage (which survives crashes).
func (h *Host) Store() stablestore.Store { return h.store }

// CrashSwitch returns the current incarnation's crash switch, for
// entities that must fall silent with the host.
func (h *Host) CrashSwitch() *faultinject.CrashSwitch {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.crash
}

// Crashed reports whether the host is currently down.
func (h *Host) Crashed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.crash.Tripped()
}

// Restarts returns how many times the host restarted.
func (h *Host) Restarts() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.restarts
}

// Crash fails the host: the endpoint closes, the crash switch trips, the
// failure detectors fall silent, and the component runtime is discarded.
// Volatile state is lost; the stable store survives. A crashed node
// sends nothing, but it is not silent to its peers: like a TCP port
// whose process died, its closed endpoint refuses their traffic
// (transport.ErrRefused), and a peer's heartbeater takes the refusal as
// the crash witness.
func (h *Host) Crash() {
	h.mu.Lock()
	ep := h.ep
	crash := h.crash
	h.rt = nil
	dets := h.detectors // no longer written: Subscribe refuses a crashed host
	h.mu.Unlock()
	crash.Trip()
	// Not waited for: Crash can run on a watchdog's own delivery path (a
	// promotion that fails silent), and Stop waits for that loop to exit.
	go func() {
		for _, d := range dets {
			d.hb.Stop()
			d.wd.Stop()
		}
	}()
	if ep != nil {
		_ = ep.Close()
	}
}

// Restart brings a crashed host back with a fresh, empty runtime and a
// re-attached endpoint. The adaptation layer re-provisions the FTM from
// stable storage afterwards.
func (h *Host) Restart() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.crash.Tripped() {
		return fmt.Errorf("host %s: restart of a live host", h.name)
	}
	if h.net == nil {
		return fmt.Errorf("host %s: restart is owned by the process supervisor for external endpoints", h.name)
	}
	ep, err := h.net.Endpoint(transport.Address(h.name))
	if err != nil {
		return fmt.Errorf("host %s: restart: %w", h.name, err)
	}
	h.ep = ep
	h.rt = component.NewRuntime(h.registry)
	h.crash = &faultinject.CrashSwitch{}
	h.detectors = nil
	h.restarts++
	return nil
}
