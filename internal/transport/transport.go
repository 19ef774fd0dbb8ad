// Package transport provides the messaging substrate of the replicated
// system: addressed endpoints exchanging one-way messages and
// request/reply calls. Two implementations share the interface: an
// in-memory simulated network with configurable latency, loss and
// partitions (the default for experiments, making them reproducible on a
// laptop), and a TCP transport for real deployments (cmd/resilientd).
package transport

import (
	"context"
	"errors"
)

// Address identifies an endpoint on a network.
type Address string

// Packet is one delivered message.
type Packet struct {
	From    Address
	To      Address
	Kind    string
	Payload []byte
}

// Handler processes an inbound packet. For Call round-trips the returned
// bytes travel back to the caller; for one-way Sends they are discarded.
type Handler func(ctx context.Context, p Packet) ([]byte, error)

// Endpoint is one attachment point on a network.
type Endpoint interface {
	// Addr returns the endpoint's address.
	Addr() Address
	// Handle registers the handler for a message kind. Registering twice
	// replaces the handler; a nil handler unregisters.
	Handle(kind string, h Handler)
	// Send delivers a one-way message (fire-and-forget, may be lost).
	Send(ctx context.Context, to Address, kind string, payload []byte) error
	// Call performs a request/reply round-trip.
	Call(ctx context.Context, to Address, kind string, payload []byte) ([]byte, error)
	// Close detaches the endpoint; subsequent traffic to it fails with
	// ErrUnreachable wrapping ErrRefused.
	Close() error
}

// Errors reported by transports.
var (
	// ErrUnreachable reports a destination with no live endpoint.
	ErrUnreachable = errors.New("transport: destination unreachable")
	// ErrRefused accompanies ErrUnreachable when the destination's host
	// actively refused the connection: nothing listens at the address
	// (its process is gone), as opposed to a partition or a slow link,
	// which stay silent. It is a crash witness for the failure detector.
	ErrRefused = errors.New("transport: connection refused")
	// ErrNoHandler reports a message kind with no registered handler.
	ErrNoHandler = errors.New("transport: no handler for message kind")
	// ErrClosed reports use of a closed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrRemote wraps a handler-side failure returned through a Call.
	ErrRemote = errors.New("transport: remote handler error")
	// ErrTooLarge reports a payload exceeding MaxEnvelope. The sender
	// gets the error and the drop counter records it; an unbounded
	// envelope would otherwise stall a replica pair on one runaway
	// checkpoint.
	ErrTooLarge = errors.New("transport: payload exceeds maximum envelope size")
)

// MaxEnvelope bounds a single message payload (checkpoints included).
// Large enough for any state the experiments ship, small enough that a
// corrupted length or a runaway snapshot fails fast instead of
// exhausting memory.
const MaxEnvelope = 64 << 20

// Stats aggregates traffic counters for an endpoint, consumed by the
// monitoring engine's bandwidth probes.
type Stats struct {
	MessagesSent     uint64
	MessagesReceived uint64
	BytesSent        uint64
	BytesReceived    uint64
}
