package ftm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"resilientft/internal/component"
	"resilientft/internal/telemetry"
	"resilientft/internal/transport"
)

// TypePeer is the component type of the inter-replica bridge.
const TypePeer = "ftm.peer"

// replicaEnvelope frames one inter-replica message on the wire. It
// wraps every inter-replica call, so it carries its own fast binary
// codec instead of going through gob.
type replicaEnvelope struct {
	Kind   string
	From   string
	System string
	// Group is the replica group (shard) the message belongs to; empty
	// in unsharded deployments. The serving-side mux dispatches on it
	// when several groups share one endpoint.
	Group   string
	Payload []byte
	// Trace is the sender-side ship span context; it travels as an
	// optional codec trailer (absent on unsampled sends, so those frames
	// are byte-identical to the trailerless encoding) and parents the
	// receiver's apply span.
	Trace telemetry.SpanContext
}

var (
	_ transport.FastMarshaler   = replicaEnvelope{}
	_ transport.FastUnmarshaler = (*replicaEnvelope)(nil)
)

// AppendFast implements transport.FastMarshaler.
func (e replicaEnvelope) AppendFast(buf []byte) []byte {
	buf = transport.AppendLenString(buf, e.Kind)
	buf = transport.AppendLenString(buf, e.From)
	buf = transport.AppendLenString(buf, e.System)
	// Group is mandatory (empty = unsharded): the optional slot after
	// Payload belongs to the trace trailer.
	buf = transport.AppendLenString(buf, e.Group)
	buf = transport.AppendLenBytes(buf, e.Payload)
	if e.Trace.Valid() {
		buf = transport.AppendUvarint(buf, e.Trace.TraceID)
		buf = transport.AppendUvarint(buf, e.Trace.SpanID)
	}
	return buf
}

// DecodeFast implements transport.FastUnmarshaler. The string fields
// draw from tiny recurring sets (message kinds, replica addresses), so
// they decode interned; the payload aliases data, which the transport
// keeps alive until the enclosing handler returns — the apply path
// copies whatever it retains.
func (e *replicaEnvelope) DecodeFast(data []byte) error {
	var err error
	if e.Kind, data, err = transport.ReadLenStringInterned(data); err != nil {
		return fmt.Errorf("ftm: envelope kind: %w", err)
	}
	if e.From, data, err = transport.ReadLenStringInterned(data); err != nil {
		return fmt.Errorf("ftm: envelope from: %w", err)
	}
	if e.System, data, err = transport.ReadLenStringInterned(data); err != nil {
		return fmt.Errorf("ftm: envelope system: %w", err)
	}
	if e.Group, data, err = transport.ReadLenStringInterned(data); err != nil {
		return fmt.Errorf("ftm: envelope group: %w", err)
	}
	if e.Payload, data, err = transport.ReadLenBytesInPlace(data); err != nil {
		return fmt.Errorf("ftm: envelope payload: %w", err)
	}
	// Optional trace trailer: absent or malformed means "unsampled" —
	// never a decode failure, so trailerless senders stay compatible.
	e.Trace = telemetry.SpanContext{}
	if len(data) > 0 {
		if tid, rest, terr := transport.ReadUvarint(data); terr == nil {
			if sid, _, serr := transport.ReadUvarint(rest); serr == nil {
				e.Trace = telemetry.SpanContext{TraceID: tid, SpanID: sid}
			}
		}
	}
	return nil
}

// decodeEnvelope is the apply-side decode: the concrete call keeps the
// envelope on the caller's stack, where transport.Decode's any
// parameter would heap-allocate it on every inter-replica message. A
// non-fast frame is a codec mismatch, which transport.Decode reports.
func decodeEnvelope(data []byte, e *replicaEnvelope) error {
	if len(data) == 0 || data[0] != transport.FastTag {
		return transport.Decode(data, e)
	}
	return e.DecodeFast(data[1:])
}

// isPeerRefusal reports whether a failed inter-replica call was
// answered by a live peer refusing the message for its role (the
// ErrNotSlave guard during a takeover or split brain). The error text
// is matched because remote errors cross the TCP transport as strings.
// A refusal must not resolve a wave "degraded": degraded mode releases
// replies without any peer holding the state, which is only safe when
// the failure detector has actually declared the peer dead. A refusing
// peer is alive — the wave fails instead, and the client's
// at-most-once retry re-ships once the peer settles back into its
// role.
func isPeerRefusal(err error) bool {
	return err != nil && strings.Contains(err.Error(), ErrNotSlave.Error())
}

// peerContent bridges the FTM composite to the other replica of the
// pair: outbound inter-replica calls go through its single "send"
// service, so the rest of the FTM never touches the transport directly.
type peerContent struct {
	mu      sync.Mutex
	ep      transport.Endpoint
	peer    transport.Address
	system  string
	group   string
	timeout time.Duration
}

func newPeerContent(ep transport.Endpoint, peer transport.Address, system, group string) *peerContent {
	return &peerContent{ep: ep, peer: peer, system: system, group: group, timeout: 2 * time.Second}
}

var _ component.Content = (*peerContent)(nil)

// addressProp reads an address-valued property, settable both as a
// string (an fscript `set` statement) and as a transport.Address.
func addressProp(name string, value any) (transport.Address, error) {
	switch v := value.(type) {
	case string:
		return transport.Address(v), nil
	case transport.Address:
		return v, nil
	default:
		return "", fmt.Errorf("ftm: %s property is %T", name, value)
	}
}

// SetProperty re-points the bridge (reconfiguration when the other
// replica is replaced).
func (p *peerContent) SetProperty(name string, value any) error {
	if name != "peer" {
		return nil // unknown properties are inert
	}
	peer, err := addressProp("peer", value)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.peer = peer
	p.mu.Unlock()
	return nil
}

func (p *peerContent) Invoke(ctx context.Context, service string, msg component.Message) (component.Message, error) {
	if service != SvcSend {
		return component.Message{}, fmt.Errorf("%w: service %q on peer", component.ErrNotFound, service)
	}
	// The message kind rides the component message's Op, so a send needs
	// no metadata map; OpCall with a MetaKind entry is the compatibility
	// form.
	kind := msg.Op
	if kind == OpCall {
		kind = msg.MetaValue(MetaKind)
	}
	if kind == "" {
		return component.Message{}, fmt.Errorf("ftm: peer.send without a message kind")
	}
	payload, _ := msg.Payload.([]byte)

	p.mu.Lock()
	ep, peer, system, group, timeout := p.ep, p.peer, p.system, p.group, p.timeout
	p.mu.Unlock()
	if peer == "" {
		return component.Message{}, ErrNoPeer
	}
	env := replicaEnvelope{Kind: kind, From: string(ep.Addr()), System: system, Group: group, Payload: payload}
	sp := telemetry.DefaultSpans().Start(
		telemetry.ParseSpanContext(msg.MetaValue(MetaTrace)), "ftm.peer.ship")
	if sp != nil {
		sp.SetAttr("kind", kind)
		env.Trace = sp.Context()
		defer sp.End()
	}
	// Concrete AppendFast call: EncodePooled would box the envelope on
	// every send (per request under LFR forwarding).
	data := env.AppendFast(transport.FastFrame())

	callCtx, cancel := context.WithTimeout(ctx, timeout)
	reply, err := ep.Call(callCtx, peer, KindReplica, data)
	cancel()
	// The envelope buffer recycles once the call resolved either way;
	// only an ambiguous outcome (context expiry with the handler
	// possibly still reading it) leaks it to the garbage collector.
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		transport.PutBuf(data)
	}
	if err != nil {
		sp.SetAttr("outcome", "error")
		if isPeerRefusal(err) {
			return component.Message{}, fmt.Errorf("ftm: peer refused: %w", err)
		}
		return component.Message{}, fmt.Errorf("%w: %v", ErrNoPeer, err)
	}
	return component.NewMessage("ok", reply), nil
}
