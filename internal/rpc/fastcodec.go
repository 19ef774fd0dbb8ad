package rpc

import (
	"fmt"

	"resilientft/internal/telemetry"
	"resilientft/internal/transport"
)

// Hand-rolled binary codecs for the per-request message types. Request
// and Response cross the wire once (or more, under replication) per
// client call, so they implement transport's fast-codec interfaces and
// skip gob entirely: no reflection, no type descriptors, one buffer.

var (
	_ transport.FastMarshaler   = Request{}
	_ transport.FastUnmarshaler = (*Request)(nil)
	_ transport.FastMarshaler   = Response{}
	_ transport.FastUnmarshaler = (*Response)(nil)
	_ transport.FastMarshaler   = ResponseList(nil)
	_ transport.FastUnmarshaler = (*ResponseList)(nil)
)

// AppendFast implements transport.FastMarshaler.
func (r Request) AppendFast(buf []byte) []byte {
	buf = transport.AppendLenString(buf, r.ClientID)
	buf = transport.AppendUvarint(buf, r.Seq)
	buf = transport.AppendLenString(buf, r.Op)
	// Group sits between Op and Payload as a mandatory field (empty =
	// unsharded): the trailer slot after Payload is taken by the trace
	// context, whose optionality depends on being the only thing there.
	buf = transport.AppendLenString(buf, r.Group)
	buf = transport.AppendLenBytes(buf, r.Payload)
	// Optional trace trailer: old decoders discard bytes past the last
	// field, and absence decodes as the zero (unsampled) context, so the
	// format stays compatible in both directions.
	if r.Trace.Valid() {
		buf = transport.AppendUvarint(buf, r.Trace.TraceID)
		buf = transport.AppendUvarint(buf, r.Trace.SpanID)
	}
	return buf
}

// DecodeFast implements transport.FastUnmarshaler.
func (r *Request) DecodeFast(data []byte) error {
	var err error
	// Client IDs and operation names draw from small recurring sets;
	// interning them keeps the per-request decode allocation-free.
	if r.ClientID, data, err = transport.ReadLenStringInterned(data); err != nil {
		return fmt.Errorf("rpc: request clientID: %w", err)
	}
	if r.Seq, data, err = transport.ReadUvarint(data); err != nil {
		return fmt.Errorf("rpc: request seq: %w", err)
	}
	if r.Op, data, err = transport.ReadLenStringInterned(data); err != nil {
		return fmt.Errorf("rpc: request op: %w", err)
	}
	if r.Group, data, err = transport.ReadLenStringInterned(data); err != nil {
		return fmt.Errorf("rpc: request group: %w", err)
	}
	if r.Payload, data, err = transport.ReadLenBytes(data); err != nil {
		return fmt.Errorf("rpc: request payload: %w", err)
	}
	r.Trace = readTraceTrailer(data)
	return nil
}

// decodeFrom is the server-loop decode: on the fast arm the payload
// aliases frame instead of being copied — the transport keeps the
// inbound frame alive until the handler returns, and nothing on the
// execute path retains the request payload past that point (anything
// forwarded or logged is re-encoded into its own buffer). A non-fast
// frame is a codec mismatch, which transport.Decode reports.
func (r *Request) decodeFrom(frame []byte) error {
	if len(frame) == 0 || frame[0] != transport.FastTag {
		return transport.Decode(frame, r)
	}
	data := frame[1:]
	var err error
	if r.ClientID, data, err = transport.ReadLenStringInterned(data); err != nil {
		return fmt.Errorf("rpc: request clientID: %w", err)
	}
	if r.Seq, data, err = transport.ReadUvarint(data); err != nil {
		return fmt.Errorf("rpc: request seq: %w", err)
	}
	if r.Op, data, err = transport.ReadLenStringInterned(data); err != nil {
		return fmt.Errorf("rpc: request op: %w", err)
	}
	if r.Group, data, err = transport.ReadLenStringInterned(data); err != nil {
		return fmt.Errorf("rpc: request group: %w", err)
	}
	if r.Payload, data, err = transport.ReadLenBytesInPlace(data); err != nil {
		return fmt.Errorf("rpc: request payload: %w", err)
	}
	r.Trace = readTraceTrailer(data)
	return nil
}

// readTraceTrailer decodes the optional trace trailer from whatever
// follows the last mandatory field. Absent or malformed trailers yield
// the zero (unsampled) context: trace metadata is advisory, a frame
// from an older peer is never rejected over it.
func readTraceTrailer(data []byte) telemetry.SpanContext {
	if len(data) == 0 {
		return telemetry.SpanContext{}
	}
	tid, data, err := transport.ReadUvarint(data)
	if err != nil {
		return telemetry.SpanContext{}
	}
	sid, _, err := transport.ReadUvarint(data)
	if err != nil {
		return telemetry.SpanContext{}
	}
	return telemetry.SpanContext{TraceID: tid, SpanID: sid}
}

// appendResponse writes one response body; shared by the single and the
// list codecs.
func appendResponse(buf []byte, r Response) []byte {
	buf = transport.AppendLenString(buf, r.ClientID)
	buf = transport.AppendUvarint(buf, r.Seq)
	buf = transport.AppendUvarint(buf, uint64(r.Status))
	buf = transport.AppendLenBytes(buf, r.Payload)
	buf = transport.AppendLenString(buf, r.Err)
	flag := byte(0)
	if r.Replayed {
		flag = 1
	}
	return append(buf, flag)
}

// readResponse consumes one response body and returns the remainder.
func readResponse(data []byte) (Response, []byte, error) {
	var r Response
	var err error
	if r.ClientID, data, err = transport.ReadLenStringInterned(data); err != nil {
		return r, nil, fmt.Errorf("rpc: response clientID: %w", err)
	}
	if r.Seq, data, err = transport.ReadUvarint(data); err != nil {
		return r, nil, fmt.Errorf("rpc: response seq: %w", err)
	}
	var status uint64
	if status, data, err = transport.ReadUvarint(data); err != nil {
		return r, nil, fmt.Errorf("rpc: response status: %w", err)
	}
	r.Status = Status(status)
	if r.Payload, data, err = transport.ReadLenBytes(data); err != nil {
		return r, nil, fmt.Errorf("rpc: response payload: %w", err)
	}
	if r.Err, data, err = transport.ReadLenString(data); err != nil {
		return r, nil, fmt.Errorf("rpc: response err: %w", err)
	}
	if len(data) < 1 {
		return r, nil, fmt.Errorf("rpc: response replayed flag: %w", transport.ErrShortBuffer)
	}
	r.Replayed = data[0] != 0
	return r, data[1:], nil
}

// AppendFast implements transport.FastMarshaler.
func (r Response) AppendFast(buf []byte) []byte { return appendResponse(buf, r) }

// DecodeFast implements transport.FastUnmarshaler.
func (r *Response) DecodeFast(data []byte) error {
	resp, _, err := readResponse(data)
	if err != nil {
		return err
	}
	*r = resp
	return nil
}

// ResponseList is a fast-coded batch of responses: reply-log snapshots
// and checkpoint-delta reply-log tails travel as one of these.
type ResponseList []Response

// AppendFast implements transport.FastMarshaler.
func (rl ResponseList) AppendFast(buf []byte) []byte {
	buf = transport.AppendUvarint(buf, uint64(len(rl)))
	for _, r := range rl {
		buf = appendResponse(buf, r)
	}
	return buf
}

// minResponseBytes is the smallest encoded response: five one-byte
// length/varint fields (clientID, seq, status, payload, err) plus the
// replayed flag.
const minResponseBytes = 6

// DecodeFast implements transport.FastUnmarshaler. An existing backing
// array is reused when it has the capacity, so a pooled list decodes
// batch after batch without reallocating. The entry count comes off the
// wire, so it is checked against the bytes that could hold that many
// entries before anything is allocated for them.
func (rl *ResponseList) DecodeFast(data []byte) error {
	n, data, err := transport.ReadUvarint(data)
	if err != nil {
		return fmt.Errorf("rpc: response list length: %w", err)
	}
	if n > uint64(len(data)/minResponseBytes) {
		return fmt.Errorf("rpc: response list claims %d entries in %d bytes: %w", n, len(data), transport.ErrShortBuffer)
	}
	out := (*rl)[:0]
	if uint64(cap(out)) < n {
		out = make(ResponseList, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		var r Response
		if r, data, err = readResponse(data); err != nil {
			return fmt.Errorf("rpc: response list entry %d: %w", i, err)
		}
		out = append(out, r)
	}
	*rl = out
	return nil
}
