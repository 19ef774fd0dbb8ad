package appstate

import (
	"fmt"

	"resilientft/internal/transport"
)

// Hand-rolled binary codecs for the checkpoint payloads. Under delta
// checkpointing a DeltaCheckpoint (carrying a register write-set)
// crosses the wire on every client request, and a full Checkpoint rides
// the periodic refresh every few dozen commit waves, so all of them skip
// gob the same way rpc.Request and rpc.Response do. A receiver that
// cannot decode a delta NACKs it and the sender falls back to a full
// checkpoint, so a codec mismatch degrades to a resync rather than a
// stall.

var (
	_ transport.FastMarshaler   = DeltaCheckpoint{}
	_ transport.FastUnmarshaler = (*DeltaCheckpoint)(nil)
	_ transport.FastMarshaler   = Checkpoint{}
	_ transport.FastUnmarshaler = (*Checkpoint)(nil)
)

// AppendFast implements transport.FastMarshaler.
func (cp Checkpoint) AppendFast(buf []byte) []byte {
	buf = transport.AppendLenBytes(buf, cp.AppState)
	buf = transport.AppendLenBytes(buf, cp.ReplyLog)
	buf = transport.AppendUvarint(buf, cp.LastSeq)
	return transport.AppendUvarint(buf, cp.StateVersion)
}

// DecodeFast implements transport.FastUnmarshaler.
func (cp *Checkpoint) DecodeFast(data []byte) error {
	var err error
	if cp.AppState, data, err = transport.ReadLenBytes(data); err != nil {
		return fmt.Errorf("appstate: checkpoint app state: %w", err)
	}
	if cp.ReplyLog, data, err = transport.ReadLenBytes(data); err != nil {
		return fmt.Errorf("appstate: checkpoint reply log: %w", err)
	}
	if cp.LastSeq, data, err = transport.ReadUvarint(data); err != nil {
		return fmt.Errorf("appstate: checkpoint last seq: %w", err)
	}
	if cp.StateVersion, _, err = transport.ReadUvarint(data); err != nil {
		return fmt.Errorf("appstate: checkpoint state version: %w", err)
	}
	return nil
}

// DecodeCheckpointInPlace is DecodeCheckpoint without the defensive
// copies: AppState and ReplyLog alias data. It serves the replica apply
// path, which consumes both before the enclosing handler returns.
func DecodeCheckpointInPlace(data []byte) (Checkpoint, error) {
	if len(data) == 0 || data[0] != transport.FastTag {
		return Checkpoint{}, errNotFast("checkpoint")
	}
	var cp Checkpoint
	data = data[1:]
	var err error
	if cp.AppState, data, err = transport.ReadLenBytesInPlace(data); err != nil {
		return cp, fmt.Errorf("appstate: checkpoint app state: %w", err)
	}
	if cp.ReplyLog, data, err = transport.ReadLenBytesInPlace(data); err != nil {
		return cp, fmt.Errorf("appstate: checkpoint reply log: %w", err)
	}
	if cp.LastSeq, data, err = transport.ReadUvarint(data); err != nil {
		return cp, fmt.Errorf("appstate: checkpoint last seq: %w", err)
	}
	if cp.StateVersion, _, err = transport.ReadUvarint(data); err != nil {
		return cp, fmt.Errorf("appstate: checkpoint state version: %w", err)
	}
	return cp, nil
}

// DecodeDeltaCheckpointInPlace is DecodeDeltaCheckpoint without the
// defensive copies: Delta and ReplyTail alias data. It serves the
// replica apply path, which consumes both before the enclosing handler
// returns; callers that retain the parts must use the copying variant.
func DecodeDeltaCheckpointInPlace(data []byte) (DeltaCheckpoint, error) {
	if len(data) == 0 || data[0] != transport.FastTag {
		return DeltaCheckpoint{}, errNotFast("delta checkpoint")
	}
	var dc DeltaCheckpoint
	data = data[1:]
	var err error
	if dc.BaseVersion, data, err = transport.ReadUvarint(data); err != nil {
		return dc, fmt.Errorf("appstate: delta checkpoint base: %w", err)
	}
	if dc.ToVersion, data, err = transport.ReadUvarint(data); err != nil {
		return dc, fmt.Errorf("appstate: delta checkpoint to: %w", err)
	}
	if dc.Delta, data, err = transport.ReadLenBytesInPlace(data); err != nil {
		return dc, fmt.Errorf("appstate: delta checkpoint delta: %w", err)
	}
	if dc.ReplyTail, data, err = transport.ReadLenBytesInPlace(data); err != nil {
		return dc, fmt.Errorf("appstate: delta checkpoint reply tail: %w", err)
	}
	if dc.LastSeq, _, err = transport.ReadUvarint(data); err != nil {
		return dc, fmt.Errorf("appstate: delta checkpoint last seq: %w", err)
	}
	return dc, nil
}

// AppendFast implements transport.FastMarshaler.
func (dc DeltaCheckpoint) AppendFast(buf []byte) []byte {
	buf = transport.AppendUvarint(buf, dc.BaseVersion)
	buf = transport.AppendUvarint(buf, dc.ToVersion)
	buf = transport.AppendLenBytes(buf, dc.Delta)
	buf = transport.AppendLenBytes(buf, dc.ReplyTail)
	return transport.AppendUvarint(buf, dc.LastSeq)
}

// DecodeFast implements transport.FastUnmarshaler.
func (dc *DeltaCheckpoint) DecodeFast(data []byte) error {
	var err error
	if dc.BaseVersion, data, err = transport.ReadUvarint(data); err != nil {
		return fmt.Errorf("appstate: delta checkpoint base: %w", err)
	}
	if dc.ToVersion, data, err = transport.ReadUvarint(data); err != nil {
		return fmt.Errorf("appstate: delta checkpoint to: %w", err)
	}
	if dc.Delta, data, err = transport.ReadLenBytes(data); err != nil {
		return fmt.Errorf("appstate: delta checkpoint delta: %w", err)
	}
	if dc.ReplyTail, data, err = transport.ReadLenBytes(data); err != nil {
		return fmt.Errorf("appstate: delta checkpoint reply tail: %w", err)
	}
	if dc.LastSeq, _, err = transport.ReadUvarint(data); err != nil {
		return fmt.Errorf("appstate: delta checkpoint last seq: %w", err)
	}
	return nil
}
