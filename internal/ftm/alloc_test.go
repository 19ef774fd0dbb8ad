package ftm

import (
	"bytes"
	"encoding/gob"
	"testing"

	"resilientft/internal/appstate"
	"resilientft/internal/transport"
)

// TestAllocBudgetSlaveApplyDecode pins the decode half of the slave
// apply path at zero allocations per inter-replica message: envelope
// decode (interned strings, payload aliasing the frame) plus the
// in-place delta-checkpoint decode of its payload. The state and log
// writes behind it allocate only for what they retain; the wire-to-
// struct part must not contribute. transport.Decode's any parameter
// alone would cost one heap escape per message here, which is exactly
// the regression this budget catches.
func TestAllocBudgetSlaveApplyDecode(t *testing.T) {
	dc := appstate.DeltaCheckpoint{
		BaseVersion: 10,
		ToVersion:   11,
		Delta:       bytes.Repeat([]byte{0x42}, 96),
		ReplyTail:   bytes.Repeat([]byte{0x17}, 48),
		LastSeq:     321,
	}
	env := replicaEnvelope{
		Kind:    MsgPBRDelta,
		From:    "127.0.0.1:7001",
		System:  "alloc-test",
		Payload: dc.AppendFast([]byte{transport.FastTag}),
	}
	wire := env.AppendFast([]byte{transport.FastTag})

	var got replicaEnvelope
	allocs := testing.AllocsPerRun(200, func() {
		if err := decodeEnvelope(wire, &got); err != nil {
			t.Fatal(err)
		}
		inner, err := appstate.DecodeDeltaCheckpointInPlace(got.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if inner.ToVersion != dc.ToVersion || inner.LastSeq != dc.LastSeq {
			t.Fatalf("apply decode drifted: %+v", inner)
		}
	})
	if allocs > 0 {
		t.Errorf("slave apply decode allocates %.0f/op, budget 0", allocs)
	}
}

// The envelope has one wire form. Gob bytes — what a sender without the
// fast codec would produce — and a truncated non-fast head are refused
// with an error and counted as a codec mismatch.
func TestEnvelopeRejectsGob(t *testing.T) {
	var gobWire bytes.Buffer
	if err := gob.NewEncoder(&gobWire).Encode(replicaEnvelope{Kind: KindReplica, From: "a", Payload: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"gob":                     gobWire.Bytes(),
		"truncated non-fast head": {0x03, 0xFF, 0x00},
		"empty":                   nil,
	} {
		before := transport.DropCount(transport.DropCodecMismatch)
		var env replicaEnvelope
		if err := decodeEnvelope(data, &env); err == nil {
			t.Errorf("%s: decoded to %+v", name, env)
		}
		if got := transport.DropCount(transport.DropCodecMismatch); got != before+1 {
			t.Errorf("%s: codec-mismatch drops = %d, want %d", name, got, before+1)
		}
	}
}
