package appstate

import (
	"bytes"
	"testing"

	"resilientft/internal/transport"
)

// The PR 6 zero-alloc apply work pins its gains here: the fast-codec
// round-trips of both checkpoint shapes must stay allocation-free when
// the encode buffer is reused and the decode is the in-place variant.
// A regression (a defensive copy creeping back in, a field moved
// through an interface) fails this test before it shows up as a
// throughput loss in the benchmarks.

func TestAllocBudgetCheckpointRoundTrip(t *testing.T) {
	cp := Checkpoint{
		AppState:     bytes.Repeat([]byte{0xAB}, 512),
		ReplyLog:     bytes.Repeat([]byte{0xCD}, 256),
		LastSeq:      991,
		StateVersion: 77,
	}
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(200, func() {
		buf = append(buf[:0], transport.FastTag)
		buf = cp.AppendFast(buf)
		got, err := DecodeCheckpointInPlace(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.LastSeq != cp.LastSeq || got.StateVersion != cp.StateVersion {
			t.Fatalf("round trip: %+v", got)
		}
	})
	if allocs > 0 {
		t.Errorf("full-checkpoint round trip allocates %.0f/op, budget 0", allocs)
	}
}

func TestAllocBudgetDeltaCheckpointRoundTrip(t *testing.T) {
	dc := DeltaCheckpoint{
		BaseVersion: 40,
		ToVersion:   41,
		Delta:       bytes.Repeat([]byte{0x11}, 128),
		ReplyTail:   bytes.Repeat([]byte{0x22}, 64),
		LastSeq:     1213,
	}
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(200, func() {
		buf = append(buf[:0], transport.FastTag)
		buf = dc.AppendFast(buf)
		got, err := DecodeDeltaCheckpointInPlace(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.BaseVersion != dc.BaseVersion || got.ToVersion != dc.ToVersion || got.LastSeq != dc.LastSeq {
			t.Fatalf("round trip: %+v", got)
		}
	})
	if allocs > 0 {
		t.Errorf("delta-checkpoint round trip allocates %.0f/op, budget 0", allocs)
	}
}

// FuzzCheckpointDecodeInPlace drives the full-checkpoint decode with
// adversarial bytes: valid encodings, every-prefix truncations, a
// length claim past MaxEnvelope on a short buffer, and non-fast leads.
// The decode may reject anything and must reject whatever does not open
// with the fast tag, but must never panic, and whatever it accepts must
// re-encode to a decodable equivalent.
func FuzzCheckpointDecodeInPlace(f *testing.F) {
	valid := Checkpoint{
		AppState:     []byte("app-state-bytes"),
		ReplyLog:     []byte("reply-log-bytes"),
		LastSeq:      42,
		StateVersion: 7,
	}
	wire := valid.AppendFast([]byte{transport.FastTag})
	f.Add(wire)
	for _, cut := range []int{0, 1, 2, len(wire) / 2, len(wire) - 1} {
		f.Add(wire[:cut])
	}
	// A length claim beyond MaxEnvelope with (necessarily) no body
	// behind it: the decoder must fail on the short buffer instead of
	// trusting the claim.
	f.Add(transport.AppendUvarint([]byte{transport.FastTag}, uint64(transport.MaxEnvelope)+1))
	// Non-fast leads: an actual gob encoding and a corrupt non-fast head.
	gobWire := gobBytes(f, valid)
	f.Add(gobWire)
	f.Add(gobWire[:len(gobWire)/2])
	f.Add([]byte{0x03, 0xFF, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpointInPlace(data)
		if err != nil {
			return
		}
		if data[0] != transport.FastTag {
			t.Fatalf("accepted a checkpoint that does not open with the fast tag: % x", data)
		}
		re := cp.AppendFast([]byte{transport.FastTag})
		back, err := DecodeCheckpointInPlace(re)
		if err != nil {
			t.Fatalf("re-decode of accepted checkpoint failed: %v", err)
		}
		if back.LastSeq != cp.LastSeq || back.StateVersion != cp.StateVersion ||
			!bytes.Equal(back.AppState, cp.AppState) || !bytes.Equal(back.ReplyLog, cp.ReplyLog) {
			t.Fatalf("re-encode drifted: %+v vs %+v", back, cp)
		}
	})
}

// FuzzDeltaCheckpointDecodeInPlace is the same contract for the
// per-request delta shape.
func FuzzDeltaCheckpointDecodeInPlace(f *testing.F) {
	valid := DeltaCheckpoint{BaseVersion: 3, ToVersion: 4, Delta: []byte("delta"), ReplyTail: []byte("tail"), LastSeq: 9}
	wire := valid.AppendFast([]byte{transport.FastTag})
	f.Add(wire)
	for _, cut := range []int{1, len(wire) / 2, len(wire) - 1} {
		f.Add(wire[:cut])
	}
	f.Add(transport.AppendUvarint([]byte{transport.FastTag, 0x01, 0x02}, uint64(transport.MaxEnvelope)+1))
	f.Add(gobBytes(f, valid))
	f.Fuzz(func(t *testing.T, data []byte) {
		dc, err := DecodeDeltaCheckpointInPlace(data)
		if err != nil {
			return
		}
		if data[0] != transport.FastTag {
			t.Fatalf("accepted a delta checkpoint that does not open with the fast tag: % x", data)
		}
		re := dc.AppendFast([]byte{transport.FastTag})
		if _, err := DecodeDeltaCheckpointInPlace(re); err != nil {
			t.Fatalf("re-decode of accepted delta failed: %v", err)
		}
	})
}
