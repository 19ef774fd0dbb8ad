package appstate

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

func TestDeltaCheckpointFastRoundTrip(t *testing.T) {
	in := DeltaCheckpoint{
		BaseVersion: 7,
		ToVersion:   12,
		Delta:       []byte{1, 2, 3},
		ReplyTail:   []byte("tail"),
		LastSeq:     99,
	}
	data, err := EncodeDeltaCheckpoint(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeDeltaCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

// The register write-set layout round-trips through capture and apply:
// negative, large and zero values, and deletions.
func TestRegDeltaFastRoundTrip(t *testing.T) {
	src := NewRegisters()
	src.Set("a", 1)
	onlyA, err := src.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	src.Set("gone", 4)
	src.Set("too", 5)
	dst := NewRegisters()
	full, ver, err := src.CaptureVersioned()
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ApplyFull(full, ver); err != nil {
		t.Fatal(err)
	}
	base := src.StateVersion()
	if err := src.RestoreState(onlyA); err != nil { // deletes "gone" and "too"
		t.Fatal(err)
	}
	want := map[string]int64{"a": -5, "b": 1 << 40, "c": 0}
	for k, v := range want {
		src.Set(k, v)
	}
	delta, to, ok, err := src.CaptureDelta(base)
	if err != nil || !ok {
		t.Fatalf("CaptureDelta: ok=%v err=%v", ok, err)
	}
	if got, err := dst.ApplyDelta(delta); err != nil || got != to {
		t.Fatalf("ApplyDelta = %d, %v; want %d", got, err, to)
	}
	if names := dst.Names(); !reflect.DeepEqual(names, []string{"a", "b", "c"}) {
		t.Fatalf("registers after delta = %v, want [a b c]", names)
	}
	for k, v := range want {
		if dst.Get(k) != v {
			t.Fatalf("%s = %d, want %d", k, dst.Get(k), v)
		}
	}
}

// gobBytes is what a sender without the fast codecs would have put on
// the wire for v.
func gobBytes(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// Checkpoint payloads have one wire form, the tagged fast layout. Gob
// bytes and a truncated non-fast head must be refused with an error —
// not a panic, not a silently zero value — by every decoder.
func TestFastTypesRejectGob(t *testing.T) {
	inputs := map[string][]byte{
		"gob checkpoint":          gobBytes(t, Checkpoint{AppState: []byte{1}, LastSeq: 4}),
		"gob delta checkpoint":    gobBytes(t, DeltaCheckpoint{BaseVersion: 1, ToVersion: 2, Delta: []byte{9}, LastSeq: 4}),
		"gob register map":        gobBytes(t, map[string]int64{"x": 1}),
		"truncated non-fast head": {0x03, 0xFF, 0x00},
		"empty":                   nil,
	}
	decoders := map[string]func([]byte) error{
		"DecodeCheckpoint":             func(b []byte) error { _, err := DecodeCheckpoint(b); return err },
		"DecodeCheckpointInPlace":      func(b []byte) error { _, err := DecodeCheckpointInPlace(b); return err },
		"DecodeDeltaCheckpoint":        func(b []byte) error { _, err := DecodeDeltaCheckpoint(b); return err },
		"DecodeDeltaCheckpointInPlace": func(b []byte) error { _, err := DecodeDeltaCheckpointInPlace(b); return err },
		"Registers.ApplyDelta":         func(b []byte) error { _, err := NewRegisters().ApplyDelta(b); return err },
		"Registers.RestoreState":       func(b []byte) error { return NewRegisters().RestoreState(b) },
	}
	for dn, decode := range decoders {
		for in, data := range inputs {
			if err := decode(data); err == nil {
				t.Errorf("%s accepted %s", dn, in)
			}
		}
	}
}

func TestDeltaRoundTripThroughRegisters(t *testing.T) {
	src := NewRegisters()
	src.Set("a", 1)
	base := src.StateVersion()
	dst := NewRegisters()
	full, ver, err := src.CaptureVersioned()
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ApplyFull(full, ver); err != nil {
		t.Fatal(err)
	}
	src.Set("b", -7)
	src.Set("a", 2)
	delta, to, ok, err := src.CaptureDelta(base)
	if err != nil || !ok {
		t.Fatalf("CaptureDelta: ok=%v err=%v", ok, err)
	}
	got, err := dst.ApplyDelta(delta)
	if err != nil {
		t.Fatal(err)
	}
	if got != to {
		t.Fatalf("ApplyDelta version = %d, want %d", got, to)
	}
	if dst.Get("a") != 2 || dst.Get("b") != -7 {
		t.Fatalf("state after delta: a=%d b=%d", dst.Get("a"), dst.Get("b"))
	}
}
