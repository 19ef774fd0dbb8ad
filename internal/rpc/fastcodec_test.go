package rpc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"testing"

	"resilientft/internal/telemetry"
	"resilientft/internal/transport"
)

func TestRequestCodecRoundTripWithTrace(t *testing.T) {
	req := Request{
		ClientID: "c1",
		Seq:      42,
		Op:       "add:r0",
		Payload:  []byte{1, 2, 3},
		Trace:    telemetry.SpanContext{TraceID: 0xabc123, SpanID: 0xdef456},
	}
	data, err := transport.Encode(req)
	if err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := transport.Decode(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Trace != req.Trace {
		t.Fatalf("trace lost in round trip: got %+v want %+v", got.Trace, req.Trace)
	}
	if got.ClientID != req.ClientID || got.Seq != req.Seq || got.Op != req.Op || !bytes.Equal(got.Payload, req.Payload) {
		t.Fatalf("fields lost: %+v", got)
	}
}

func TestRequestCodecUnsampledBytesUnchanged(t *testing.T) {
	// An unsampled request must produce exactly the pre-trace wire bytes:
	// no trailer, no size change.
	req := Request{ClientID: "c1", Seq: 7, Op: "get:r0", Payload: []byte("x")}
	withTrailer := req
	withTrailer.Trace = telemetry.SpanContext{TraceID: 1, SpanID: 2}

	plain := req.AppendFast(nil)
	traced := withTrailer.AppendFast(nil)
	if !bytes.HasPrefix(traced, plain) {
		t.Fatal("trailer must extend, not alter, the base encoding")
	}
	if len(traced) == len(plain) {
		t.Fatal("valid trace must append a trailer")
	}

	// A pre-trace decoder (the PR 3 decode loop) read through Payload and
	// discarded the rest; the current decoder must accept trailerless
	// frames as unsampled.
	var got Request
	if err := got.DecodeFast(plain); err != nil {
		t.Fatal(err)
	}
	if got.Trace.Valid() {
		t.Fatalf("trailerless frame decoded a trace: %+v", got.Trace)
	}
}

func TestRequestCodecMalformedTrailerIgnored(t *testing.T) {
	req := Request{ClientID: "c1", Seq: 7, Op: "get:r0"}
	data := req.AppendFast(nil)
	// A truncated/garbage tail (e.g. an unterminated uvarint) must decode
	// as unsampled, never as an error.
	data = append(data, 0x80)
	var got Request
	if err := got.DecodeFast(data); err != nil {
		t.Fatalf("malformed trailer must not fail decode: %v", err)
	}
	if got.Trace.Valid() {
		t.Fatalf("malformed trailer produced a trace: %+v", got.Trace)
	}
}

// Request, Response and ResponseList have one wire form. Gob bytes —
// what a sender without the fast codecs would produce — and a truncated
// non-fast head are refused with an error and counted as a codec
// mismatch, by transport.Decode and by the server loop's in-place decode.
func TestFastTypesRejectGob(t *testing.T) {
	gobOf := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	inputs := map[string][]byte{
		"gob request":             gobOf(Request{ClientID: "c1", Seq: 1, Op: "add:x"}),
		"gob response":            gobOf(Response{ClientID: "c1", Seq: 1}),
		"gob response list":       gobOf([]Response{{ClientID: "c1", Seq: 1}}),
		"truncated non-fast head": {0x03, 0xFF, 0x00},
		"empty":                   nil,
	}
	decoders := map[string]func([]byte) error{
		"Decode(*Request)":      func(b []byte) error { return transport.Decode(b, new(Request)) },
		"Request.decodeFrom":    func(b []byte) error { return new(Request).decodeFrom(b) },
		"Decode(*Response)":     func(b []byte) error { return transport.Decode(b, new(Response)) },
		"Decode(*ResponseList)": func(b []byte) error { return transport.Decode(b, new(ResponseList)) },
	}
	for dn, decode := range decoders {
		for in, data := range inputs {
			before := transport.DropCount(transport.DropCodecMismatch)
			if err := decode(data); err == nil {
				t.Errorf("%s accepted %s", dn, in)
			}
			if got := transport.DropCount(transport.DropCodecMismatch); got != before+1 {
				t.Errorf("%s on %s: codec-mismatch drops = %d, want %d", dn, in, got, before+1)
			}
		}
	}
}

// A response list's entry count comes off the wire: a 6-byte frame
// claiming 2^40 entries must be refused as short before the decoder
// sizes a backing array for them (an allocation that size is a fatal
// runtime error no recover catches).
func TestResponseListRejectsOversizedCount(t *testing.T) {
	var rl ResponseList
	err := rl.DecodeFast(binary.AppendUvarint(nil, 1<<40))
	if !errors.Is(err, transport.ErrShortBuffer) {
		t.Fatalf("err = %v, want transport.ErrShortBuffer", err)
	}
}

// FuzzResponseListDecode drives the response-list decode with
// adversarial bytes: valid 0-, 1- and 3-entry lists, their truncations
// and an entry count far past what the buffer can hold. The decode may
// reject anything but must never panic, and whatever it accepts must
// re-encode through AppendFast to a list that decodes equal.
func FuzzResponseListDecode(f *testing.F) {
	lists := []ResponseList{
		{},
		{{ClientID: "c1", Seq: 1, Payload: []byte{1, 2}}},
		{
			{ClientID: "c1", Seq: 1, Payload: []byte("a")},
			{ClientID: "c2", Seq: 9, Status: StatusAppError, Err: "boom"},
			{ClientID: "c1", Seq: 2, Replayed: true},
		},
	}
	for _, rl := range lists {
		wire := rl.AppendFast(nil)
		f.Add(wire)
		f.Add(wire[:len(wire)/2])
	}
	f.Add(binary.AppendUvarint(nil, 1<<40))

	f.Fuzz(func(t *testing.T, data []byte) {
		var rl ResponseList
		if err := rl.DecodeFast(data); err != nil {
			return
		}
		var back ResponseList
		if err := back.DecodeFast(rl.AppendFast(nil)); err != nil {
			t.Fatalf("re-decode of accepted list failed: %v", err)
		}
		if len(back) != len(rl) {
			t.Fatalf("re-encode changed the length: %d vs %d", len(back), len(rl))
		}
		for i := range rl {
			a, b := rl[i], back[i]
			if a.ClientID != b.ClientID || a.Seq != b.Seq || a.Status != b.Status ||
				!bytes.Equal(a.Payload, b.Payload) || a.Err != b.Err || a.Replayed != b.Replayed {
				t.Fatalf("entry %d drifted: %+v vs %+v", i, b, a)
			}
		}
	})
}
