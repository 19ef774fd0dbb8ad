package transport

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
)

// encBufPool recycles the scratch buffers behind Encode. Gob encoders
// themselves cannot be pooled — a gob stream transmits type descriptors
// only once, so an encoder reused across messages produces streams a
// fresh decoder cannot read — but the buffer growth is where the
// allocation cost lives.
var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// fastTag marks a hand-rolled binary encoding produced by a
// FastMarshaler. A gob stream always begins with a message byte count
// encoded as an unsigned varint, whose first byte is either 0x01..0x7F
// (small counts) or 0xF8..0xFF (negated byte-count prefix), so 0xD1 can
// never open a gob stream: Decode tells the two formats apart, and a
// type has exactly one of them.
const fastTag = 0xD1

// FastTag is the public name of the fast-format tag byte, for codecs
// (the appstate register file) that build tagged buffers directly
// instead of round-tripping through an intermediate value.
const FastTag = fastTag

// FastMarshaler is implemented by high-frequency fixed-shape message
// types (rpc requests and responses, replica envelopes) that encode
// themselves with a hand-rolled binary layout instead of gob. Encode
// recognizes the interface and emits the tagged fast format; Decode
// requires the tag for such a type. The appended body must be
// self-delimiting.
type FastMarshaler interface {
	AppendFast(buf []byte) []byte
}

// FastUnmarshaler is the decoding half of the fast path, implemented on
// the pointer type.
type FastUnmarshaler interface {
	DecodeFast(data []byte) error
}

// Encode serializes v for transmission: the hand-rolled fast format for
// FastMarshaler values, gob for everything else.
func Encode(v any) ([]byte, error) {
	if fm, ok := v.(FastMarshaler); ok {
		mEncodeFast.Inc()
		buf := make([]byte, 1, 64)
		buf[0] = fastTag
		return fm.AppendFast(buf), nil
	}
	mEncodeGob.Inc()
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		encBufPool.Put(buf)
		return nil, fmt.Errorf("transport: encode %T: %w", v, err)
	}
	out := append([]byte(nil), buf.Bytes()...)
	encBufPool.Put(buf)
	return out, nil
}

// EncodePooled is Encode drawing its output buffer from the transport
// buffer pool. The caller owns the returned bytes and should hand them
// back with PutBuf once nothing references them (for gob-encoded
// values it behaves exactly like Encode; only the fast path pools).
func EncodePooled(v any) ([]byte, error) {
	if fm, ok := v.(FastMarshaler); ok {
		mEncodeFast.Inc()
		buf := append(GetBuf(), fastTag)
		return fm.AppendFast(buf), nil
	}
	return Encode(v)
}

// FastFrame returns a pooled buffer primed with the fast-codec tag.
// Hot paths call value.AppendFast(FastFrame()) directly instead of
// EncodePooled(value): the concrete call skips the interface boxing
// that EncodePooled's any parameter forces on every request.
func FastFrame() []byte {
	mEncodeFast.Inc()
	return append(GetBuf(), fastTag)
}

// Decode deserializes data into v (a pointer): the fast format into a
// FastUnmarshaler, gob into the control-plane types that have no fast
// codec. Data in the other type's format is a codec mismatch.
func Decode(data []byte, v any) error {
	if len(data) > 0 && data[0] == fastTag {
		fu, ok := v.(FastUnmarshaler)
		if !ok {
			CountDrop(DropCodecMismatch)
			return fmt.Errorf("transport: fast-coded data but %T cannot fast-decode", v)
		}
		if err := fu.DecodeFast(data[1:]); err != nil {
			CountDrop(DropDecodeError)
			return fmt.Errorf("transport: decode into %T: %w", v, err)
		}
		mDecodeFast.Inc()
		return nil
	}
	if _, ok := v.(FastUnmarshaler); ok {
		CountDrop(DropCodecMismatch)
		return fmt.Errorf("transport: %T is fast-coded but the data is not", v)
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		CountDrop(DropDecodeError)
		return fmt.Errorf("transport: decode into %T: %w", v, err)
	}
	mDecodeGob.Inc()
	return nil
}

// MustEncode is Encode that panics on error; for values whose
// encodability is a static property of the program.
func MustEncode(v any) []byte {
	data, err := Encode(v)
	if err != nil {
		panic(err)
	}
	return data
}
