package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"
)

// Binary TCP framing and the coalescing writer.
//
// A stream opens with one magic byte and then carries length-prefixed
// binary frames: [4-byte big-endian body length][body]. A receiver closes
// a stream that opens with any other byte.
//
// Frames from concurrent senders — a commit wave's checkpoint plus the
// request forwards and replies pipelined around it — coalesce in a
// per-connection write queue and leave in one writev-style
// net.Buffers write: one syscall per batch per peer instead of one per
// frame.

// tcpMagic opens a stream in each direction.
const tcpMagic = 0xFB

// tcpFrameOverhead bounds the frame body minus payload: ID, flags and
// the three length-prefixed strings (From and Kind are addresses and
// kind names; Err is an error string).
const tcpFrameOverhead = 4 << 10

// Frame flag bits.
const (
	tcpFlagOneWay = 1 << 0
)

// appendTCPFrame appends f as one length-prefixed frame.
func appendTCPFrame(buf []byte, f *tcpFrame) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length prefix, fixed below
	var flags byte
	if f.OneWay {
		flags |= tcpFlagOneWay
	}
	buf = AppendUvarint(buf, f.ID)
	buf = append(buf, flags)
	buf = AppendLenString(buf, f.From)
	buf = AppendLenString(buf, f.Kind)
	buf = AppendLenString(buf, f.Err)
	// The payload runs to the end of the body: the length prefix already
	// bounds it, so it carries no length of its own.
	buf = append(buf, f.Payload...)
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// decodeTCPFrame decodes one frame body in place: From, Kind and Err
// intern (tiny recurring sets), Payload aliases body. The caller owns
// body until the frame's consumer is done with it.
func decodeTCPFrame(body []byte, f *tcpFrame) error {
	var err error
	var flags byte
	if f.ID, body, err = ReadUvarint(body); err != nil {
		return fmt.Errorf("transport: frame id: %w", err)
	}
	if len(body) < 1 {
		return fmt.Errorf("transport: frame flags: %w", ErrShortBuffer)
	}
	flags, body = body[0], body[1:]
	f.OneWay = flags&tcpFlagOneWay != 0
	if f.From, body, err = ReadLenStringInterned(body); err != nil {
		return fmt.Errorf("transport: frame from: %w", err)
	}
	if f.Kind, body, err = ReadLenStringInterned(body); err != nil {
		return fmt.Errorf("transport: frame kind: %w", err)
	}
	if f.Err, body, err = ReadLenStringInterned(body); err != nil {
		return fmt.Errorf("transport: frame err: %w", err)
	}
	f.Payload = body
	return nil
}

// writeStatus is the per-frame outcome of a coalesced write. The
// three-way split is what keeps redial-once sound across a batch that
// failed midway: only a frame whose bytes never reached the connection
// may be re-shipped on a fresh one.
type writeStatus int32

const (
	// writeDone: the frame was fully handed to the connection.
	writeDone writeStatus = iota
	// writeFailed: no byte of the frame was written — safe to resend.
	writeFailed
	// writeAmbiguous: the batch write died inside this frame; some of
	// its bytes are on the wire, so resending could deliver it twice.
	writeAmbiguous
)

// pendingFrame is one queued frame. done (when non-nil) closes once
// status is decided; the writer owns buf and recycles it afterwards.
type pendingFrame struct {
	buf    []byte
	status writeStatus
	done   chan struct{}
}

func (p *pendingFrame) finish(s writeStatus) {
	p.status = s
	if p.done != nil {
		close(p.done)
	}
}

// tcpWriter coalesces outbound frames on one connection. Frames queue
// under mu; a single flusher drains the queue with one net.Buffers
// write per batch, so frames enqueued while a write is in flight leave
// together on the next one. A write error is sticky: the connection is
// closed (waking its read loop) and every later enqueue fails fast.
type tcpWriter struct {
	conn net.Conn

	mu       sync.Mutex
	queue    []*pendingFrame
	flushing bool
	err      error
}

func newTCPWriter(conn net.Conn) *tcpWriter {
	return &tcpWriter{conn: conn}
}

// enqueue hands buf to the writer (which owns and recycles it) and
// returns the pending frame. track asks for a done channel; reply
// writers skip it and rely on the sticky error alone.
func (w *tcpWriter) enqueue(buf []byte, track bool) *pendingFrame {
	pf := &pendingFrame{buf: buf}
	if track {
		pf.done = make(chan struct{})
	}
	w.mu.Lock()
	if w.err != nil {
		w.mu.Unlock()
		PutBuf(buf)
		pf.finish(writeFailed)
		return pf
	}
	w.queue = append(w.queue, pf)
	start := !w.flushing
	if start {
		w.flushing = true
	}
	w.mu.Unlock()
	if start {
		go w.flush()
	}
	return pf
}

// fail marks the writer broken without writing; queued frames resolve
// as never-written.
func (w *tcpWriter) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	q := w.queue
	w.queue = nil
	w.mu.Unlock()
	for _, pf := range q {
		PutBuf(pf.buf)
		pf.finish(writeFailed)
	}
}

// flush drains the queue, one coalesced write per batch, until the
// queue is empty or the connection broke.
func (w *tcpWriter) flush() {
	for {
		w.mu.Lock()
		if w.err != nil || len(w.queue) == 0 {
			w.flushing = false
			w.mu.Unlock()
			return
		}
		batch := w.queue
		w.queue = nil
		w.mu.Unlock()

		bufs := make(net.Buffers, len(batch))
		for i, pf := range batch {
			bufs[i] = pf.buf
		}
		// One writev-style write for the whole batch. (WriteTo may split
		// a very large batch across several syscalls — the counter reads
		// as "batched writes", a lower bound on the syscalls saved.)
		_, err := bufs.WriteTo(w.conn)
		mWriteSyscalls.Inc()
		mFramesPerWrite.Observe(time.Duration(len(batch)))
		if err == nil {
			for _, pf := range batch {
				PutBuf(pf.buf)
				pf.finish(writeDone)
			}
			continue
		}
		// WriteTo consumed bufs as it wrote: fully-written frames left
		// the slice, a partially-written one leads it shortened. Split
		// the batch accordingly so redial-once upstream only re-ships
		// frames that never touched the wire.
		written := len(batch) - len(bufs)
		partial := len(bufs) > 0 && len(bufs[0]) != len(batch[written].buf)
		for i, pf := range batch {
			switch {
			case i < written:
				PutBuf(pf.buf)
				pf.finish(writeDone)
			case i == written && partial:
				PutBuf(pf.buf)
				pf.finish(writeAmbiguous)
			default:
				PutBuf(pf.buf)
				pf.finish(writeFailed)
			}
		}
		w.mu.Lock()
		if w.err == nil {
			w.err = err
		}
		rest := w.queue
		w.queue = nil
		w.mu.Unlock()
		for _, pf := range rest {
			PutBuf(pf.buf)
			pf.finish(writeFailed)
		}
		// Wake the connection's read loop so pending calls fail over.
		w.conn.Close()
		w.mu.Lock()
		w.flushing = false
		w.mu.Unlock()
		return
	}
}

// frameBuf returns a pooled buffer sized for a frame body of n bytes.
func frameBuf(n int) []byte {
	buf := GetBuf()
	if cap(buf) >= n {
		return buf[:n]
	}
	PutBuf(buf)
	return make([]byte, n)
}
