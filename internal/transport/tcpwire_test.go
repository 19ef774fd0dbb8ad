package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

func TestTCPFrameRoundTrip(t *testing.T) {
	frames := []tcpFrame{
		{ID: 1, From: "127.0.0.1:9", Kind: "rpc", Payload: []byte("hello"), OneWay: false},
		{ID: 0, From: "", Kind: "", Payload: nil, OneWay: true},
		{ID: 1 << 62, From: "a", Kind: "replica", Payload: bytes.Repeat([]byte{0xFB}, 4096), Err: "boom"},
	}
	for _, want := range frames {
		wire := appendTCPFrame(nil, &want)
		n := binary.BigEndian.Uint32(wire)
		if int(n) != len(wire)-4 {
			t.Fatalf("length prefix %d, body %d", n, len(wire)-4)
		}
		var got tcpFrame
		if err := decodeTCPFrame(wire[4:], &got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.ID != want.ID || got.From != want.From || got.Kind != want.Kind ||
			got.OneWay != want.OneWay || got.Err != want.Err || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestTCPFrameDecodeTruncated(t *testing.T) {
	frame := tcpFrame{ID: 7, From: "x", Kind: "rpc", Payload: []byte("payload")}
	wire := appendTCPFrame(nil, &frame)
	body := wire[4:]
	// Every truncation of the pre-payload header must error, never panic
	// or misread. (Truncating inside the payload is undetectable by
	// design — the length prefix, checked by the read loops, owns that.)
	headerLen := len(body) - len(frame.Payload)
	for i := 0; i < headerLen; i++ {
		var got tcpFrame
		if err := decodeTCPFrame(body[:i], &got); err == nil {
			t.Fatalf("truncation at %d decoded: %+v", i, got)
		}
	}
}

// errAfterConn passes writes through to a real connection until limit
// bytes, then fails. Writev-style batches degrade to sequential writes
// on it (it is not a *net.TCPConn), which is exactly what lets the test
// pin per-frame outcomes.
type errAfterConn struct {
	net.Conn
	mu      sync.Mutex
	limit   int
	written int
}

func (c *errAfterConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	room := c.limit - c.written
	if room <= 0 {
		return 0, errors.New("injected: connection broke")
	}
	if len(p) <= room {
		n, err := c.Conn.Write(p)
		c.written += n
		return n, err
	}
	n, err := c.Conn.Write(p[:room])
	c.written += n
	if err != nil {
		return n, err
	}
	return n, errors.New("injected: connection broke mid-frame")
}

// TestTCPWriterPartialBatchOutcomes drives a coalesced batch into a
// connection that dies midway and checks the three-way outcome split:
// frames fully written report done, the frame the failure landed in
// reports ambiguous (must not be resent), and frames never written
// report failed (safe to resend).
func TestTCPWriterPartialBatchOutcomes(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	go io.Copy(io.Discard, server)

	mkframe := func(id uint64) []byte {
		return appendTCPFrame(nil, &tcpFrame{ID: id, Kind: "rpc", Payload: bytes.Repeat([]byte{byte(id)}, 64)})
	}
	one := mkframe(1)
	// Let frame 1 through whole and cut inside frame 2.
	conn := &errAfterConn{Conn: client, limit: len(one) + 10}
	w := newTCPWriter(conn)

	// Stall the flusher inside frame 1's write by not reading from the
	// pipe yet... net.Pipe writes block until read, so enqueue the whole
	// batch before the copier drains it: queue all three under the
	// writer's own batching by enqueueing them back to back.
	w.mu.Lock() // hold the queue so all three frames land in one batch
	var pfs []*pendingFrame
	done := make(chan struct{})
	go func() {
		defer close(done)
		pfs = []*pendingFrame{
			w.enqueue(one, true),
			w.enqueue(mkframe(2), true),
			w.enqueue(mkframe(3), true),
		}
	}()
	// The first enqueue blocks on w.mu; give the goroutine a moment to
	// line up, then release the queue.
	time.Sleep(10 * time.Millisecond)
	w.mu.Unlock()
	<-done

	want := []writeStatus{writeDone, writeAmbiguous, writeFailed}
	for i, pf := range pfs {
		select {
		case <-pf.done:
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d outcome never resolved", i+1)
		}
		if pf.status != want[i] {
			t.Errorf("frame %d: status %d, want %d", i+1, pf.status, want[i])
		}
	}
	// The writer is sticky-broken: later frames fail fast as unwritten.
	pf := w.enqueue(mkframe(4), true)
	<-pf.done
	if pf.status != writeFailed {
		t.Errorf("post-error enqueue: status %d, want writeFailed", pf.status)
	}
}

// TestTCPRedialDoesNotReshipWrittenFrames is the transport-level
// at-most-once guarantee behind redial-once: a Send whose frame died
// mid-write must error out instead of re-shipping on a fresh
// connection, while a Send whose frame never touched the wire retries
// transparently.
func TestTCPRedialDoesNotReshipWrittenFrames(t *testing.T) {
	var mu sync.Mutex
	got := 0
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Handle("rpc", func(ctx context.Context, p Packet) ([]byte, error) {
		mu.Lock()
		got++
		mu.Unlock()
		return []byte("ok"), nil
	})

	cli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	// Prime the pooled connection, then break it under the client's feet
	// so the next write fails without having sent a byte.
	if _, err := cli.Call(ctx, srv.Addr(), "rpc", []byte("prime")); err != nil {
		t.Fatal(err)
	}
	cli.mu.Lock()
	c := cli.conns[srv.Addr()]
	cli.mu.Unlock()
	c.conn.Close()
	// The closed connection surfaces as either an immediate write error
	// (frame unwritten -> transparent redial) or a read-loop failure
	// marking the conn dead (register fails -> transparent redial). Both
	// must end with the frame delivered exactly once.
	if _, err := cli.Call(ctx, srv.Addr(), "rpc", []byte("retry")); err != nil {
		t.Fatalf("redial-once call: %v", err)
	}
	mu.Lock()
	calls := got
	mu.Unlock()
	if calls != 2 {
		t.Fatalf("server saw %d calls, want 2 (prime + exactly-once retry)", calls)
	}

	// Mid-write ambiguity must NOT retry: ship an oversized-but-legal
	// frame into a pipe that cuts mid-frame and check the error names
	// the ambiguity. Driven at the writer layer (the endpoint cannot
	// inject byte-level faults), asserting the status Call/Send branch on.
	client, server := net.Pipe()
	defer server.Close()
	go io.Copy(io.Discard, server)
	w := newTCPWriter(&errAfterConn{Conn: client, limit: 10})
	pf := w.enqueue(appendTCPFrame(nil, &tcpFrame{ID: 9, Kind: "rpc", Payload: bytes.Repeat([]byte{9}, 256)}), true)
	<-pf.done
	if pf.status != writeAmbiguous {
		t.Fatalf("mid-frame cut: status %d, want writeAmbiguous", pf.status)
	}
}

// TestTCPNonMagicStreamClosed dials by hand and opens with a gob frame
// instead of the magic byte: the server closes the stream without
// answering and counts it under transport_dropped_total{reason="tcp-decode"}.
func TestTCPNonMagicStreamClosed(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Handle("rpc", func(ctx context.Context, p Packet) ([]byte, error) {
		return append([]byte("echo:"), p.Payload...), nil
	})
	before := DropCount(DropTCPDecode)

	conn, err := net.Dial("tcp", string(srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := gob.NewEncoder(conn).Encode(&tcpFrame{ID: 1, From: "v1", Kind: "rpc", Payload: []byte("legacy")}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("server answered a non-magic stream with %d byte(s)", n)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server left a non-magic stream open")
	}
	if got := DropCount(DropTCPDecode); got != before+1 {
		t.Fatalf("tcp-decode drops = %d, want %d", got, before+1)
	}
}

// TestTCPCoalescingMetrics checks that concurrent calls on one
// connection advance the write-syscall counter by less than the frame
// count would under one-write-per-frame, and that the frames-per-write
// histogram sees the batches.
func TestTCPCoalescingMetrics(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	block := make(chan struct{})
	srv.Handle("rpc", func(ctx context.Context, p Packet) ([]byte, error) {
		<-block
		return []byte("ok"), nil
	})
	cli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const calls = 32
	before := mWriteSyscalls.Value()
	framesBefore := mFramesPerWrite.Snapshot()
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cli.Call(context.Background(), srv.Addr(), "rpc", []byte("x")); err != nil {
				t.Error(err)
			}
		}()
	}
	// Release the handlers once all requests are in flight; their
	// replies then coalesce on the server's writer too.
	time.Sleep(50 * time.Millisecond)
	close(block)
	wg.Wait()

	// The flusher records its write only after WriteTo returns, so a
	// caller can hold the reply before the last observation lands; poll
	// until the counters settle instead of snapshotting once.
	snap := mFramesPerWrite.Snapshot().Delta(framesBefore)
	writes := mWriteSyscalls.Value() - before
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if writes > 0 && snap.Count == writes && snap.SumNs >= 2*calls {
			break
		}
		time.Sleep(5 * time.Millisecond)
		snap = mFramesPerWrite.Snapshot().Delta(framesBefore)
		writes = mWriteSyscalls.Value() - before
	}
	if writes == 0 || snap.Count == 0 {
		t.Fatalf("coalescing metrics did not move: writes=%d batches=%d", writes, snap.Count)
	}
	// One histogram observation per batched write, each batch carrying at
	// least one frame; the batch sizes (SumNs accumulates raw frame
	// counts) cover all 2*calls frames of the exchange across both
	// endpoints' writers. How hard the batches coalesce depends on
	// scheduling, so the test pins the invariants, not a batching factor.
	if snap.Count != writes {
		t.Errorf("%d batch observations for %d batched writes", snap.Count, writes)
	}
	if snap.SumNs < 2*calls {
		t.Errorf("batches carried %d frames, want >= %d", snap.SumNs, 2*calls)
	}
	if snap.SumNs < snap.Count {
		t.Errorf("batches carried %d frames over %d writes: impossible", snap.SumNs, snap.Count)
	}
}
