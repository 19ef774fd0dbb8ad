package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// tcpDialTimeout bounds the dial of a pooled connection. It is not tied
// to any single caller's context because the connection is shared;
// callers stop waiting as soon as their own context expires.
const tcpDialTimeout = 10 * time.Second

// tcpReadBuffer sizes the buffered reader in front of each connection.
const tcpReadBuffer = 64 << 10

// tcpFrame is one message on a TCP connection: frames multiplexed over
// a persistent connection, binary length-prefixed on the wire (see
// tcpwire.go). ID correlates a reply with its request, so many calls
// can be in flight on one connection (pipelining) instead of one dial
// and one round-trip at a time.
type tcpFrame struct {
	ID      uint64
	From    string
	Kind    string
	Payload []byte
	OneWay  bool
	// Reply fields
	Err string
}

// TCPEndpoint implements Endpoint over real TCP connections. Addresses
// are host:port strings. Outbound traffic to each destination shares one
// pipelined connection whose frames coalesce into batched writes;
// inbound frames are served concurrently, replies multiplexed back by
// frame ID. The simulated MemNetwork remains the default for
// experiments, this transport backs cmd/resilientd deployments.
type TCPEndpoint struct {
	addr     Address
	listener net.Listener

	mu       sync.Mutex
	handlers map[string]Handler
	conns    map[Address]*tcpConn
	inbound  map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

var _ Endpoint = (*TCPEndpoint)(nil)

// tcpConn is one pooled outbound connection. Requests enter the
// connection's coalescing writer; a reader goroutine dispatches replies
// to the waiting callers by frame ID. When the connection dies, every
// pending call fails at once (channel close) and the conn leaves the
// pool.
type tcpConn struct {
	dialed  chan struct{} // closed once dialing finished
	dialErr error         // valid after dialed
	conn    net.Conn      // valid after dialed when dialErr == nil
	w       *tcpWriter    // valid with conn

	mu      sync.Mutex
	pending map[uint64]chan tcpFrame // in-flight calls by frame ID
	nextID  uint64
	dead    bool
}

// register allocates a frame ID and its reply channel. It fails on a
// connection already known dead, so the caller can redial instead of
// writing into a corpse.
func (c *tcpConn) register() (uint64, chan tcpFrame, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return 0, nil, false
	}
	c.nextID++
	ch := make(chan tcpFrame, 1)
	c.pending[c.nextID] = ch
	return c.nextID, ch, true
}

func (c *tcpConn) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// fail marks the connection dead and releases every pending caller.
// Only the reader goroutine calls it, so closing the reply channels
// cannot race with the reader's own sends.
func (c *tcpConn) fail() {
	c.mu.Lock()
	c.dead = true
	pending := c.pending
	c.pending = make(map[uint64]chan tcpFrame)
	c.mu.Unlock()
	c.conn.Close()
	c.w.fail(errors.New("transport: connection lost"))
	for _, ch := range pending {
		close(ch)
	}
}

// ListenTCP starts an endpoint listening on addr ("host:port"; ":0" picks
// a free port — read the effective address back with Addr).
func ListenTCP(addr string) (*TCPEndpoint, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ep := &TCPEndpoint{
		addr:     Address(l.Addr().String()),
		listener: l,
		handlers: make(map[string]Handler),
		conns:    make(map[Address]*tcpConn),
		inbound:  make(map[net.Conn]struct{}),
	}
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		// Inbound connections are tracked so Close can tear them down;
		// their serve loops otherwise block reading until the remote
		// side hangs up.
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			continue
		}
		e.inbound[conn] = struct{}{}
		e.mu.Unlock()
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.serve(conn)
			e.mu.Lock()
			delete(e.inbound, conn)
			e.mu.Unlock()
		}()
	}
}

// serve checks that the stream opens with the magic byte and serves it;
// a stream that opens with anything else is closed.
func (e *TCPEndpoint) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, tcpReadBuffer)
	first, err := br.ReadByte()
	if err != nil {
		return // closed before the first byte
	}
	if first != tcpMagic {
		CountDrop(DropTCPDecode)
		return
	}
	e.serveBinary(conn, br)
}

// serveBinary handles one inbound connection: length-prefixed frames
// in, coalesced reply writes out.
func (e *TCPEndpoint) serveBinary(conn net.Conn, br *bufio.Reader) {
	if _, err := conn.Write([]byte{tcpMagic}); err != nil {
		return
	}
	w := newTCPWriter(conn)
	var inflight sync.WaitGroup
	defer inflight.Wait()
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				CountDrop(DropTCPDecode)
			}
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 || int64(n) > MaxEnvelope+tcpFrameOverhead {
			CountDrop(DropTCPDecode)
			return
		}
		body := frameBuf(int(n))
		if _, err := io.ReadFull(br, body); err != nil {
			PutBuf(body)
			CountDrop(DropTCPDecode)
			return
		}
		var frame tcpFrame
		if err := decodeTCPFrame(body, &frame); err != nil {
			PutBuf(body)
			CountDrop(DropTCPDecode)
			return
		}
		e.mu.Lock()
		h, ok := e.handlers[frame.Kind]
		closed := e.closed
		e.mu.Unlock()
		if closed {
			PutBuf(body)
			CountDrop(DropClosed)
			return
		}
		mMessagesReceived.Inc()
		mBytesReceived.Add(uint64(len(frame.Payload)))
		// Each frame is served in its own goroutine so a slow handler
		// does not stall the frames pipelined behind it; replies
		// coalesce on the connection's writer. The frame payload
		// aliases body, which is recycled once the reply is encoded.
		inflight.Add(1)
		go func(frame tcpFrame, body []byte, h Handler, ok bool) {
			defer inflight.Done()
			pkt := Packet{From: Address(frame.From), To: e.addr, Kind: frame.Kind, Payload: frame.Payload}
			reply := tcpFrame{ID: frame.ID}
			if !ok {
				CountDrop(DropNoHandler)
				reply.Err = fmt.Sprintf("no handler for %q", frame.Kind)
			} else {
				out, err := h(context.Background(), pkt)
				if err != nil {
					reply.Err = err.Error()
				} else {
					reply.Payload = out
				}
			}
			if frame.OneWay {
				PutBuf(body)
				return
			}
			// Encode before recycling body: the handler's reply may alias
			// the request payload.
			rb := appendTCPFrame(GetBuf(), &reply)
			PutBuf(body)
			w.enqueue(rb, false)
		}(frame, body, h, ok)
	}
}

// Addr returns the endpoint's effective listen address.
func (e *TCPEndpoint) Addr() Address { return e.addr }

// Handle registers the handler for a message kind.
func (e *TCPEndpoint) Handle(kind string, h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if h == nil {
		delete(e.handlers, kind)
		return
	}
	e.handlers[kind] = h
}

// getConn returns the pooled connection to a destination, dialing one if
// none exists. Dialing happens once per destination regardless of how
// many callers arrive concurrently; each caller waits under its own
// context.
func (e *TCPEndpoint) getConn(ctx context.Context, to Address) (*tcpConn, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	c, ok := e.conns[to]
	if !ok {
		c = &tcpConn{dialed: make(chan struct{}), pending: make(map[uint64]chan tcpFrame)}
		e.conns[to] = c
		e.wg.Add(1)
		go e.dialAndRead(c, to)
	}
	e.mu.Unlock()
	select {
	case <-c.dialed:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if c.dialErr != nil {
		return nil, c.dialErr
	}
	return c, nil
}

// dropConn removes a connection from the pool if it is still the pooled
// instance (a replacement may already have taken its slot).
func (e *TCPEndpoint) dropConn(to Address, c *tcpConn) {
	e.mu.Lock()
	if e.conns[to] == c {
		delete(e.conns, to)
	}
	e.mu.Unlock()
}

func (e *TCPEndpoint) dialAndRead(c *tcpConn, to Address) {
	defer e.wg.Done()
	d := net.Dialer{Timeout: tcpDialTimeout}
	conn, err := d.Dial("tcp", string(to))
	if err != nil {
		c.dialErr = fmt.Errorf("%w: %s: %v", ErrUnreachable, to, err)
		e.dropConn(to, c)
		close(c.dialed)
		return
	}
	c.conn = conn
	c.w = newTCPWriter(conn)
	// Announce the binary stream before the first frame. A failure here
	// means the connection is already broken; the read loop below finds
	// that out immediately and fails the pending callers.
	conn.Write([]byte{tcpMagic})
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	close(c.dialed)
	if closed {
		// The endpoint closed while dialing; the read loop below exits
		// immediately on the closed connection.
		conn.Close()
	}
	e.readLoop(c, to)
}

// readLoop dispatches reply frames to their waiting callers by ID. The
// reply stream must open with the magic byte like the serve side's. On
// any decode error the connection is dead: it leaves the pool and every
// pending call fails.
func (e *TCPEndpoint) readLoop(c *tcpConn, to Address) {
	br := bufio.NewReaderSize(c.conn, tcpReadBuffer)
	first, err := br.ReadByte()
	if err != nil || first != tcpMagic {
		if err == nil {
			CountDrop(DropTCPDecode)
		}
		e.dropConn(to, c)
		c.fail()
		return
	}
	e.readLoopBinary(c, to, br)
}

func (e *TCPEndpoint) readLoopBinary(c *tcpConn, to Address, br *bufio.Reader) {
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			e.dropConn(to, c)
			c.fail()
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		bad := n == 0 || int64(n) > MaxEnvelope+tcpFrameOverhead
		var body []byte
		if !bad {
			body = frameBuf(int(n))
			if _, err := io.ReadFull(br, body); err != nil {
				PutBuf(body)
				bad = true
			}
		}
		var frame tcpFrame
		if !bad && decodeTCPFrame(body, &frame) != nil {
			PutBuf(body)
			bad = true
		}
		if bad {
			CountDrop(DropTCPDecode)
			e.dropConn(to, c)
			c.fail()
			return
		}
		c.mu.Lock()
		ch := c.pending[frame.ID]
		delete(c.pending, frame.ID)
		c.mu.Unlock()
		if ch == nil {
			PutBuf(body) // caller gave up (context expired)
			continue
		}
		// The frame payload aliases body; ownership moves to the caller,
		// which may recycle it with PutBuf when done.
		ch <- frame // buffered; one reply per ID
	}
}

// ship encodes frame into a pooled buffer, hands it to the connection's
// coalescing writer, and waits for the per-frame write outcome.
func (c *tcpConn) ship(ctx context.Context, frame *tcpFrame) (writeStatus, error) {
	pf := c.w.enqueue(appendTCPFrame(GetBuf(), frame), true)
	select {
	case <-pf.done:
		return pf.status, nil
	case <-ctx.Done():
		// The frame stays queued; whether it reaches the wire is now
		// unknowable, exactly like a frame written just before the
		// deadline. The caller's context owns the decision to stop.
		return writeAmbiguous, ctx.Err()
	}
}

// Send delivers a one-way message on the pooled connection.
func (e *TCPEndpoint) Send(ctx context.Context, to Address, kind string, payload []byte) error {
	if len(payload) > MaxEnvelope {
		CountDrop(DropOversized)
		return fmt.Errorf("%w: %d bytes to %s", ErrTooLarge, len(payload), to)
	}
	frame := tcpFrame{From: string(e.addr), Kind: kind, Payload: payload, OneWay: true}
	for attempt := 0; ; attempt++ {
		c, err := e.getConn(ctx, to)
		if err != nil {
			return err
		}
		status, err := c.ship(ctx, &frame)
		if err != nil {
			return err
		}
		switch status {
		case writeDone:
			mMessagesSent.Inc()
			mBytesSent.Add(uint64(len(payload)))
			return nil
		case writeFailed:
			// No byte of the frame was written (the usual cause is a peer
			// that closed the idle pooled connection, e.g. after a
			// restart): safe to resend once on a fresh connection.
			e.dropConn(to, c)
			c.conn.Close()
			if attempt == 0 {
				continue
			}
			return fmt.Errorf("transport: send to %s: connection lost", to)
		default:
			// The coalesced write died inside this frame: part of it is
			// on the wire, so resending could deliver it twice. No retry.
			e.dropConn(to, c)
			c.conn.Close()
			return fmt.Errorf("transport: send to %s: connection lost mid-write", to)
		}
	}
}

// Call performs a request/reply round-trip, pipelined with any other
// calls in flight to the same destination — their frames coalesce into
// batched writes on the shared connection.
func (e *TCPEndpoint) Call(ctx context.Context, to Address, kind string, payload []byte) ([]byte, error) {
	if len(payload) > MaxEnvelope {
		CountDrop(DropOversized)
		return nil, fmt.Errorf("%w: %d bytes to %s", ErrTooLarge, len(payload), to)
	}
	frame := tcpFrame{From: string(e.addr), Kind: kind, Payload: payload}
	for attempt := 0; ; attempt++ {
		c, err := e.getConn(ctx, to)
		if err != nil {
			return nil, err
		}
		id, ch, ok := c.register()
		if !ok {
			// Known-dead pooled connection; redial once.
			if attempt == 0 {
				continue
			}
			return nil, fmt.Errorf("%w: %s: connection lost", ErrUnreachable, to)
		}
		frame.ID = id
		status, err := c.ship(ctx, &frame)
		if err != nil {
			c.unregister(id)
			return nil, err
		}
		switch status {
		case writeFailed:
			// The frame never touched the wire: safe to resend once on a
			// fresh connection.
			c.unregister(id)
			e.dropConn(to, c)
			c.conn.Close()
			if attempt == 0 {
				continue
			}
			return nil, fmt.Errorf("transport: send to %s: connection lost", to)
		case writeAmbiguous:
			// The coalesced write died inside this frame; the peer may
			// have received and served it. The handler may or may not
			// have run, so no retry: at-most-once stays with the upper
			// layers.
			c.unregister(id)
			e.dropConn(to, c)
			c.conn.Close()
			return nil, fmt.Errorf("%w: %s: connection lost mid-write", ErrUnreachable, to)
		}
		mMessagesSent.Inc()
		mBytesSent.Add(uint64(len(payload)))
		select {
		case reply, alive := <-ch:
			if !alive {
				// The frame was written but the connection died before a
				// reply arrived. The handler may or may not have run, so
				// no retry: at-most-once stays with the upper layers.
				return nil, fmt.Errorf("%w: %s: connection lost", ErrUnreachable, to)
			}
			if reply.Err != "" {
				return nil, fmt.Errorf("%w: %s", ErrRemote, reply.Err)
			}
			mMessagesReceived.Inc()
			mBytesReceived.Add(uint64(len(reply.Payload)))
			return reply.Payload, nil
		case <-ctx.Done():
			c.unregister(id)
			return nil, ctx.Err()
		}
	}
}

// Close stops the listener, tears down the pooled connections, and waits
// for in-flight handlers.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := e.conns
	e.conns = make(map[Address]*tcpConn)
	inbound := make([]net.Conn, 0, len(e.inbound))
	for c := range e.inbound {
		inbound = append(inbound, c)
	}
	e.mu.Unlock()
	err := e.listener.Close()
	for _, c := range inbound {
		c.Close()
	}
	for _, c := range conns {
		<-c.dialed // dialing is bounded by tcpDialTimeout
		if c.conn != nil {
			c.conn.Close()
		}
	}
	e.wg.Wait()
	return err
}
