package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// MemNetwork is an in-memory simulated network. Delivery incurs a
// configurable latency (with jitter), one-way messages can be lost with a
// configurable probability, and links between addresses can be
// partitioned — symmetrically or per direction — or degraded with
// per-direction gray-failure profiles (LinkFault). All randomness is
// seeded, so experiments are reproducible.
//
// Locking is split for concurrent request traffic: the routing state
// (endpoints, partitions, link faults) sits behind a read-mostly
// RWMutex, and the random source — only touched when jitter, loss or
// corruption are configured — has its own lock so that delivery of
// independent messages never serializes on it. The base
// latency/jitter/loss knobs are fixed at construction; partitions and
// link faults change at runtime.
type MemNetwork struct {
	mu        sync.RWMutex
	endpoints map[Address]*memEndpoint
	// partitions and links are keyed by direction: [from, to]. A
	// symmetric Partition writes both directions.
	partitions map[[2]Address]bool
	links      map[[2]Address]LinkFault

	latency  time.Duration
	jitter   time.Duration
	lossRate float64

	rngMu sync.Mutex
	rng   *rand.Rand
}

// LinkFault is a per-direction gray-failure profile: the link stays up —
// routing succeeds — but deliveries over it are slow, lossy or corrupt.
// The zero value is a clean link.
type LinkFault struct {
	// ExtraLatency is added to the network's base latency on this link.
	ExtraLatency time.Duration
	// Jitter adds up to this much extra random latency per delivery.
	Jitter time.Duration
	// Loss is the drop probability for one-way sends over this link,
	// added to the network's base loss rate.
	Loss float64
	// DropCalls is the probability that a call leg over this link
	// vanishes. On the request leg the handler never runs; on the reply
	// leg (the reverse-direction link) the handler HAS executed and only
	// the caller is left in the dark — the executed-but-unacknowledged
	// shape that retry deduplication exists for.
	DropCalls float64
	// Corrupt is the probability that a delivered payload has a few
	// random bits flipped before the handler sees it.
	Corrupt float64
}

// MemOption configures a MemNetwork.
type MemOption func(*MemNetwork)

// WithLatency sets the base one-way delivery latency.
func WithLatency(d time.Duration) MemOption {
	return func(n *MemNetwork) { n.latency = d }
}

// WithJitter sets the maximum extra random latency per delivery.
func WithJitter(d time.Duration) MemOption {
	return func(n *MemNetwork) { n.jitter = d }
}

// WithLoss sets the loss probability (0..1) for one-way messages.
func WithLoss(p float64) MemOption {
	return func(n *MemNetwork) { n.lossRate = p }
}

// WithSeed seeds the network's random source.
func WithSeed(seed int64) MemOption {
	return func(n *MemNetwork) { n.rng = rand.New(rand.NewSource(seed)) }
}

// NewMemNetwork returns a simulated network.
func NewMemNetwork(opts ...MemOption) *MemNetwork {
	n := &MemNetwork{
		endpoints:  make(map[Address]*memEndpoint),
		rng:        rand.New(rand.NewSource(1)),
		partitions: make(map[[2]Address]bool),
		links:      make(map[[2]Address]LinkFault),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Endpoint attaches a new endpoint at addr. An address whose previous
// endpoint was closed may be reused — that is how a restarted host
// reclaims its address.
func (n *MemNetwork) Endpoint(addr Address) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if prev, ok := n.endpoints[addr]; ok && !prev.isClosed() {
		return nil, fmt.Errorf("transport: address %q already attached", addr)
	}
	ep := &memEndpoint{net: n, addr: addr, handlers: make(map[string]Handler)}
	n.endpoints[addr] = ep
	return ep, nil
}

// Partition blocks traffic between a and b in both directions.
func (n *MemNetwork) Partition(a, b Address) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitions[[2]Address{a, b}] = true
	n.partitions[[2]Address{b, a}] = true
}

// PartitionOneWay blocks traffic from from to to only; to can still
// reach from — the asymmetric-link shape of a gray network failure,
// where e.g. a peer's heartbeats arrive while deliveries to it vanish.
func (n *MemNetwork) PartitionOneWay(from, to Address) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitions[[2]Address{from, to}] = true
}

// Heal restores traffic between a and b in both directions.
func (n *MemNetwork) Heal(a, b Address) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitions, [2]Address{a, b})
	delete(n.partitions, [2]Address{b, a})
}

// HealOneWay restores traffic from from to to only.
func (n *MemNetwork) HealOneWay(from, to Address) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitions, [2]Address{from, to})
}

// HealAll removes every partition.
func (n *MemNetwork) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitions = make(map[[2]Address]bool)
}

// Partitioned reports whether from->to traffic is currently blocked.
func (n *MemNetwork) Partitioned(from, to Address) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.partitions[[2]Address{from, to}]
}

// SetLinkFault installs (or replaces) the gray-failure profile on the
// directional link from->to.
func (n *MemNetwork) SetLinkFault(from, to Address, f LinkFault) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[[2]Address{from, to}] = f
}

// ClearLinkFault removes the fault profile on the directional link
// from->to.
func (n *MemNetwork) ClearLinkFault(from, to Address) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.links, [2]Address{from, to})
}

// ClearLinkFaults removes every link-fault profile.
func (n *MemNetwork) ClearLinkFaults() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links = make(map[[2]Address]LinkFault)
}

// Stats returns the traffic counters of addr.
func (n *MemNetwork) Stats(addr Address) Stats {
	n.mu.RLock()
	ep, ok := n.endpoints[addr]
	n.mu.RUnlock()
	if !ok {
		return Stats{}
	}
	return ep.statsSnapshot()
}

// routeInfo is a resolved directional hop: where the packet goes, how
// long it takes, and whether the link's faults drop or corrupt it.
type routeInfo struct {
	target  *memEndpoint
	delay   time.Duration
	dropped bool
	corrupt bool
}

// route resolves delivery of a packet over the directional link
// from->to: the target endpoint or an error, plus the delay to impose
// and whether the link's loss/corruption faults hit this delivery.
func (n *MemNetwork) route(from, to Address, oneWay bool) (routeInfo, error) {
	n.mu.RLock()
	partitioned := n.partitions[[2]Address{from, to}]
	lf, gray := n.links[[2]Address{from, to}]
	target, ok := n.endpoints[to]
	n.mu.RUnlock()
	if partitioned {
		CountDrop(DropPartition)
		return routeInfo{}, fmt.Errorf("%w: %s -> %s (partitioned)", ErrUnreachable, from, to)
	}
	if !ok || target.isClosed() {
		// Nothing is attached at the address: like a TCP dial to a port
		// nobody listens on, the sender learns it at once.
		CountDrop(DropUnreachable)
		return routeInfo{}, fmt.Errorf("%w: %w: %s", ErrUnreachable, ErrRefused, to)
	}
	ri := routeInfo{target: target, delay: n.latency}
	jitter := n.jitter
	var loss float64
	if oneWay {
		loss = n.lossRate
	}
	if gray {
		ri.delay += lf.ExtraLatency
		jitter += lf.Jitter
		if oneWay {
			loss += lf.Loss
		} else {
			loss += lf.DropCalls
		}
	}
	if jitter > 0 || loss > 0 || (gray && lf.Corrupt > 0) {
		n.rngMu.Lock()
		if jitter > 0 {
			ri.delay += time.Duration(n.rng.Int63n(int64(jitter)))
		}
		ri.dropped = loss > 0 && n.rng.Float64() < loss
		ri.corrupt = gray && lf.Corrupt > 0 && n.rng.Float64() < lf.Corrupt
		n.rngMu.Unlock()
	}
	return ri, nil
}

// replyRoute resolves the reverse leg of a call — the delay to impose on
// the reply and whether it is lost to a partition or link fault cutting
// the from->to direction. By the time it is consulted the handler has
// already executed: a lost reply leaves the caller uncertain while the
// effect stands, which is exactly the ambiguity at-most-once retry
// machinery must absorb.
func (n *MemNetwork) replyRoute(from, to Address) (time.Duration, bool) {
	n.mu.RLock()
	partitioned := n.partitions[[2]Address{from, to}]
	lf, gray := n.links[[2]Address{from, to}]
	n.mu.RUnlock()
	if partitioned {
		CountDrop(DropPartition)
		return 0, true
	}
	delay := n.latency
	jitter := n.jitter
	var loss float64
	if gray {
		delay += lf.ExtraLatency
		jitter += lf.Jitter
		loss = lf.DropCalls
	}
	if jitter > 0 || loss > 0 {
		n.rngMu.Lock()
		if jitter > 0 {
			delay += time.Duration(n.rng.Int63n(int64(jitter)))
		}
		if loss > 0 && n.rng.Float64() < loss {
			n.rngMu.Unlock()
			CountDrop(DropCallLoss)
			return 0, true
		}
		n.rngMu.Unlock()
	}
	return delay, false
}

// corruptPayload flips a few seeded-random bits of b in place and
// accounts for the corruption. Chaos campaigns replay identically under
// the same network seed.
func (n *MemNetwork) corruptPayload(b []byte) {
	if len(b) == 0 {
		return
	}
	n.rngMu.Lock()
	flips := 1 + n.rng.Intn(3)
	for i := 0; i < flips; i++ {
		b[n.rng.Intn(len(b))] ^= 1 << uint(n.rng.Intn(8))
	}
	n.rngMu.Unlock()
	mCorrupted.Inc()
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// epStats holds an endpoint's traffic counters as atomics so accounting
// on the message hot path never takes a lock.
type epStats struct {
	messagesSent     atomic.Uint64
	messagesReceived atomic.Uint64
	bytesSent        atomic.Uint64
	bytesReceived    atomic.Uint64
}

type memEndpoint struct {
	net  *MemNetwork
	addr Address

	mu       sync.RWMutex
	handlers map[string]Handler

	closed atomic.Bool
	stats  epStats
}

var _ Endpoint = (*memEndpoint)(nil)

func (e *memEndpoint) Addr() Address { return e.addr }

func (e *memEndpoint) Handle(kind string, h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if h == nil {
		delete(e.handlers, kind)
		return
	}
	e.handlers[kind] = h
}

func (e *memEndpoint) handler(kind string) (Handler, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	e.mu.RLock()
	h, ok := e.handlers[kind]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q at %s", ErrNoHandler, kind, e.addr)
	}
	return h, nil
}

func (e *memEndpoint) isClosed() bool { return e.closed.Load() }

func (e *memEndpoint) accountSent(bytes int) {
	e.stats.messagesSent.Add(1)
	e.stats.bytesSent.Add(uint64(bytes))
	mMessagesSent.Inc()
	mBytesSent.Add(uint64(bytes))
}

func (e *memEndpoint) accountReceived(bytes int) {
	e.stats.messagesReceived.Add(1)
	e.stats.bytesReceived.Add(uint64(bytes))
	mMessagesReceived.Inc()
	mBytesReceived.Add(uint64(bytes))
}

func (e *memEndpoint) statsSnapshot() Stats {
	return Stats{
		MessagesSent:     e.stats.messagesSent.Load(),
		MessagesReceived: e.stats.messagesReceived.Load(),
		BytesSent:        e.stats.bytesSent.Load(),
		BytesReceived:    e.stats.bytesReceived.Load(),
	}
}

func (e *memEndpoint) Send(ctx context.Context, to Address, kind string, payload []byte) error {
	if e.isClosed() {
		CountDrop(DropClosed)
		return ErrClosed
	}
	if len(payload) > MaxEnvelope {
		CountDrop(DropOversized)
		return fmt.Errorf("%w: %d bytes to %s", ErrTooLarge, len(payload), to)
	}
	ri, err := e.net.route(e.addr, to, true)
	if err != nil {
		return err
	}
	e.accountSent(len(payload))
	if ri.dropped {
		CountDrop(DropLoss)
		return nil // fire-and-forget loss is silent, like UDP
	}
	// The delivery is asynchronous, so the payload is copied once to
	// decouple it from any buffer the caller reuses.
	pkt := Packet{From: e.addr, To: to, Kind: kind, Payload: append([]byte(nil), payload...)}
	if ri.corrupt {
		e.net.corruptPayload(pkt.Payload)
	}
	target, delay := ri.target, ri.delay
	go func() {
		if err := sleepCtx(context.Background(), delay); err != nil {
			return
		}
		h, err := target.handler(kind)
		if err != nil {
			if errors.Is(err, ErrClosed) {
				CountDrop(DropClosed)
			} else {
				CountDrop(DropNoHandler)
			}
			return
		}
		target.accountReceived(len(pkt.Payload))
		_, _ = h(context.Background(), pkt)
	}()
	return nil
}

func (e *memEndpoint) Call(ctx context.Context, to Address, kind string, payload []byte) ([]byte, error) {
	if e.isClosed() {
		CountDrop(DropClosed)
		return nil, ErrClosed
	}
	if len(payload) > MaxEnvelope {
		CountDrop(DropOversized)
		return nil, fmt.Errorf("%w: %d bytes to %s", ErrTooLarge, len(payload), to)
	}
	ri, err := e.net.route(e.addr, to, false)
	if err != nil {
		return nil, err
	}
	e.accountSent(len(payload))
	if ri.dropped {
		// The request leg vanished before dispatch: the handler never
		// runs, and the caller sees the same unreachability a timeout
		// would surface — retry-safe.
		CountDrop(DropCallLoss)
		return nil, fmt.Errorf("%w: %s -> %s (call lost)", ErrUnreachable, e.addr, to)
	}
	target, delay := ri.target, ri.delay
	if err := sleepCtx(ctx, delay); err != nil {
		return nil, err
	}
	h, err := target.handler(kind)
	if err != nil {
		if errors.Is(err, ErrClosed) {
			CountDrop(DropClosed)
		} else {
			CountDrop(DropNoHandler)
		}
		return nil, err
	}
	if target.isClosed() {
		CountDrop(DropUnreachable)
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, to)
	}
	// The caller blocks for the reply, so the payload travels without a
	// defensive copy — unless corruption must mutate it, which may not
	// touch the caller's buffer.
	body := payload
	if ri.corrupt {
		body = append([]byte(nil), payload...)
		e.net.corruptPayload(body)
	}
	pkt := Packet{From: e.addr, To: to, Kind: kind, Payload: body}
	target.accountReceived(len(pkt.Payload))

	done := getCallSlot()
	dispatchCall(callTask{ctx: ctx, h: h, pkt: pkt, done: done})
	select {
	case <-ctx.Done():
		// The abandoned handler still owns the slot; it is garbage, not
		// pooled.
		return nil, ctx.Err()
	case r := <-done:
		putCallSlot(done)
		if r.err != nil {
			return nil, fmt.Errorf("%w: %v", ErrRemote, r.err)
		}
		// The remote produced and sent the reply at this point: account
		// for it before modelling its transit delay, so a caller that
		// gives up mid-flight still observes the received traffic. The
		// reply travels the reverse link, which carries its own
		// partition and fault state — losing it here models
		// executed-but-unacknowledged calls.
		e.accountReceived(len(r.reply))
		replyDelay, lost := e.net.replyRoute(to, e.addr)
		if lost {
			return nil, fmt.Errorf("%w: %s -> %s (reply lost)", ErrUnreachable, to, e.addr)
		}
		if err := sleepCtx(ctx, replyDelay); err != nil {
			return nil, err
		}
		return r.reply, nil
	}
}

// callResult carries a handler's reply to the blocked caller.
type callResult struct {
	reply []byte
	err   error
}

// callSlots recycles the per-call result channels of the simulated
// network; like the encode-buffer pool it is a plain channel so neither
// Get nor Put boxes anything. A call abandoned on context expiry leaks
// its slot to the garbage collector rather than risking a stale send
// into a reused channel.
var callSlots = make(chan chan callResult, 256)

func getCallSlot() chan callResult {
	select {
	case c := <-callSlots:
		return c
	default:
		return make(chan callResult, 1)
	}
}

func putCallSlot(c chan callResult) {
	select {
	case callSlots <- c:
	default:
	}
}

// callTask is one handler invocation dispatched to a worker.
type callTask struct {
	ctx  context.Context
	h    Handler
	pkt  Packet
	done chan callResult
}

// callWorkers parks idle worker goroutines. Handler call chains run deep
// (a replica's component pipeline), so a goroutine spawned per call pays
// runtime.newstack on every request; a parked worker keeps its grown
// stack warm across calls. Dispatch never blocks — when no worker is
// parked a new one is spawned — so a handler that issues nested Calls
// cannot deadlock the pool.
var callWorkers = make(chan chan callTask, 64)

func dispatchCall(t callTask) {
	select {
	case w := <-callWorkers:
		w <- t
	default:
		go callWorker(t)
	}
}

// callWorker runs its first task, then parks for more; it exits when the
// parking lot is full.
func callWorker(t callTask) {
	ch := make(chan callTask)
	for {
		reply, err := t.h(t.ctx, t.pkt)
		t.done <- callResult{reply: reply, err: err}
		t = callTask{} // drop references while parked
		select {
		case callWorkers <- ch:
			t = <-ch
		default:
			return
		}
	}
}

func (e *memEndpoint) Close() error {
	e.closed.Store(true)
	return nil
}
