package ftm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"resilientft/internal/component"
	"resilientft/internal/core"
	"resilientft/internal/rpc"
	"resilientft/internal/telemetry"
	"resilientft/internal/transport"
)

// TypeProtocol is the component type of the protocol component.
const TypeProtocol = "ftm.protocol"

// Control is the protocol's backdoor to the replica runtime for
// decisions that transcend one request: failover on peer loss and
// fail-silent shutdown on repeated assertion failures.
type Control interface {
	// OnPeerChange fires on failure-detector transitions.
	OnPeerChange(suspected bool)
	// OnAssertionPermanent fires when local assertion failures exceed the
	// permanent-fault threshold; the replica must fall silent.
	OnAssertionPermanent()
}

// protocolContent is the stable heart of every FTM composite: the
// factorized FaultToleranceProtocol (client communication, at-most-once
// semantics, forwarding to the processing step) and DuplexProtocol
// (inter-replica dispatch, roles) concerns of the two design loops
// (Figure 3). Differential transitions never replace it.
type protocolContent struct {
	brickRefs

	mu             sync.Mutex
	role           core.Role
	masterSince    time.Time
	system         string
	control        Control
	assertFailures int
	assertLimit    int

	// inflight deduplicates concurrent deliveries of one request
	// identity. The reply log only filters duplicates of *completed*
	// executions; a retransmission racing the original (a client timeout
	// retry, or a redelivery while the original waits on its commit wave)
	// would pass the lookup and execute a second time without it.
	inflightMu sync.Mutex
	inflight   map[inflightKey]chan struct{}
}

// inflightKey identifies one client request across delivery attempts.
type inflightKey struct {
	clientID string
	seq      uint64
}

func newProtocolContent(system string) *protocolContent {
	return &protocolContent{
		role: core.RoleSlave, system: system, assertLimit: 3,
		inflight: make(map[inflightKey]chan struct{}),
	}
}

var (
	_ component.Content          = (*protocolContent)(nil)
	_ component.RefReceiver      = (*protocolContent)(nil)
	_ component.PropertyReceiver = (*protocolContent)(nil)
)

// SetProperty accepts role changes ("role"), the control backdoor
// ("control") and the permanent-fault threshold ("assertLimit").
func (p *protocolContent) SetProperty(name string, value any) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch name {
	case "role":
		var role core.Role
		switch v := value.(type) {
		case string:
			role = core.Role(v)
		case core.Role:
			role = v
		default:
			return fmt.Errorf("ftm: role property is %T", value)
		}
		if role == core.RoleMaster && p.role != core.RoleMaster {
			p.masterSince = time.Now()
		}
		p.role = role
	case "control":
		ctrl, ok := value.(Control)
		if !ok && value != nil {
			return fmt.Errorf("ftm: control property is %T", value)
		}
		p.control = ctrl
	case "assertLimit":
		limit, ok := value.(int)
		if !ok {
			return fmt.Errorf("ftm: assertLimit property is %T", value)
		}
		p.assertLimit = limit
	}
	return nil
}

// Role returns the current replica role.
func (p *protocolContent) Role() core.Role {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.role
}

func (p *protocolContent) Invoke(ctx context.Context, service string, msg component.Message) (component.Message, error) {
	switch service {
	case SvcRequest:
		return p.handleRequest(ctx, msg)
	case SvcReplica:
		return p.handleReplica(ctx, msg)
	case SvcControl:
		return p.handleControl(ctx, msg)
	default:
		return component.Message{}, fmt.Errorf("%w: service %q on protocol", component.ErrNotFound, service)
	}
}

// --- Client requests ---------------------------------------------------

func (p *protocolContent) handleRequest(ctx context.Context, msg component.Message) (component.Message, error) {
	switch pl := msg.Payload.(type) {
	case *reqCarrier:
		if p.Role() != core.RoleMaster {
			pl.Resp = rpc.Response{ClientID: pl.Req.ClientID, Seq: pl.Req.Seq, Status: rpc.StatusNotMaster}
		} else {
			pl.Resp = p.execute(ctx, pl.Req)
		}
		return component.Message{Op: "reply", Payload: pl}, nil
	case rpc.Request:
		// Compatibility arm for direct invocations that box a Request.
		if p.Role() != core.RoleMaster {
			return component.NewMessage("reply", rpc.Response{
				ClientID: pl.ClientID, Seq: pl.Seq, Status: rpc.StatusNotMaster,
			}), nil
		}
		return component.NewMessage("reply", p.execute(ctx, pl)), nil
	default:
		return component.Message{}, fmt.Errorf("ftm: request payload is %T", msg.Payload)
	}
}

// execute runs one request through at-most-once filtering and the
// Before-Proceed-After pipeline.
func (p *protocolContent) execute(ctx context.Context, req rpc.Request) rpc.Response {
	spans := telemetry.DefaultSpans()
	sp := spans.Start(req.Trace, "ftm.execute")
	if sp != nil {
		// Everything downstream — stage spans, wave ships, peer sends,
		// the forwarded request on the follower — nests under execute.
		sp.SetAttr("op", req.Op)
		sp.SetAttr("req", req.ID())
		req.Trace = sp.Context()
		defer sp.End()
	}
	log := logClient{svc: p.ref("log")}
	key := inflightKey{clientID: req.ClientID, seq: req.Seq}
	var mine chan struct{}
	for {
		if prev, found, err := log.lookup(ctx, req.ClientID, req.Seq); err == nil && found {
			mReplayHits.Inc()
			sp.SetAttr("replayed", "true")
			// The logged reply may predate the last acknowledged replica
			// synchronization (its original After failed mid-ship, or its
			// commit wave is still in flight). Releasing it anyway would let
			// a failover lose a reply the client has seen, so the After brick
			// must first confirm coverage — for the synchronizing bricks that
			// means riding a commit wave.
			tReplay := time.Now()
			if _, ferr := p.afterSpecialPayload(ctx, OpFlush, prev, req.Trace); ferr != nil {
				return rpc.Response{ClientID: req.ClientID, Seq: req.Seq,
					Status: rpc.StatusUnavailable, Err: ferr.Error()}
			}
			// The replay span marks a reply served from the log — after a
			// failover it is what links the redelivery to the original
			// execution's trace (same deterministic trace ID).
			if req.Trace.Valid() {
				spans.Add(req.Trace, "ftm.replay", tReplay, time.Since(tReplay), "req", req.ID())
			}
			return prev
		}
		p.inflightMu.Lock()
		cur, running := p.inflight[key]
		if !running {
			mine = make(chan struct{})
			p.inflight[key] = mine
			p.inflightMu.Unlock()
			break // this delivery executes
		}
		p.inflightMu.Unlock()
		// Another delivery of the same request is executing; wait for it
		// and re-check the log — its reply appears there on success, and on
		// failure this delivery claims the execution itself.
		select {
		case <-cur:
		case <-ctx.Done():
			return rpc.Response{ClientID: req.ClientID, Seq: req.Seq,
				Status: rpc.StatusUnavailable, Err: ctx.Err().Error()}
		}
	}
	defer func() {
		// Delete before close: a waiter that wakes re-checks the log and,
		// when this execution failed pre-record, claims a fresh slot.
		p.inflightMu.Lock()
		delete(p.inflight, key)
		p.inflightMu.Unlock()
		close(mine)
	}()

	mRequests.Inc()
	call := getCall()
	call.Req = req
	defer putCall(call)
	timed := stageTimed(req.Trace.Valid())
	err := func() error {
		var t0, t1, t2 time.Time
		if timed {
			t0 = time.Now()
		}
		if err := (brickClient{svc: p.ref("before")}).run(ctx, call); err != nil {
			return err
		}
		if timed {
			// One clock read ends Before and starts Proceed; the stage
			// spans reuse the same reads.
			t1 = time.Now()
			mStageBefore.Observe(t1.Sub(t0))
			spans.Add(req.Trace, "ftm.before", t0, t1.Sub(t0))
		}
		if err := (brickClient{svc: p.ref("proceed")}).run(ctx, call); err != nil {
			return err
		}
		if timed {
			t2 = time.Now()
			mStageProceed.Observe(t2.Sub(t1))
			spans.Add(req.Trace, "ftm.proceed", t1, t2.Sub(t1))
		}
		return nil
	}()
	switch {
	case err == nil:
	case errors.Is(err, ErrAssertionFailed):
		// A&Duplex: the local result violated the safety assertion;
		// re-execute on the other node (§3.2.1). The peer executed and
		// logged the request itself, so no After runs locally.
		resp, escErr := p.escalateAssertion(ctx, req)
		if escErr != nil {
			return rpc.Response{ClientID: req.ClientID, Seq: req.Seq,
				Status: rpc.StatusUnavailable, Err: escErr.Error()}
		}
		call.Result = resp
		if recErr := log.record(ctx, &call.Result); recErr != nil {
			return rpc.Response{ClientID: req.ClientID, Seq: req.Seq,
				Status: rpc.StatusUnavailable, Err: recErr.Error()}
		}
		return call.Result
	case errors.Is(err, ErrUnrecoverable):
		return rpc.Response{ClientID: req.ClientID, Seq: req.Seq,
			Status: rpc.StatusAppError, Err: err.Error()}
	default:
		return rpc.Response{ClientID: req.ClientID, Seq: req.Seq,
			Status: rpc.StatusUnavailable, Err: err.Error()}
	}

	// Record the reply before the After brick runs, so a checkpoint or
	// commit shipped by After carries this request's reply: a failover
	// right after this request must replay it, never re-execute it.
	if recErr := log.record(ctx, &call.Result); recErr != nil {
		return rpc.Response{ClientID: req.ClientID, Seq: req.Seq,
			Status: rpc.StatusUnavailable, Err: recErr.Error()}
	}
	var tAfter time.Time
	if timed {
		tAfter = time.Now()
	}
	if aErr := (brickClient{svc: p.ref("after")}).run(ctx, call); aErr != nil {
		// The operation executed and its reply is logged: a client
		// retrying this sequence number will be served the logged reply.
		return rpc.Response{ClientID: req.ClientID, Seq: req.Seq,
			Status: rpc.StatusUnavailable, Err: aErr.Error()}
	}
	if timed {
		dAfter := time.Since(tAfter)
		mStageAfter.Observe(dAfter)
		spans.Add(req.Trace, "ftm.after", tAfter, dAfter)
	}
	return call.Result
}

// stageTimed strides the stage-latency clock reads: at full rate the
// three boundary time.Now calls per request cost ~5% of a saturated
// core, so only every eighth request — plus every traced one, whose
// stage spans need real timestamps — measures the stages. The stage
// histograms keep a representative latency distribution; their count
// series undercounts by the stride, which nothing consumes.
const stageStride = 8

var stageTick atomic.Uint64

func stageTimed(traced bool) bool {
	return traced || stageTick.Add(1)%stageStride == 0
}

// escalateAssertion ships the request to the peer for clean re-execution
// and tracks local assertion failures toward the permanent-fault
// threshold.
func (p *protocolContent) escalateAssertion(ctx context.Context, req rpc.Request) (rpc.Response, error) {
	mAssertEscalations.Inc()
	p.mu.Lock()
	p.assertFailures++
	failures, limit, ctrl := p.assertFailures, p.assertLimit, p.control
	p.mu.Unlock()

	data, err := transport.Encode(req)
	if err != nil {
		return rpc.Response{}, err
	}
	replyData, err := (peerClient{svc: p.ref("peer")}).call(ctx, MsgAssertExec, data)
	if err != nil {
		// No healthy peer to re-execute on: the value fault cannot be
		// masked. Report unavailability; repeated failures below will
		// silence this replica.
		if failures >= limit && ctrl != nil {
			ctrl.OnAssertionPermanent()
		}
		return rpc.Response{}, fmt.Errorf("ftm: assertion escalation: %w", err)
	}
	var resp rpc.Response
	if err := transport.Decode(replyData, &resp); err != nil {
		return rpc.Response{}, err
	}
	if failures >= limit && ctrl != nil {
		// This host fails its assertion persistently: treat as a
		// permanent value fault and fall silent so the peer takes over.
		ctrl.OnAssertionPermanent()
	}
	return resp, nil
}

// --- Inter-replica messages ---------------------------------------------

// roleInfo is the MsgRoleQuery reply payload.
type roleInfo struct {
	Role            string
	MasterSinceNano int64
}

var (
	_ transport.FastMarshaler   = roleInfo{}
	_ transport.FastUnmarshaler = (*roleInfo)(nil)
)

// AppendFast implements transport.FastMarshaler.
func (ri roleInfo) AppendFast(buf []byte) []byte {
	buf = transport.AppendLenString(buf, ri.Role)
	return transport.AppendUvarint(buf, uint64(ri.MasterSinceNano))
}

// DecodeFast implements transport.FastUnmarshaler.
func (ri *roleInfo) DecodeFast(data []byte) error {
	var err error
	if ri.Role, data, err = transport.ReadLenString(data); err != nil {
		return fmt.Errorf("ftm: roleInfo role: %w", err)
	}
	var since uint64
	if since, _, err = transport.ReadUvarint(data); err != nil {
		return fmt.Errorf("ftm: roleInfo since: %w", err)
	}
	ri.MasterSinceNano = int64(since)
	return nil
}

// ackReply is the static acknowledgement body of inter-replica applies;
// shared so the hot apply path never allocates it. Never pool it: its
// backing array must stay immutable.
var ackReply = []byte("ack")

func (p *protocolContent) handleReplica(ctx context.Context, msg component.Message) (component.Message, error) {
	payload, _ := msg.Payload.([]byte)
	// The replica server's apply span context, set by the transport
	// handler when the inbound envelope carried a sampled trace; zero
	// (and therefore inert) otherwise.
	trace := telemetry.ParseSpanContext(msg.MetaValue(MetaTrace))

	// Slave-role messages are refused on a master: after a spurious
	// promotion (split brain), running the follower path on a master
	// would forward the request straight back, ping-ponging executions
	// between the two masters.
	switch msg.Op {
	case MsgPBRCheckpoint, MsgPBRDelta, MsgLFRExec, MsgLFRCommit, MsgLFRCommitBatch, MsgXPAExec:
		if p.Role() != core.RoleSlave {
			return component.Message{}, fmt.Errorf("%w: refusing %q", ErrNotSlave, msg.Op)
		}
	}

	switch msg.Op {
	case MsgRoleQuery:
		p.mu.Lock()
		info := roleInfo{Role: string(p.role), MasterSinceNano: p.masterSince.UnixNano()}
		p.mu.Unlock()
		data, err := transport.Encode(info)
		if err != nil {
			return component.Message{}, err
		}
		return component.NewMessage("ok", data), nil

	case MsgPBRCheckpoint:
		if _, err := p.afterSpecial(ctx, "checkpoint", payload, trace); err != nil {
			return component.Message{}, err
		}
		return component.NewMessage("ok", ackReply), nil

	case MsgPBRDelta:
		reply, err := p.afterSpecial(ctx, "delta", payload, trace)
		if err != nil {
			return component.Message{}, err
		}
		// The apply brick's reply bytes travel back to the primary: nil
		// on success ("ack"), "resync" on a base-version mismatch.
		if data, ok := reply.Payload.([]byte); ok && data != nil {
			return component.NewMessage("ok", data), nil
		}
		return component.NewMessage("ok", ackReply), nil

	case MsgPBRPull:
		data, _, _, err := buildCheckpoint(ctx,
			stateClient{svc: p.ref("state")},
			logClient{svc: p.ref("log")}, 0)
		if err != nil {
			return component.Message{}, err
		}
		return component.NewMessage("ok", data), nil

	case MsgLFRExec:
		var req rpc.Request
		if err := transport.Decode(payload, &req); err != nil {
			return component.Message{}, err
		}
		if trace.Valid() {
			// Parent the follower's execution on the apply span rather than
			// the leader-side context the forwarded request encoded.
			req.Trace = trace
		}
		resp := p.followerExecute(ctx, req)
		// The reply buffer's ownership transfers to the caller with the
		// reply bytes; the transport's consumer recycles it.
		data, err := transport.EncodePooled(resp)
		if err != nil {
			return component.Message{}, err
		}
		return component.NewMessage("ok", data), nil

	case MsgLFRCommit:
		var cm commitMsg
		if err := transport.Decode(payload, &cm); err != nil {
			return component.Message{}, err
		}
		if _, err := p.afterSpecialPayload(ctx, "commit", cm, trace); err != nil {
			return component.Message{}, err
		}
		return component.NewMessage("ok", ackReply), nil

	case MsgLFRCommitBatch:
		// The batch decodes into a pooled list (its capacity survives from
		// wave to wave) and crosses the brick boundary by pointer; the log
		// copies the entries, so the list comes back to the pool here.
		batch := getRespList()
		if err := transport.Decode(payload, batch); err != nil {
			putRespList(batch)
			return component.Message{}, err
		}
		_, err := p.afterSpecialPayload(ctx, "commit.batch", batch, trace)
		putRespList(batch)
		if err != nil {
			return component.Message{}, err
		}
		return component.NewMessage("ok", ackReply), nil

	case MsgXPAExec:
		var m xpaMsg
		if err := transport.Decode(payload, &m); err != nil {
			return component.Message{}, err
		}
		if _, err := p.afterSpecialPayload(ctx, "xpa.exec", m, trace); err != nil {
			return component.Message{}, err
		}
		return component.NewMessage("ok", ackReply), nil

	case MsgAssertExec:
		var req rpc.Request
		if err := transport.Decode(payload, &req); err != nil {
			return component.Message{}, err
		}
		resp, err := p.remoteAssertExecute(ctx, req)
		if err != nil {
			return component.Message{}, err
		}
		data, err := transport.Encode(resp)
		if err != nil {
			return component.Message{}, err
		}
		return component.NewMessage("ok", data), nil

	default:
		return component.Message{}, fmt.Errorf("%w: replica message %q", component.ErrUnknownOp, msg.Op)
	}
}

// afterSpecial drives the syncAfter brick with a non-pipeline operation
// carrying raw bytes. A valid trace rides the message metadata so the
// brick can link the apply (or the coverage wave it rides) to the
// originating request's trace.
func (p *protocolContent) afterSpecial(ctx context.Context, op string, payload []byte, trace telemetry.SpanContext) (component.Message, error) {
	after := p.ref("after")
	if after == nil {
		return component.Message{}, component.ErrRefUnwired
	}
	msg := component.Message{Op: op, Payload: payload}
	if trace.Valid() {
		msg = msg.WithMeta(MetaTrace, trace.String())
	}
	return after.Invoke(ctx, msg)
}

// afterSpecialPayload drives the syncAfter brick with a typed payload.
func (p *protocolContent) afterSpecialPayload(ctx context.Context, op string, payload any, trace telemetry.SpanContext) (component.Message, error) {
	after := p.ref("after")
	if after == nil {
		return component.Message{}, component.ErrRefUnwired
	}
	msg := component.Message{Op: op, Payload: payload}
	if trace.Valid() {
		msg = msg.WithMeta(MetaTrace, trace.String())
	}
	return after.Invoke(ctx, msg)
}

// followerExecute runs a forwarded request through the follower's own
// pipeline (Receive / Compute / Process-notification), with at-most-once
// filtering against the follower's reply log.
func (p *protocolContent) followerExecute(ctx context.Context, req rpc.Request) rpc.Response {
	spans := telemetry.DefaultSpans()
	sp := spans.Start(req.Trace, "ftm.execute")
	if sp != nil {
		sp.SetAttr("op", req.Op)
		sp.SetAttr("req", req.ID())
		sp.SetAttr("role", "follower")
		req.Trace = sp.Context()
		defer sp.End()
	}
	log := logClient{svc: p.ref("log")}
	if prev, found, err := log.lookup(ctx, req.ClientID, req.Seq); err == nil && found {
		mReplayHits.Inc()
		sp.SetAttr("replayed", "true")
		return prev
	}
	mRequests.Inc()
	call := getCall()
	call.Req = req
	defer putCall(call)
	timed := stageTimed(req.Trace.Valid())
	run := func() error {
		// One clock read per stage boundary: each read ends one stage and
		// starts the next; the stage spans reuse the same reads.
		var t0, t1, t2 time.Time
		if timed {
			t0 = time.Now()
		}
		if err := (brickClient{svc: p.ref("before")}).run(ctx, call); err != nil {
			return err
		}
		if timed {
			t1 = time.Now()
			mStageBefore.Observe(t1.Sub(t0))
			spans.Add(req.Trace, "ftm.before", t0, t1.Sub(t0))
		}
		if err := (brickClient{svc: p.ref("proceed")}).run(ctx, call); err != nil {
			return err
		}
		if timed {
			t2 = time.Now()
			mStageProceed.Observe(t2.Sub(t1))
			spans.Add(req.Trace, "ftm.proceed", t1, t2.Sub(t1))
		}
		if err := (brickClient{svc: p.ref("after")}).run(ctx, call); err != nil {
			return err
		}
		if timed {
			d2 := time.Since(t2)
			mStageAfter.Observe(d2)
			spans.Add(req.Trace, "ftm.after", t2, d2)
		}
		return nil
	}
	if err := run(); err != nil {
		if errors.Is(err, ErrAssertionFailed) {
			// The follower's own computation failed its assertion: count
			// toward this host's permanent-fault threshold.
			p.mu.Lock()
			p.assertFailures++
			failures, limit, ctrl := p.assertFailures, p.assertLimit, p.control
			p.mu.Unlock()
			if failures >= limit && ctrl != nil {
				ctrl.OnAssertionPermanent()
			}
		}
		return rpc.Response{ClientID: req.ClientID, Seq: req.Seq,
			Status: rpc.StatusUnavailable, Err: err.Error()}
	}
	return call.Result
}

// remoteAssertExecute serves a peer's escalated request: execute locally,
// check the assertion, and log the reply (it becomes the client-visible
// outcome).
func (p *protocolContent) remoteAssertExecute(ctx context.Context, req rpc.Request) (rpc.Response, error) {
	log := logClient{svc: p.ref("log")}
	if prev, found, err := log.lookup(ctx, req.ClientID, req.Seq); err == nil && found {
		return prev, nil
	}
	call := getCall()
	call.Req = req
	defer putCall(call)
	if err := (processClient{svc: p.ref("server")}).run(ctx, call); err != nil {
		return rpc.Response{}, err
	}
	if call.Result.Status == rpc.StatusOK {
		ok, err := (assertClient{svc: p.ref("assert")}).check(ctx, call)
		if err != nil {
			return rpc.Response{}, err
		}
		if !ok {
			return rpc.Response{}, fmt.Errorf("%w: on both replicas", ErrAssertionFailed)
		}
	}
	if err := log.record(ctx, &call.Result); err != nil {
		return rpc.Response{}, err
	}
	return call.Result, nil
}

// --- Control -------------------------------------------------------------

func (p *protocolContent) handleControl(ctx context.Context, msg component.Message) (component.Message, error) {
	switch msg.Op {
	case OpPeerChange:
		suspected, _ := msg.Payload.(bool)
		p.mu.Lock()
		ctrl := p.control
		p.mu.Unlock()
		if ctrl != nil {
			ctrl.OnPeerChange(suspected)
		}
		return component.NewMessage("ok", nil), nil
	case OpRole:
		return component.NewMessage("ok", string(p.Role())), nil
	default:
		return component.Message{}, fmt.Errorf("%w: %q on protocol.control", component.ErrUnknownOp, msg.Op)
	}
}
