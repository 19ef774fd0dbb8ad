package ftm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"resilientft/internal/appstate"
	"resilientft/internal/component"
	"resilientft/internal/core"
	"resilientft/internal/rpc"
	"resilientft/internal/telemetry"
	"resilientft/internal/transport"
)

// The bricks in this file are the variable features of the
// Before-Proceed-After generic execution scheme (Table 2): small,
// stateless components that differential transitions add and remove.
// Everything stateful (reply log, server, protocol) lives elsewhere and
// survives transitions untouched.

// brickRefs is the shared reference receiver of all bricks.
type brickRefs struct {
	mu   sync.Mutex
	refs map[string]component.Service
}

func (b *brickRefs) SetReference(name string, target component.Service) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.refs == nil {
		b.refs = make(map[string]component.Service)
	}
	if target == nil {
		delete(b.refs, name)
		return
	}
	b.refs[name] = target
}

func (b *brickRefs) ref(name string) component.Service {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.refs[name]
}

func callPayload(msg component.Message) (*Call, error) {
	call, ok := msg.Payload.(*Call)
	if !ok {
		return nil, fmt.Errorf("ftm: brick payload is %T, want *Call", msg.Payload)
	}
	return call, nil
}

// --- Nothing -----------------------------------------------------------

// nopBrick fills a slot whose Table 2 entry is "Nothing".
type nopBrick struct{}

func (nopBrick) Invoke(ctx context.Context, service string, msg component.Message) (component.Message, error) {
	return component.NewMessage("ok", msg.Payload), nil
}

// --- Proceed: plain computation -----------------------------------------

// computeProceed forwards the request to the server (Table 2 "Compute").
type computeProceed struct {
	brickRefs
}

func (p *computeProceed) Invoke(ctx context.Context, service string, msg component.Message) (component.Message, error) {
	call, err := callPayload(msg)
	if err != nil {
		return component.Message{}, err
	}
	if err := (processClient{svc: p.ref("server")}).run(ctx, call); err != nil {
		return component.Message{}, err
	}
	return component.NewMessage("ok", call), nil
}

// noProceed is the PBR backup's empty Proceed (Table 2 "Nothing"): the
// backup does not compute, it applies checkpoints.
type noProceed struct{}

func (noProceed) Invoke(ctx context.Context, service string, msg component.Message) (component.Message, error) {
	return component.NewMessage("ok", msg.Payload), nil
}

// --- Proceed: time redundancy -------------------------------------------

// trProceed executes the request redundantly on one host: compute,
// restore the pre-state, recompute, compare; on mismatch a third
// execution votes two-out-of-three (§3.2.1). State is restored between
// executions so exactly one execution's effects survive.
type trProceed struct {
	brickRefs
}

func sameOutcome(a, b rpc.Response) bool {
	return a.Status == b.Status && a.Err == b.Err && bytes.Equal(a.Payload, b.Payload)
}

func (p *trProceed) Invoke(ctx context.Context, service string, msg component.Message) (component.Message, error) {
	call, err := callPayload(msg)
	if err != nil {
		return component.Message{}, err
	}
	server := processClient{svc: p.ref("server")}
	state := stateClient{svc: p.ref("state")}

	snap := call.StateSnapshot
	if !call.HasSnapshot {
		snap, err = state.capture(ctx)
		if err != nil {
			return component.Message{}, fmt.Errorf("ftm: tr: pre-capture: %w", err)
		}
	}

	exec := func() (rpc.Response, error) {
		if err := server.run(ctx, call); err != nil {
			return rpc.Response{}, err
		}
		return call.Result, nil
	}

	r1, err := exec()
	if err != nil {
		return component.Message{}, err
	}
	if err := state.restore(ctx, snap); err != nil {
		return component.Message{}, fmt.Errorf("ftm: tr: restore between executions: %w", err)
	}
	r2, err := exec()
	if err != nil {
		return component.Message{}, err
	}
	if sameOutcome(r1, r2) {
		call.Result = r2
		return component.NewMessage("ok", call), nil
	}
	// Results differ: a transient fault hit one execution. Vote with a
	// third.
	if err := state.restore(ctx, snap); err != nil {
		return component.Message{}, fmt.Errorf("ftm: tr: restore before vote: %w", err)
	}
	r3, err := exec()
	if err != nil {
		return component.Message{}, err
	}
	if sameOutcome(r3, r1) || sameOutcome(r3, r2) {
		call.Result = r3
		return component.NewMessage("ok", call), nil
	}
	call.Unrecoverable = true
	return component.Message{}, fmt.Errorf("%w: request %s", ErrUnrecoverable, call.Req.ID())
}

// --- Proceed: assertion ---------------------------------------------------

// assertProceed computes and then checks the application's safety
// assertion on the result (Table 2 "Assert output"). A violation is
// escalated to the protocol, which re-executes on the other node
// (A&Duplex, §3.2.1).
type assertProceed struct {
	brickRefs
}

func (p *assertProceed) Invoke(ctx context.Context, service string, msg component.Message) (component.Message, error) {
	call, err := callPayload(msg)
	if err != nil {
		return component.Message{}, err
	}
	if err := (processClient{svc: p.ref("server")}).run(ctx, call); err != nil {
		return component.Message{}, err
	}
	if call.Result.Status != rpc.StatusOK {
		return component.NewMessage("ok", call), nil
	}
	ok, err := (assertClient{svc: p.ref("assert")}).check(ctx, call)
	if err != nil {
		return component.Message{}, err
	}
	if !ok {
		return component.Message{}, fmt.Errorf("%w: request %s", ErrAssertionFailed, call.Req.ID())
	}
	return component.NewMessage("ok", call), nil
}

// --- PBR bricks ------------------------------------------------------------

// pbrFullCheckpointEvery bounds how many consecutive delta checkpoints
// the primary ships before forcing a full one, so a backup silently
// drifting (or a bug in delta application) self-heals within a bounded
// number of requests.
const pbrFullCheckpointEvery = 64

// pbrResyncReply is the backup's answer to a delta whose base version
// does not match its state; the primary reacts with a full checkpoint.
var pbrResyncReply = []byte("resync")

// defaultMaxWave bounds how many requests one shipped synchronization
// may cover (group commit). Large enough that realistic client counts
// coalesce into a single ship; bounded so a ship's reply-log tail cannot
// grow without limit under extreme load.
const defaultMaxWave = 256

// pbrCheckpointAfter is the primary's After (Table 2 "Checkpoint to
// Backup"): capture application state and the reply log and ship them to
// the backup. With no live peer the primary continues master-alone; the
// backup resynchronizes when it rejoins.
//
// Master-alone waves do not build a full checkpoint for a peer that is
// not there: once a wave resolved "degraded", each later wave first sends
// one role query (MsgRoleQuery, served by either role) through the peer
// bridge. An unreachable peer resolves the wave "degraded" at the cost of
// that one failed exchange, with no capture and no encode; a peer that
// answers gets the full checkpoint. Every degraded release follows a
// failed attempt to reach the peer, so a peer that is merely suspected
// but reachable keeps receiving the state, and a refusing peer (split
// brain) fails the wave.
//
// After a first acknowledged full checkpoint the brick switches to delta
// checkpoints: the state write-set since the acknowledged version plus
// the reply-log tail since the acknowledged mark — O(write-set) per
// request instead of O(state). A full checkpoint is forced again when
// the state manager cannot produce the delta, the backup answers
// "resync" (its base version mismatches, e.g. after a restart), the
// peer was lost in between, or pbrFullCheckpointEvery deltas went out.
//
// Concurrent requests group-commit: they join a commit wave, the
// leadership-token holder ships ONE delta covering every member (the
// delta is relative to the last acknowledged version, so a capture taken
// after all member replies were recorded covers all of them), and each
// request returns only once a ship covering it is acknowledged — the
// reply-release invariant is per-wave instead of per-request.
//
// The brick is variable-feature state: a transition or promotion
// replaces it, which zeroes the ack tracking and correctly forces a
// full checkpoint on the next request. In-flight waves drain before the
// replacement: the component gate closes and quiescence waits for every
// rider, so a brick swap flushes outstanding waves cleanly.
type pbrCheckpointAfter struct {
	brickRefs

	// waves orders ships across concurrent requests: deltas are relative
	// to the last acknowledged version, so only the leadership-token
	// holder captures and ships.
	waves *waveNotifier

	// Ack bookkeeping, touched only while holding the leadership token
	// (the token handoff through the notifier's channel is the
	// happens-before edge between successive shippers).
	// synced is true once the backup acknowledged a checkpoint; the
	// ack fields below are only meaningful then.
	synced bool
	// alone is true once a wave found no peer and until a full
	// checkpoint lands again; it implies !synced.
	alone       bool
	ackVersion  uint64
	ackMark     uint64
	deltasSince int
}

var _ component.Content = (*pbrCheckpointAfter)(nil)

func (a *pbrCheckpointAfter) Invoke(ctx context.Context, service string, msg component.Message) (component.Message, error) {
	switch msg.Op {
	case OpRun:
		call, err := callPayload(msg)
		if err != nil {
			return component.Message{}, err
		}
		outcome, err := a.sync(ctx, call.Req.Seq, call.Req.Trace)
		if err != nil {
			return component.Message{}, err
		}
		return component.NewMessage(outcome, call), nil
	case OpFlush:
		// A replayed reply may predate the last acknowledged checkpoint
		// (its original After failed mid-ship or is still in flight):
		// ride a wave before the protocol releases it. Any acknowledged
		// delta covers the full reply-log tail, so completing one wave
		// guarantees the logged reply reached the backup.
		resp, _ := msg.Payload.(rpc.Response)
		outcome, err := a.sync(ctx, resp.Seq, telemetry.ParseSpanContext(msg.MetaValue(MetaTrace)))
		if err != nil {
			return component.Message{}, err
		}
		return component.NewMessage(outcome, nil), nil
	default:
		return component.Message{}, fmt.Errorf("%w: %q on pbr.checkpoint", component.ErrUnknownOp, msg.Op)
	}
}

// sync joins a commit wave and blocks until a ship covering it completed.
func (a *pbrCheckpointAfter) sync(ctx context.Context, seq uint64, trace telemetry.SpanContext) (string, error) {
	w := a.waves.join(seq, nil, trace)
	return a.waves.ride(ctx, w, func(batch []*commitWave) (string, error) {
		return a.shipWave(ctx, batch, trace)
	})
}

// shipWave ships one checkpoint covering every member of the detached
// batch. Runs only under the leadership token. trace is the shipping
// leader's span context; member traces get cover spans instead.
func (a *pbrCheckpointAfter) shipWave(ctx context.Context, batch []*commitWave, trace telemetry.SpanContext) (string, error) {
	var members int
	var maxSeq uint64
	for _, w := range batch {
		members += w.members
		if w.maxSeq > maxSeq {
			maxSeq = w.maxSeq
		}
	}
	mWavePBR.Inc()
	mWavePBRRequests.Add(uint64(members))
	mCkptBatchSize.Observe(time.Duration(members))

	start := time.Now()
	sp := telemetry.DefaultSpans().Start(trace, "ftm.wave.ship")
	if sp != nil {
		sp.SetAttr("ftm", "pbr")
		sp.SetAttr("members", strconv.Itoa(members))
	}
	outcome, err := a.shipCheckpoint(ctx, sp, maxSeq)
	mWaveShipLatency.Observe(time.Since(start))
	if err != nil {
		sp.SetAttr("outcome", "error")
	} else {
		sp.SetAttr("outcome", outcome)
	}
	sp.End()
	if err == nil {
		coverSpans(batch, "pbr", start, outcome)
	}
	return outcome, err
}

// shipCheckpoint ships one delta or full checkpoint, or, while the
// primary is alone, first probes the peer and resolves the wave
// "degraded" without building anything when the probe finds no peer.
// sp (nil when the leader is unsampled) is annotated with the chosen
// mode (delta, full or probe) and parents the peer sends.
func (a *pbrCheckpointAfter) shipCheckpoint(ctx context.Context, sp *telemetry.ActiveSpan, maxSeq uint64) (string, error) {
	state := stateClient{svc: a.ref("state")}
	log := logClient{svc: a.ref("log")}
	peer := peerClient{svc: a.ref("peer")}

	if a.synced && a.deltasSince < pbrFullCheckpointEvery {
		shipped, err := a.shipDelta(ctx, state, log, peer, maxSeq, sp)
		if err != nil {
			if errors.Is(err, ErrNoPeer) {
				// Degraded mode: the failure detector owns peer liveness.
				// The backup's state is unknown once it rejoins, so the
				// next checkpoint must be full.
				a.synced = false
				a.alone = true
				mDegraded.Inc()
				return "degraded", nil
			}
			mWavePBRFailed.Inc()
			return "", err
		}
		if shipped {
			return "ok", nil
		}
		// Delta impossible (no tracking, pruned history, or backup
		// resync): fall through to a full checkpoint.
	}

	if a.alone {
		// Any answer other than "no peer" (a refusal included) lets the
		// full ship below decide the wave.
		_, err := peer.callTraced(ctx, MsgRoleQuery, nil, sp.Context())
		if errors.Is(err, ErrNoPeer) {
			mProbeUnreachable.Inc()
			sp.SetAttr("mode", "probe")
			mDegraded.Inc()
			return "degraded", nil
		}
		mProbeReachable.Inc()
	}

	data, version, mark, err := buildCheckpoint(ctx, state, log, maxSeq)
	if err != nil {
		mWavePBRFailed.Inc()
		return "", err
	}
	sp.SetAttr("mode", "full")
	_, shipErr := peer.callTraced(ctx, MsgPBRCheckpoint, data, sp.Context())
	transport.PutBuf(data)
	if err := shipErr; err != nil {
		a.synced = false
		if errors.Is(err, ErrNoPeer) {
			a.alone = true
			mDegraded.Inc()
			return "degraded", nil
		}
		mWavePBRFailed.Inc()
		return "", err
	}
	mCkptFull.Inc()
	mCkptFullBytes.Add(uint64(len(data)))
	a.synced = true
	a.alone = false
	a.ackVersion = version
	a.ackMark = mark
	a.deltasSince = 0
	return "ok", nil
}

// shipDelta attempts an incremental checkpoint against the acknowledged
// base. It returns shipped=false (and no error) whenever the caller
// should fall back to a full checkpoint.
func (a *pbrCheckpointAfter) shipDelta(ctx context.Context, state stateClient, log logClient, peer peerClient, lastSeq uint64, sp *telemetry.ActiveSpan) (bool, error) {
	cd, err := state.captureDelta(ctx, a.ackVersion)
	if err != nil {
		return false, fmt.Errorf("ftm: delta capture: %w", err)
	}
	if !cd.Supported || !cd.OK {
		return false, nil
	}
	since, err := log.snapshotSince(ctx, a.ackMark)
	if err != nil {
		return false, fmt.Errorf("ftm: delta log tail: %w", err)
	}
	if !since.OK {
		return false, nil
	}
	// Every buffer on this path cycles through the transport pool: the
	// tail and delta captures are copied into the checkpoint envelope and
	// returned immediately; the envelope is recycled after the ship.
	tailData, err := transport.EncodePooled(rpc.ResponseList(since.Tail))
	if err != nil {
		return false, err
	}
	data, err := transport.EncodePooled(appstate.DeltaCheckpoint{
		BaseVersion: a.ackVersion,
		ToVersion:   cd.To,
		Delta:       cd.Delta,
		ReplyTail:   tailData,
		LastSeq:     lastSeq,
	})
	transport.PutBuf(tailData)
	transport.PutBuf(cd.Delta)
	if err != nil {
		return false, err
	}
	sp.SetAttr("mode", "delta")
	reply, err := peer.callTraced(ctx, MsgPBRDelta, data, sp.Context())
	// The bridge copied the payload into its wire envelope before the
	// send, so the buffer is free regardless of the call's outcome.
	transport.PutBuf(data)
	if err != nil {
		if errors.Is(err, ErrNoPeer) {
			return false, err
		}
		// The backup may or may not have applied the delta; only a full
		// checkpoint re-establishes a known base.
		a.synced = false
		return false, nil
	}
	if bytes.Equal(reply, pbrResyncReply) {
		a.synced = false
		mResyncPrimary.Inc()
		return false, nil
	}
	mCkptDelta.Inc()
	mCkptDeltaBytes.Add(uint64(len(data)))
	a.ackVersion = cd.To
	a.ackMark = since.Mark
	a.deltasSince++
	return true, nil
}

// buildCheckpoint assembles an encoded full checkpoint from the live
// state and reply log, returning alongside it the state version and
// reply-log mark the checkpoint represents (the base for later deltas).
func buildCheckpoint(ctx context.Context, state stateClient, log logClient, lastSeq uint64) ([]byte, uint64, uint64, error) {
	appState, version, err := state.captureVersioned(ctx)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("ftm: checkpoint capture: %w", err)
	}
	snap, mark, err := log.snapshotMarked(ctx)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("ftm: checkpoint log snapshot: %w", err)
	}
	// The reply-log snapshot travels fast-coded (a ResponseList), like
	// the delta tails. Both intermediate buffers are copied into the
	// checkpoint envelope and recycled before returning.
	logData, err := transport.EncodePooled(rpc.ResponseList(snap))
	if err != nil {
		return nil, 0, 0, err
	}
	data, err := transport.EncodePooled(appstate.Checkpoint{
		AppState:     appState,
		ReplyLog:     logData,
		LastSeq:      lastSeq,
		StateVersion: version,
	})
	transport.PutBuf(logData)
	transport.PutBuf(appState)
	if err != nil {
		return nil, 0, 0, err
	}
	return data, version, mark, nil
}

// applyCheckpoint restores state and reply log from an encoded full
// checkpoint, adopting the sender's state version so subsequent deltas
// line up.
func applyCheckpoint(ctx context.Context, state stateClient, log logClient, data []byte) error {
	// The in-place decode aliases the inbound frame, which outlives the
	// apply: everything retained downstream (state cells, logged replies)
	// is copied as it is applied.
	cp, err := appstate.DecodeCheckpointInPlace(data)
	if err != nil {
		return fmt.Errorf("ftm: checkpoint decode: %w", err)
	}
	if err := state.applyFull(ctx, cp.AppState, cp.StateVersion); err != nil {
		return fmt.Errorf("ftm: checkpoint state restore: %w", err)
	}
	var snap rpc.ResponseList
	if err := transport.Decode(cp.ReplyLog, &snap); err != nil {
		return fmt.Errorf("ftm: checkpoint log decode: %w", err)
	}
	if err := log.restore(ctx, snap); err != nil {
		return fmt.Errorf("ftm: checkpoint log restore: %w", err)
	}
	return nil
}

// applyDeltaCheckpoint applies an incremental checkpoint. needResync
// reports a base-version mismatch (the caller answers "resync", no
// error): the delta's reply tail is then deliberately NOT applied, so
// the backup's log never runs ahead of its state.
func applyDeltaCheckpoint(ctx context.Context, state stateClient, log logClient, data []byte) (needResync bool, err error) {
	// Zero-copy decode: Delta and ReplyTail alias the inbound frame,
	// which stays alive for the whole apply. The state manager and the
	// reply log copy what they retain.
	dc, err := appstate.DecodeDeltaCheckpointInPlace(data)
	if err != nil {
		return false, fmt.Errorf("ftm: delta checkpoint decode: %w", err)
	}
	res, err := state.applyDelta(ctx, dc.Delta)
	if err != nil {
		return false, fmt.Errorf("ftm: delta state apply: %w", err)
	}
	if res.BaseMismatch {
		return true, nil
	}
	tail := getRespList()
	defer putRespList(tail)
	if err := transport.Decode(dc.ReplyTail, tail); err != nil {
		return false, fmt.Errorf("ftm: delta log decode: %w", err)
	}
	if len(*tail) > 0 {
		if err := log.appendList(ctx, tail); err != nil {
			return false, fmt.Errorf("ftm: delta log apply: %w", err)
		}
	}
	return false, nil
}

// pbrApplyAfter is the backup's After (Table 2 "Process checkpoint").
// During the pipeline it does nothing (the backup does not compute); it
// processes full and delta checkpoints pushed by the primary through the
// protocol.
type pbrApplyAfter struct {
	brickRefs
}

func (a *pbrApplyAfter) Invoke(ctx context.Context, service string, msg component.Message) (component.Message, error) {
	switch msg.Op {
	case OpRun, OpFlush:
		return component.NewMessage("ok", msg.Payload), nil
	case "checkpoint":
		data, ok := msg.Payload.([]byte)
		if !ok {
			return component.Message{}, fmt.Errorf("ftm: checkpoint payload is %T", msg.Payload)
		}
		err := applyCheckpoint(ctx,
			stateClient{svc: a.ref("state")},
			logClient{svc: a.ref("log")},
			data)
		if err != nil {
			return component.Message{}, err
		}
		mApplyFull.Inc()
		return component.NewMessage("ok", nil), nil
	case "delta":
		data, ok := msg.Payload.([]byte)
		if !ok {
			return component.Message{}, fmt.Errorf("ftm: delta checkpoint payload is %T", msg.Payload)
		}
		needResync, err := applyDeltaCheckpoint(ctx,
			stateClient{svc: a.ref("state")},
			logClient{svc: a.ref("log")},
			data)
		if err != nil {
			return component.Message{}, err
		}
		if needResync {
			mResyncBackup.Inc()
			return component.NewMessage("resync", pbrResyncReply), nil
		}
		mApplyDelta.Inc()
		return component.NewMessage("ok", nil), nil
	default:
		return component.Message{}, fmt.Errorf("%w: %q on pbr.apply", component.ErrUnknownOp, msg.Op)
	}
}

// --- LFR bricks ------------------------------------------------------------

// lfrForwardBefore is the leader's Before (Table 2 "Forward request"):
// ship the request to the follower so both replicas process it.
type lfrForwardBefore struct {
	brickRefs
}

func (b *lfrForwardBefore) Invoke(ctx context.Context, service string, msg component.Message) (component.Message, error) {
	call, err := callPayload(msg)
	if err != nil {
		return component.Message{}, err
	}
	data, err := transport.EncodePooled(call.Req)
	if err != nil {
		return component.Message{}, err
	}
	// The forwarded request carries its own trace context inside the
	// encoded Request; the trace meta additionally parents the bridge's
	// ship span under this call.
	_, err = (peerClient{svc: b.ref("peer")}).callTraced(ctx, MsgLFRExec, data, call.Req.Trace)
	transport.PutBuf(data)
	if err != nil {
		if errors.Is(err, ErrNoPeer) {
			return component.NewMessage("degraded", call), nil
		}
		return component.Message{}, err
	}
	return component.NewMessage("ok", call), nil
}

// lfrReceiveBefore is the follower's Before (Table 2 "Receive request").
// The protocol has already unpacked the forwarded request into the call;
// the brick marks the reception step of the generic scheme.
type lfrReceiveBefore struct{}

func (lfrReceiveBefore) Invoke(ctx context.Context, service string, msg component.Message) (component.Message, error) {
	return component.NewMessage("ok", msg.Payload), nil
}

// commitMsg is the leader's completion notification. It travels once
// per request under LFR, so it rides the transport fast codec (the body
// is exactly the response's fast encoding).
type commitMsg struct {
	Resp rpc.Response
}

var (
	_ transport.FastMarshaler   = commitMsg{}
	_ transport.FastUnmarshaler = (*commitMsg)(nil)
)

// AppendFast implements transport.FastMarshaler.
func (c commitMsg) AppendFast(buf []byte) []byte { return c.Resp.AppendFast(buf) }

// DecodeFast implements transport.FastUnmarshaler.
func (c *commitMsg) DecodeFast(data []byte) error { return c.Resp.DecodeFast(data) }

// lfrNotifyAfter is the leader's After (Table 2 "Notify Follower"): tell
// the follower the reply went out, so its reply log converges on the
// leader's outcome. Concurrent requests group-commit: their replies join
// a commit wave and the leadership-token holder ships them as one batch
// notification, so N in-flight requests cost one peer round-trip.
type lfrNotifyAfter struct {
	brickRefs
	waves *waveNotifier
}

var _ component.Content = (*lfrNotifyAfter)(nil)

func (a *lfrNotifyAfter) Invoke(ctx context.Context, service string, msg component.Message) (component.Message, error) {
	switch msg.Op {
	case OpRun:
		call, err := callPayload(msg)
		if err != nil {
			return component.Message{}, err
		}
		outcome, err := a.sync(ctx, call.Result, call.Req.Trace)
		if err != nil {
			return component.Message{}, err
		}
		return component.NewMessage(outcome, call), nil
	case OpFlush:
		// A replayed reply may never have reached the follower (its
		// original notification failed): re-commit it in a wave before
		// the protocol releases it. The follower's record is idempotent,
		// so a reply committed twice is harmless.
		resp, ok := msg.Payload.(rpc.Response)
		if !ok {
			return component.Message{}, fmt.Errorf("ftm: flush payload is %T", msg.Payload)
		}
		outcome, err := a.sync(ctx, resp, telemetry.ParseSpanContext(msg.MetaValue(MetaTrace)))
		if err != nil {
			return component.Message{}, err
		}
		return component.NewMessage(outcome, nil), nil
	default:
		return component.Message{}, fmt.Errorf("%w: %q on lfr.notify", component.ErrUnknownOp, msg.Op)
	}
}

// sync joins a commit wave carrying resp and blocks until a ship
// covering it completed.
func (a *lfrNotifyAfter) sync(ctx context.Context, resp rpc.Response, trace telemetry.SpanContext) (string, error) {
	w := a.waves.join(resp.Seq, &resp, trace)
	return a.waves.ride(ctx, w, func(batch []*commitWave) (string, error) {
		return a.shipWave(ctx, batch, trace)
	})
}

// shipWave ships the member replies of one detached batch: a single
// commit for a lone member, a batch commit otherwise.
func (a *lfrNotifyAfter) shipWave(ctx context.Context, batch []*commitWave, trace telemetry.SpanContext) (string, error) {
	var resps []rpc.Response
	for _, w := range batch {
		resps = append(resps, w.resps...)
	}
	mWaveLFR.Inc()
	mWaveLFRRequests.Add(uint64(len(resps)))

	start := time.Now()
	sp := telemetry.DefaultSpans().Start(trace, "ftm.wave.ship")
	if sp != nil {
		sp.SetAttr("ftm", "lfr")
		sp.SetAttr("members", strconv.Itoa(len(resps)))
	}

	var kind string
	var data []byte
	var err error
	if len(resps) == 1 {
		kind = MsgLFRCommit
		data, err = transport.EncodePooled(commitMsg{Resp: resps[0]})
	} else {
		kind = MsgLFRCommitBatch
		data, err = transport.EncodePooled(rpc.ResponseList(resps))
	}
	if err != nil {
		mWaveLFRFailed.Inc()
		sp.SetAttr("outcome", "error")
		sp.End()
		return "", err
	}
	_, err = (peerClient{svc: a.ref("peer")}).callTraced(ctx, kind, data, sp.Context())
	// The bridge copied the payload into its wire envelope, so the buffer
	// recycles regardless of the ship's outcome.
	transport.PutBuf(data)
	mWaveShipLatency.Observe(time.Since(start))
	if err != nil {
		if errors.Is(err, ErrNoPeer) {
			sp.SetAttr("outcome", "degraded")
			sp.End()
			coverSpans(batch, "lfr", start, "degraded")
			return "degraded", nil
		}
		mWaveLFRFailed.Inc()
		sp.SetAttr("outcome", "error")
		sp.End()
		return "", err
	}
	sp.SetAttr("outcome", "ok")
	sp.End()
	coverSpans(batch, "lfr", start, "ok")
	return "ok", nil
}

// lfrAckAfter is the follower's After (Table 2 "Process notification"):
// record the computed reply in the follower's own reply log so a
// failover preserves at-most-once semantics, and fold in the leader's
// commit notifications.
type lfrAckAfter struct {
	brickRefs
}

func (a *lfrAckAfter) Invoke(ctx context.Context, service string, msg component.Message) (component.Message, error) {
	log := logClient{svc: a.ref("log")}
	switch msg.Op {
	case OpRun:
		call, err := callPayload(msg)
		if err != nil {
			return component.Message{}, err
		}
		if err := log.record(ctx, &call.Result); err != nil {
			return component.Message{}, err
		}
		return component.NewMessage("ok", call), nil
	case "commit":
		cm, ok := msg.Payload.(commitMsg)
		if !ok {
			return component.Message{}, fmt.Errorf("ftm: commit payload is %T", msg.Payload)
		}
		if err := log.record(ctx, &cm.Resp); err != nil {
			return component.Message{}, err
		}
		return component.NewMessage("ok", nil), nil
	case "commit.batch":
		switch batch := msg.Payload.(type) {
		case *rpc.ResponseList:
			if err := log.appendList(ctx, batch); err != nil {
				return component.Message{}, err
			}
		case []rpc.Response:
			if err := log.appendBatch(ctx, batch); err != nil {
				return component.Message{}, err
			}
		default:
			return component.Message{}, fmt.Errorf("ftm: commit batch payload is %T", msg.Payload)
		}
		return component.NewMessage("ok", nil), nil
	case OpFlush:
		// The follower has no downstream replica to flush toward.
		return component.NewMessage("ok", nil), nil
	default:
		return component.Message{}, fmt.Errorf("%w: %q on lfr.ack", component.ErrUnknownOp, msg.Op)
	}
}

// --- Standalone TR bricks ---------------------------------------------------

// trCaptureBefore is standalone TR's Before (Table 2 "Capture state").
type trCaptureBefore struct {
	brickRefs
}

func (b *trCaptureBefore) Invoke(ctx context.Context, service string, msg component.Message) (component.Message, error) {
	call, err := callPayload(msg)
	if err != nil {
		return component.Message{}, err
	}
	snap, err := (stateClient{svc: b.ref("state")}).capture(ctx)
	if err != nil {
		return component.Message{}, fmt.Errorf("ftm: tr.capture: %w", err)
	}
	call.StateSnapshot = snap
	call.HasSnapshot = true
	return component.NewMessage("ok", call), nil
}

// trRestoreAfter is standalone TR's After (Table 2 "Restore state"): when
// the redundant executions could not agree, put the application back in
// its pre-request state so the failed request has no effect.
type trRestoreAfter struct {
	brickRefs
}

func (a *trRestoreAfter) Invoke(ctx context.Context, service string, msg component.Message) (component.Message, error) {
	if msg.Op == OpFlush {
		// TR is single-host: a logged reply needs no replica coverage.
		return component.NewMessage("ok", nil), nil
	}
	call, err := callPayload(msg)
	if err != nil {
		return component.Message{}, err
	}
	if call.Unrecoverable && call.HasSnapshot {
		if err := (stateClient{svc: a.ref("state")}).restore(ctx, call.StateSnapshot); err != nil {
			return component.Message{}, fmt.Errorf("ftm: tr.restore: %w", err)
		}
	}
	return component.NewMessage("ok", call), nil
}

// brickDefinition returns the Definition template of a variable-feature
// component type: its services, references and deployment bundle.
func brickDefinition(typ string) (component.Definition, error) {
	def := component.Definition{
		Type:     typ,
		Services: []string{SvcSync},
		Bundle:   BundleFor(typ),
	}
	switch typ {
	case core.TypeNop:
	case core.TypeComputeProceed:
		def.Services = []string{SvcExec}
		def.References = []component.Ref{{Name: "server", Required: true}}
	case core.TypeNoProceed:
		def.Services = []string{SvcExec}
	case core.TypeTRProceed:
		def.Services = []string{SvcExec}
		def.References = []component.Ref{
			{Name: "server", Required: true},
			{Name: "state", Required: true},
		}
	case core.TypeAssertProceed:
		def.Services = []string{SvcExec}
		def.References = []component.Ref{
			{Name: "server", Required: true},
			{Name: "assert", Required: true},
		}
	case core.TypePBRCheckpoint:
		def.References = []component.Ref{
			{Name: "state", Required: true},
			{Name: "log", Required: true},
			{Name: "peer", Required: true},
		}
	case core.TypePBRApply:
		def.References = []component.Ref{
			{Name: "state", Required: true},
			{Name: "log", Required: true},
		}
	case core.TypeLFRForward, core.TypeLFRNotify:
		def.References = []component.Ref{{Name: "peer", Required: true}}
	case core.TypeLFRReceive:
	case core.TypeLFRAck:
		def.References = []component.Ref{{Name: "log", Required: true}}
	case core.TypeTRCapture, core.TypeTRRestore:
		def.References = []component.Ref{{Name: "state", Required: true}}
	case core.TypeRBProceed:
		def.Services = []string{SvcExec}
		def.References = []component.Ref{
			{Name: "server", Required: true},
			{Name: "alternate", Required: true},
			{Name: "assert", Required: true},
			{Name: "state", Required: true},
		}
	case core.TypeTMRProceed:
		def.Services = []string{SvcExec}
		def.References = []component.Ref{
			{Name: "server", Required: true},
			{Name: "state", Required: true},
		}
	case core.TypeRecordProceed:
		def.Services = []string{SvcExec}
		def.References = []component.Ref{{Name: "record", Required: true}}
	case core.TypeXPANotify:
		def.References = []component.Ref{{Name: "peer", Required: true}}
	case core.TypeXPAApply:
		def.References = []component.Ref{
			{Name: "replay", Required: true},
			{Name: "log", Required: true},
		}
	default:
		return component.Definition{}, fmt.Errorf("ftm: unknown brick type %q", typ)
	}
	return def, nil
}

// newBrickContent constructs the content of a brick type.
func newBrickContent(typ string) (component.Content, error) {
	switch typ {
	case core.TypeNop:
		return nopBrick{}, nil
	case core.TypeComputeProceed:
		return &computeProceed{}, nil
	case core.TypeNoProceed:
		return noProceed{}, nil
	case core.TypeTRProceed:
		return &trProceed{}, nil
	case core.TypeAssertProceed:
		return &assertProceed{}, nil
	case core.TypePBRCheckpoint:
		return &pbrCheckpointAfter{waves: newWaveNotifier(defaultMaxWave)}, nil
	case core.TypePBRApply:
		return &pbrApplyAfter{}, nil
	case core.TypeLFRForward:
		return &lfrForwardBefore{}, nil
	case core.TypeLFRReceive:
		return lfrReceiveBefore{}, nil
	case core.TypeLFRNotify:
		return &lfrNotifyAfter{waves: newWaveNotifier(defaultMaxWave)}, nil
	case core.TypeLFRAck:
		return &lfrAckAfter{}, nil
	case core.TypeTRCapture:
		return &trCaptureBefore{}, nil
	case core.TypeTRRestore:
		return &trRestoreAfter{}, nil
	case core.TypeRBProceed:
		return &rbProceed{}, nil
	case core.TypeTMRProceed:
		return &tmrProceed{}, nil
	case core.TypeRecordProceed:
		return &recordProceed{}, nil
	case core.TypeXPANotify:
		return &xpaNotify{}, nil
	case core.TypeXPAApply:
		return &xpaApply{}, nil
	default:
		return nil, fmt.Errorf("ftm: unknown brick type %q", typ)
	}
}
