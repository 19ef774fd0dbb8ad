package ftm

import (
	"errors"
	"sync"

	"resilientft/internal/rpc"
)

// Service names inside an FTM composite. The slot components
// (syncBefore/proceed/syncAfter) all expose SvcSync or SvcExec so a
// differential transition can rewire a replacement without touching its
// callers.
const (
	// SvcRequest is the protocol's client-facing service (promoted to the
	// composite boundary).
	SvcRequest = "request"
	// SvcReplica is the protocol's inter-replica service.
	SvcReplica = "replica"
	// SvcControl is the protocol's control service (detector
	// notifications, role queries).
	SvcControl = "control"
	// SvcSync is the service of syncBefore/syncAfter bricks.
	SvcSync = "sync"
	// SvcExec is the service of proceed bricks.
	SvcExec = "exec"
	// SvcLog is the reply log service.
	SvcLog = "log"
	// SvcProcess is the server's computation service.
	SvcProcess = "process"
	// SvcState is the server's state-management service.
	SvcState = "state"
	// SvcAssert is the server's safety-assertion service.
	SvcAssert = "assert"
	// SvcAlternate is the server's diversified-alternate computation
	// service (recovery blocks).
	SvcAlternate = "alternate"
	// SvcRecord is the server's decision-capturing computation service
	// (semi-active leader).
	SvcRecord = "record"
	// SvcReplay is the server's decision-replaying computation service
	// (semi-active follower).
	SvcReplay = "replay"
	// SvcSend is the peer bridge's outbound service.
	SvcSend = "send"
)

// Operations on the services above.
const (
	// OpRun drives a pipeline brick with a *Call payload.
	OpRun = "run"
	// OpFlush asks a syncAfter brick to confirm replica coverage of a
	// logged reply about to be replayed (payload: the rpc.Response). The
	// synchronizing bricks ride a commit wave; bricks with no replica to
	// cover answer "ok" immediately.
	OpFlush = "flush"

	// Reply log operations.
	OpLookup   = "lookup"
	OpRecord   = "record"
	OpSnapshot = "snapshot"
	OpRestoreL = "restore"
	// OpSnapshotMarked returns the full snapshot paired with the log's
	// journal mark, the base for later incremental snapshots.
	OpSnapshotMarked = "snapshot-marked"
	// OpSnapshotSince returns the responses recorded after a mark.
	OpSnapshotSince = "snapshot-since"
	// OpAppendLog records a batch of responses (checkpoint-delta tails).
	OpAppendLog = "append"

	// Server state operations.
	OpCapture      = "capture"
	OpRestoreState = "restore"
	OpAccess       = "access"
	// OpCaptureVersioned captures the state paired with its version.
	OpCaptureVersioned = "capture-versioned"
	// OpCaptureDelta captures the write-set since a base version.
	OpCaptureDelta = "capture-delta"
	// OpApplyDelta applies a write-set to a matching base version.
	OpApplyDelta = "apply-delta"
	// OpApplyFull replaces the state and adopts the sender's version.
	OpApplyFull = "apply-full"

	// Peer bridge operation; the message Meta carries the message kind.
	OpCall = "call"

	// Control operations.
	OpPeerChange = "peer-change" // payload bool: suspected
	OpRole       = "role"
)

// Meta keys.
const (
	// MetaKind carries the inter-replica message kind on peer sends.
	MetaKind = "kind"
	// MetaTrace carries a telemetry.SpanContext (String form) on
	// messages that cross component boundaries outside the *Call
	// pipeline: peer sends, OpFlush replay coverage, and inbound
	// replica dispatch. Absent or malformed values mean "unsampled".
	MetaTrace = "trace"
)

// Inter-replica message kinds (within transport kind KindReplica).
const (
	// MsgPBRCheckpoint ships a full checkpoint from primary to backup.
	MsgPBRCheckpoint = "pbr.checkpoint"
	// MsgPBRDelta ships an incremental checkpoint (state write-set plus
	// reply-log tail since the last acknowledged one). The backup answers
	// "resync" instead of "ack" when its base version mismatches, which
	// makes the primary fall back to a full checkpoint.
	MsgPBRDelta = "pbr.delta"
	// MsgPBRPull asks the primary for a full checkpoint (slave rejoin).
	MsgPBRPull = "pbr.pull"
	// MsgLFRExec forwards a request for parallel execution on the
	// follower.
	MsgLFRExec = "lfr.exec"
	// MsgLFRCommit notifies the follower that the leader replied.
	MsgLFRCommit = "lfr.commit"
	// MsgLFRCommitBatch notifies the follower of a whole commit wave at
	// once (group commit): the payload is the rpc.ResponseList of every
	// reply the wave released.
	MsgLFRCommitBatch = "lfr.commit.batch"
	// MsgAssertExec asks the peer to re-execute a request whose local
	// result failed the safety assertion (A&Duplex escalation).
	MsgAssertExec = "assert.exec"
	// MsgRoleQuery asks a replica for its current role and mastership
	// age — the split-brain resolution probe.
	MsgRoleQuery = "role.query"
	// MsgXPAExec ships a request plus the leader's captured
	// non-deterministic decisions to a semi-active follower for replay
	// (Delta-4 XPA style).
	MsgXPAExec = "xpa.exec"
)

// KindReplica is the transport message kind of inter-replica traffic.
const KindReplica = "ftm.replica"

// Call is the context flowing through the Before-Proceed-After pipeline
// of one request. Bricks read and annotate it; within a replica it is
// passed by pointer.
type Call struct {
	Req    rpc.Request
	Result rpc.Response
	// Before is the pre-operation value reported by the application,
	// input to safety assertions.
	Before int64
	// Decisions are the non-deterministic choices captured by a
	// semi-active leader, replayed verbatim by its follower.
	Decisions []int64
	// StateSnapshot is the pre-processing state captured by tr.capture
	// (standalone TR).
	StateSnapshot []byte
	// HasSnapshot marks StateSnapshot as valid (it may be legitimately
	// empty).
	HasSnapshot bool
	// Unrecoverable marks a call whose redundant executions never agreed.
	Unrecoverable bool
}

// ResultValue decodes the call's int64 result payload.
func (c *Call) ResultValue() (int64, error) {
	return DecodeResult(c.Result.Payload)
}

// reqCarrier carries one client request into the protocol component and
// its response back out. It crosses the boundary by pointer from a
// pool, so the per-request component dispatch does not box two structs
// into interface payloads. The replica transport handler owns the
// carrier; nothing downstream may retain it.
type reqCarrier struct {
	Req  rpc.Request
	Resp rpc.Response
}

var reqCarrierPool = sync.Pool{New: func() any { return new(reqCarrier) }}

// respListPool recycles decoded response batches (commit waves,
// checkpoint-delta reply tails): the backing array's capacity survives
// from batch to batch, so the steady state decodes without growing.
var respListPool = sync.Pool{New: func() any { return new(rpc.ResponseList) }}

func getRespList() *rpc.ResponseList { return respListPool.Get().(*rpc.ResponseList) }

func putRespList(l *rpc.ResponseList) {
	*l = (*l)[:0]
	respListPool.Put(l)
}

// callPool recycles the *Call flowing through the Before-Proceed-After
// pipeline. A Call lives exactly as long as one execute: bricks annotate
// it but never retain it, so the executing goroutine returns it once the
// result has been copied out.
var callPool = sync.Pool{New: func() any { return new(Call) }}

func getCall() *Call { return callPool.Get().(*Call) }

func putCall(c *Call) {
	d := c.Decisions[:0]
	*c = Call{}
	c.Decisions = d
	callPool.Put(c)
}

func getReqCarrier() *reqCarrier { return reqCarrierPool.Get().(*reqCarrier) }

func putReqCarrier(c *reqCarrier) {
	*c = reqCarrier{}
	reqCarrierPool.Put(c)
}

// Errors surfaced by pipeline bricks.
var (
	// ErrAssertionFailed reports a safety-assertion violation on the
	// local result; the protocol escalates to the peer (the paper's
	// "re-execution on a different node").
	ErrAssertionFailed = errors.New("ftm: safety assertion failed")
	// ErrUnrecoverable reports redundant executions that never agreed —
	// the fault exceeded the tolerated model.
	ErrUnrecoverable = errors.New("ftm: redundant executions disagree, fault model exceeded")
	// ErrNotMaster reports a client request landing on the slave.
	ErrNotMaster = errors.New("ftm: not master")
	// ErrNotSlave reports a slave-role inter-replica message (forwarded
	// request, commit, checkpoint) landing on a master — the guard that
	// keeps a split brain from ping-ponging executions.
	ErrNotSlave = errors.New("ftm: not slave")
	// ErrNoPeer reports an inter-replica exchange with no live peer.
	ErrNoPeer = errors.New("ftm: no live peer")
	// ErrNoReplicaForGroup reports an inter-replica message whose group
	// stamp matches no replica on the receiving endpoint.
	ErrNoReplicaForGroup = errors.New("ftm: no replica for group")
)
