package ftm

import (
	"context"
	"fmt"
	"sync"

	"resilientft/internal/component"
	"resilientft/internal/rpc"
)

// TypeReplyLog is the component type of the reply log.
const TypeReplyLog = "ftm.replylog"

// lookupQuery is the payload of an OpLookup on the reply log.
type lookupQuery struct {
	ClientID string
	Seq      uint64
}

// lookupResult is the reply payload of an OpLookup.
type lookupResult struct {
	Resp  rpc.Response
	Found bool
}

// lookupCall is the pooled pointer form of an OpLookup: the query rides
// in, the result is filled in place, and nothing is boxed per request.
type lookupCall struct {
	ClientID string
	Seq      uint64
	Resp     rpc.Response
	Found    bool
}

var lookupCallPool = sync.Pool{New: func() any { return new(lookupCall) }}

func getLookupCall() *lookupCall { return lookupCallPool.Get().(*lookupCall) }

func putLookupCall(c *lookupCall) {
	*c = lookupCall{}
	lookupCallPool.Put(c)
}

// markedSnapshot is the reply payload of an OpSnapshotMarked.
type markedSnapshot struct {
	Snap []rpc.Response
	Mark uint64
}

// sinceResult is the reply payload of an OpSnapshotSince. OK is false
// when the log's journal no longer reaches back to the requested mark.
type sinceResult struct {
	Tail []rpc.Response
	Mark uint64
	OK   bool
}

// replyLogContent wraps an rpc.ReplyLog as a component (the "replyLog"
// component of Figure 6). It is FTM state that transitions never touch:
// the differential approach's point is precisely that swapping bricks
// does not lose this state.
type replyLogContent struct {
	log *rpc.ReplyLog
}

func newReplyLogContent(retention int) *replyLogContent {
	return &replyLogContent{log: rpc.NewReplyLog(retention)}
}

var _ component.Content = (*replyLogContent)(nil)

func (r *replyLogContent) Invoke(ctx context.Context, service string, msg component.Message) (component.Message, error) {
	if service != SvcLog {
		return component.Message{}, fmt.Errorf("%w: service %q on replyLog", component.ErrNotFound, service)
	}
	switch msg.Op {
	case OpLookup:
		switch q := msg.Payload.(type) {
		case *lookupCall:
			q.Resp, q.Found = r.log.Lookup(q.ClientID, q.Seq)
			return component.Message{Op: "ok", Payload: q}, nil
		case lookupQuery:
			resp, found := r.log.Lookup(q.ClientID, q.Seq)
			return component.NewMessage("ok", lookupResult{Resp: resp, Found: found}), nil
		default:
			return component.Message{}, fmt.Errorf("ftm: replyLog lookup payload is %T", msg.Payload)
		}
	case OpRecord:
		switch resp := msg.Payload.(type) {
		case *rpc.Response:
			r.log.Record(*resp)
			return component.NewMessage("ok", nil), nil
		case rpc.Response:
			r.log.Record(resp)
			return component.NewMessage("ok", nil), nil
		default:
			return component.Message{}, fmt.Errorf("ftm: replyLog record payload is %T", msg.Payload)
		}
	case OpSnapshot:
		return component.NewMessage("ok", r.log.Snapshot()), nil
	case OpSnapshotMarked:
		snap, mark := r.log.SnapshotMarked()
		return component.NewMessage("ok", markedSnapshot{Snap: snap, Mark: mark}), nil
	case OpSnapshotSince:
		mark, ok := msg.Payload.(uint64)
		if !ok {
			return component.Message{}, fmt.Errorf("ftm: replyLog snapshot-since payload is %T", msg.Payload)
		}
		tail, newMark, sinceOK := r.log.SnapshotSince(mark)
		return component.NewMessage("ok", sinceResult{Tail: tail, Mark: newMark, OK: sinceOK}), nil
	case OpAppendLog:
		batch, ok := msg.Payload.(*rpc.ResponseList)
		if !ok {
			return component.Message{}, fmt.Errorf("ftm: replyLog append payload is %T", msg.Payload)
		}
		r.log.RecordAll(*batch)
		return component.NewMessage("ok", nil), nil
	case OpRestoreL:
		snap, ok := msg.Payload.([]rpc.Response)
		if !ok {
			return component.Message{}, fmt.Errorf("ftm: replyLog restore payload is %T", msg.Payload)
		}
		r.log.Restore(snap)
		return component.NewMessage("ok", nil), nil
	default:
		return component.Message{}, fmt.Errorf("%w: %q on replyLog", component.ErrUnknownOp, msg.Op)
	}
}

// logClient is a typed facade over the reply log's uniform service,
// used by the protocol and the bricks holding a "log" reference.
type logClient struct {
	svc component.Service
}

func (l logClient) lookup(ctx context.Context, clientID string, seq uint64) (rpc.Response, bool, error) {
	q := getLookupCall()
	q.ClientID, q.Seq = clientID, seq
	reply, err := l.svc.Invoke(ctx, component.Message{Op: OpLookup, Payload: q})
	if err != nil {
		putLookupCall(q)
		return rpc.Response{}, false, err
	}
	if res, ok := reply.Payload.(*lookupCall); ok && res == q {
		resp, found := q.Resp, q.Found
		putLookupCall(q)
		return resp, found, nil
	}
	putLookupCall(q)
	if res, ok := reply.Payload.(lookupResult); ok {
		return res.Resp, res.Found, nil
	}
	return rpc.Response{}, false, fmt.Errorf("ftm: lookup reply is %T", reply.Payload)
}

// record logs a reply. The response is read before record returns, never
// retained, so callers pass a pointer into their own call state.
func (l logClient) record(ctx context.Context, resp *rpc.Response) error {
	_, err := l.svc.Invoke(ctx, component.Message{Op: OpRecord, Payload: resp})
	return err
}

func (l logClient) restore(ctx context.Context, snap []rpc.Response) error {
	_, err := l.svc.Invoke(ctx, component.Message{Op: OpRestoreL, Payload: snap})
	return err
}

func (l logClient) snapshotMarked(ctx context.Context) ([]rpc.Response, uint64, error) {
	reply, err := l.svc.Invoke(ctx, component.Message{Op: OpSnapshotMarked})
	if err != nil {
		return nil, 0, err
	}
	ms, ok := reply.Payload.(markedSnapshot)
	if !ok {
		return nil, 0, fmt.Errorf("ftm: snapshot-marked reply is %T", reply.Payload)
	}
	return ms.Snap, ms.Mark, nil
}

func (l logClient) snapshotSince(ctx context.Context, mark uint64) (sinceResult, error) {
	reply, err := l.svc.Invoke(ctx, component.Message{Op: OpSnapshotSince, Payload: mark})
	if err != nil {
		return sinceResult{}, err
	}
	res, ok := reply.Payload.(sinceResult)
	if !ok {
		return sinceResult{}, fmt.Errorf("ftm: snapshot-since reply is %T", reply.Payload)
	}
	return res, nil
}

// appendList records a batch of replies. The pooled list crosses the
// boundary by pointer, so no slice header is boxed; the log copies the
// entries.
func (l logClient) appendList(ctx context.Context, batch *rpc.ResponseList) error {
	_, err := l.svc.Invoke(ctx, component.Message{Op: OpAppendLog, Payload: batch})
	return err
}
