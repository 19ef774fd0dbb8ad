package ftm

import (
	"context"
	"runtime"
	"sync"
	"time"

	"resilientft/internal/rpc"
	"resilientft/internal/telemetry"
)

// Group-commit replication support. Concurrent requests that reach a
// synchronizing After brick (the PBR checkpoint, the LFR commit
// notification) are grouped into commit waves: one member becomes the
// batch leader and ships a single synchronization message covering every
// member, and each member's reply is released only once a ship whose
// acknowledgement covers it completes — the same reply-release invariant
// the per-request path enforces, at a fraction of the message count.
// Deltas make this free for PBR: a delta is "the write-set since the
// last acknowledged version", so one capture taken after N replies were
// recorded covers all N requests.

// commitWave is one group of requests awaiting a covering ship. A wave
// accumulates members while it sits at the tail of the notifier's queue;
// detaching it closes it to new members.
type commitWave struct {
	members int
	// maxSeq is the highest client sequence number in the wave,
	// informational metadata on shipped checkpoints.
	maxSeq uint64
	// resps are the member replies a commit-style ship must carry (LFR);
	// checkpoint-style ships (PBR) leave it empty because the state
	// capture covers the reply log itself.
	resps []rpc.Response
	// traces are the sampled members' span contexts: the covering ship
	// records one "ftm.wave.cover" span under each, so every sampled
	// trace shows which ship released its reply (usually none — sampling
	// is the exception).
	traces []telemetry.SpanContext

	done    chan struct{} // closed once the covering ship completed
	outcome string        // "ok" or "degraded", valid after done
	err     error         // ship failure, valid after done
}

// resolved reports whether the wave's covering ship completed.
func (w *commitWave) resolved() bool {
	select {
	case <-w.done:
		return true
	default:
		return false
	}
}

// resolve publishes the ship outcome and releases every member.
func (w *commitWave) resolve(outcome string, err error) {
	w.outcome = outcome
	w.err = err
	close(w.done)
}

// waveNotifier coordinates wave membership and batch leadership. The
// leadership token (a buffered channel of capacity one) orders ships:
// whoever holds it captures and ships alone, so the ack bookkeeping a
// shipper maintains needs no further locking — the token handoff is the
// happens-before edge between successive leaders. The token lives on the
// notifier rather than on any wave, so a token released when no waiter
// was listening is simply claimed by the next request to arrive.
type waveNotifier struct {
	mu      sync.Mutex
	queue   []*commitWave // FIFO; the tail wave is open to new members
	maxWave int           // member cap per ship; <=0 means unbounded
	leadCh  chan struct{} // leadership token
}

func newWaveNotifier(maxWave int) *waveNotifier {
	n := &waveNotifier{maxWave: maxWave, leadCh: make(chan struct{}, 1)}
	n.leadCh <- struct{}{}
	return n
}

// join adds one request to the open wave, starting a new wave when none
// is open or the open one is full.
func (n *waveNotifier) join(seq uint64, resp *rpc.Response, trace telemetry.SpanContext) *commitWave {
	n.mu.Lock()
	defer n.mu.Unlock()
	var w *commitWave
	if len(n.queue) > 0 {
		tail := n.queue[len(n.queue)-1]
		if n.maxWave <= 0 || tail.members < n.maxWave {
			w = tail
		}
	}
	if w == nil {
		w = &commitWave{done: make(chan struct{})}
		n.queue = append(n.queue, w)
	}
	w.members++
	if seq > w.maxSeq {
		w.maxSeq = seq
	}
	if resp != nil {
		w.resps = append(w.resps, *resp)
	}
	if trace.Valid() {
		w.traces = append(w.traces, trace)
	}
	return w
}

// detach pops queued waves for one ship, oldest first, merging whole
// waves while the combined membership stays within maxWave (at least one
// wave is always taken, so progress never stalls). The detached waves
// are closed to new members; later joiners start a fresh wave behind
// them.
func (n *waveNotifier) detach() []*commitWave {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.queue) == 0 {
		return nil
	}
	taken := 1
	members := n.queue[0].members
	for taken < len(n.queue) {
		next := n.queue[taken]
		if n.maxWave > 0 && members+next.members > n.maxWave {
			break
		}
		members += next.members
		taken++
	}
	batch := n.queue[:taken:taken]
	n.queue = n.queue[taken:]
	return batch
}

// coverSpans records one "ftm.wave.cover" span under every sampled
// member trace of a shipped batch, so each trace shows the ship whose
// acknowledgement released its reply — including traces whose request
// was not the batch leader. Called by the ship closures after the ship
// completed; a batch with no sampled members (the common case) records
// nothing.
func coverSpans(batch []*commitWave, mech string, start time.Time, outcome string) {
	dur := time.Since(start)
	spans := telemetry.DefaultSpans()
	for _, w := range batch {
		for _, tr := range w.traces {
			spans.Add(tr, "ftm.wave.cover", start, dur, "ftm", mech, "outcome", outcome)
		}
	}
}

// release returns the leadership token. The channel is buffered, so the
// token parks there until the next contender claims it.
func (n *waveNotifier) release() {
	select {
	case n.leadCh <- struct{}{}:
	default: // token already parked; never block
	}
}

// ride blocks until a ship covering w completes, taking batch leadership
// whenever the token is free. A leader ships detached batches until its
// own wave is resolved, then hands the token on — no request ships on
// behalf of others forever.
func (n *waveNotifier) ride(ctx context.Context, w *commitWave, ship func([]*commitWave) (string, error)) (string, error) {
	for {
		select {
		case <-w.done:
			return w.outcome, w.err
		case <-ctx.Done():
			return "", ctx.Err()
		case <-n.leadCh:
			// One yield before detaching: concurrent requests that are
			// already runnable (or woken by the previous ship) get a
			// scheduler pass to reach join. This is what makes waves fill
			// on few-core hosts, where the scheduler's wake-chaining would
			// otherwise run one request to completion before starting the
			// next. The yield is paid once per ship, not per request.
			runtime.Gosched()
			for !w.resolved() {
				batch := n.detach()
				if len(batch) == 0 {
					break
				}
				outcome, err := ship(batch)
				for _, b := range batch {
					b.resolve(outcome, err)
				}
			}
			n.release()
			if w.resolved() {
				return w.outcome, w.err
			}
		}
	}
}
