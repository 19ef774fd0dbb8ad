package ftm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"resilientft/internal/component"
	"resilientft/internal/core"
	"resilientft/internal/fscript"
	"resilientft/internal/host"
	"resilientft/internal/rpc"
	"resilientft/internal/stablestore"
	"resilientft/internal/telemetry"
	"resilientft/internal/transport"
)

// Replica is one half of a fault-tolerant application: an FTM composite
// deployed on a host, the transport glue routing client and inter-replica
// traffic into it, and the failover logic (promotion on peer loss,
// fail-silence on persistent assertion failures).
type Replica struct {
	h    *host.Host
	path string

	mu        sync.Mutex
	cfg       ReplicaConfig
	promoting bool
	// masterSince orders competing masters for split-brain resolution:
	// the younger mastership yields.
	masterSince time.Time
	events      []string
	onEvent     func(string)

	// reconfigMu serializes architecture reconfigurations: an adaptation
	// transition and a failover promotion must not interleave on the
	// same composite.
	reconfigMu sync.Mutex

	// shardRequests and shardReplicaMsgs are the shard-labeled traffic
	// series, resolved once at deployment; nil outside sharded
	// deployments so the unsharded hot path pays nothing.
	shardRequests    *telemetry.Counter
	shardReplicaMsgs *telemetry.Counter

	// boundaryMu guards the resolved boundary-service cache. The cached
	// endpoints re-resolve promotions and respect the composite gate on
	// every call, so they stay valid across brick swaps; the cache is
	// keyed on the runtime so a host restart invalidates it.
	boundaryMu  sync.RWMutex
	boundaryRT  *component.Runtime
	boundarySvc map[string]component.Service
}

// LockReconfig acquires the replica's reconfiguration lock and returns
// the unlock function. The adaptation engine and the promotion path both
// hold it across their stop-script-start sequence.
func (r *Replica) LockReconfig() func() {
	r.reconfigMu.Lock()
	return r.reconfigMu.Unlock
}

// ReplicaOption configures a Replica.
type ReplicaOption func(*Replica)

// WithEventHook registers a callback receiving replica life-cycle events
// (promotions, fail-silence, degraded mode), useful in tests and demos.
func WithEventHook(f func(string)) ReplicaOption {
	return func(r *Replica) { r.onEvent = f }
}

var _ Control = (*Replica)(nil)

// NewReplica deploys cfg's FTM on h and wires the host's transport into
// the composite. The replica commits its configuration to the host's
// stable store.
func NewReplica(ctx context.Context, h *host.Host, cfg ReplicaConfig, opts ...ReplicaOption) (*Replica, error) {
	r := &Replica{h: h, cfg: cfg}
	if cfg.Role == core.RoleMaster {
		r.masterSince = time.Now()
	}
	if cfg.Group != "" {
		r.shardRequests = telemetry.Default().Counter("ftm_shard_requests_total", "shard", cfg.Group)
		r.shardReplicaMsgs = telemetry.Default().Counter("ftm_shard_replica_msgs_total", "shard", cfg.Group)
	}
	for _, o := range opts {
		o(r)
	}
	path, err := DeployFTM(ctx, h, cfg, r)
	if err != nil {
		return nil, err
	}
	r.path = path
	r.registerTransport()
	if err := r.commitConfig(); err != nil {
		return nil, err
	}
	r.event(fmt.Sprintf("deployed %s as %s", cfg.FTM, cfg.Role))
	return r, nil
}

func (r *Replica) event(s string) {
	r.mu.Lock()
	r.events = append(r.events, s)
	hook := r.onEvent
	system := r.cfg.System
	r.mu.Unlock()
	telemetry.Emit("replica", s, 0, "host", r.h.Name(), "system", system)
	if hook != nil {
		hook(s)
	}
}

// Events returns the replica's life-cycle event log.
func (r *Replica) Events() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.events...)
}

// Host returns the replica's host.
func (r *Replica) Host() *host.Host { return r.h }

// Path returns the FTM composite path on the host runtime.
func (r *Replica) Path() string { return r.path }

// System returns the protected application's name.
func (r *Replica) System() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg.System
}

// Group returns the replica group (shard) ID, empty in unsharded
// deployments.
func (r *Replica) Group() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg.Group
}

// FTM returns the currently deployed mechanism.
func (r *Replica) FTM() core.ID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg.FTM
}

// SetFTM records the mechanism after a committed transition (called by
// the adaptation engine).
func (r *Replica) SetFTM(id core.ID) {
	r.mu.Lock()
	r.cfg.FTM = id
	r.mu.Unlock()
	if err := r.commitConfig(); err != nil {
		r.event(fmt.Sprintf("stable-store commit failed: %v", err))
	}
}

// Role returns the replica's current role.
func (r *Replica) Role() core.Role {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg.Role
}

// App returns the protected application instance.
func (r *Replica) App() Application {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg.App
}

// commitConfig records the active configuration in stable storage — the
// recovery-of-adaptation anchor (§5.3).
func (r *Replica) commitConfig() error {
	r.mu.Lock()
	rec := stablestore.ConfigRecord{
		System:    r.cfg.System,
		FTM:       string(r.cfg.FTM),
		Committed: time.Now(),
	}
	r.mu.Unlock()
	if cur, ok, err := r.h.Store().Current(rec.System); err == nil && ok {
		rec.Version = cur.Version + 1
	} else {
		rec.Version = 1
	}
	return r.h.Store().Commit(rec)
}

// registerTransport routes the host endpoint's traffic into the
// composite's promoted boundary services, through the endpoint's group
// mux so several replica groups can share one endpoint.
func (r *Replica) registerTransport() {
	joinMux(r.h.Endpoint(), r)
}

// serveRequest handles one client request dispatched to this replica.
func (r *Replica) serveRequest(ctx context.Context, req *rpc.Request) (resp rpc.Response) {
	// A panic anywhere in the pipeline is an incident: persist the
	// flight-recorder window (the last moments before the crash) and
	// degrade to an unavailability reply instead of taking down the
	// whole process.
	defer func() {
		if rec := recover(); rec != nil {
			telemetry.DumpBlackBox("panic",
				"panic", fmt.Sprint(rec), "req", req.ID(), "host", r.h.Name())
			resp = rpc.Response{ClientID: req.ClientID, Seq: req.Seq,
				Status: rpc.StatusUnavailable, Err: fmt.Sprintf("ftm: panic: %v", rec)}
		}
	}()
	if r.shardRequests != nil {
		r.shardRequests.Inc()
	}
	svc, err := r.boundary(SvcRequest)
	if err != nil {
		return rpc.Response{ClientID: req.ClientID, Seq: req.Seq,
			Status: rpc.StatusUnavailable, Err: err.Error()}
	}
	// The carrier crosses the component boundary by pointer: one
	// pooled object carries the request in and the response out,
	// where boxing a Request and a Response into interface payloads
	// allocated twice per request.
	car := getReqCarrier()
	car.Req = *req
	reply, err := svc.Invoke(ctx, component.Message{Op: "request", Payload: car})
	if err != nil {
		putReqCarrier(car)
		return rpc.Response{ClientID: req.ClientID, Seq: req.Seq,
			Status: rpc.StatusUnavailable, Err: err.Error()}
	}
	if rc, ok := reply.Payload.(*reqCarrier); ok && rc == car {
		resp = car.Resp
		putReqCarrier(car)
		return resp
	}
	putReqCarrier(car)
	return rpc.Response{ClientID: req.ClientID, Seq: req.Seq,
		Status: rpc.StatusUnavailable, Err: "ftm: bad reply payload"}
}

// serveReplica handles one decoded inter-replica message dispatched to
// this replica.
func (r *Replica) serveReplica(ctx context.Context, env *replicaEnvelope) (data []byte, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			telemetry.DumpBlackBox("panic",
				"panic", fmt.Sprint(rec), "host", r.h.Name())
			data, err = nil, fmt.Errorf("ftm: panic: %v", rec)
		}
	}()
	svc, err := r.boundary(SvcReplica)
	if err != nil {
		return nil, err
	}
	if r.shardReplicaMsgs != nil {
		r.shardReplicaMsgs.Inc()
	}
	msg := component.Message{Op: env.Kind, Payload: env.Payload}
	// The slave-side apply span: parented on the master's ship span
	// (carried by the envelope trailer), it covers decode-to-reply of
	// one inter-replica message, and its context rides the component
	// message so the protocol's brick work nests under it.
	sp := telemetry.DefaultSpans().Start(env.Trace, "ftm.replica.apply")
	if sp != nil {
		sp.SetAttr("kind", env.Kind)
		sp.SetAttr("from", env.From)
		msg = msg.WithMeta(MetaTrace, sp.Context().String())
		defer sp.End()
	}
	reply, err := svc.Invoke(ctx, msg)
	if err != nil {
		sp.SetAttr("outcome", "error")
		return nil, err
	}
	data, _ = reply.Payload.([]byte)
	return data, nil
}

// boundary resolves a promoted boundary service of the FTM composite,
// caching the resolved endpoint so the per-request path skips the
// path walk. Safe because the endpoint re-resolves the promotion and
// enters the composite gate on every invocation.
func (r *Replica) boundary(service string) (component.Service, error) {
	rt := r.h.Runtime()
	if rt == nil {
		return nil, host.ErrCrashed
	}
	r.boundaryMu.RLock()
	svc, ok := r.boundarySvc[service]
	hit := ok && r.boundaryRT == rt
	r.boundaryMu.RUnlock()
	if hit {
		return svc, nil
	}
	cp, err := rt.LookupComposite(r.path)
	if err != nil {
		return nil, err
	}
	svc, err = cp.ServiceEndpoint(service)
	if err != nil {
		return nil, err
	}
	r.boundaryMu.Lock()
	if r.boundaryRT != rt {
		r.boundarySvc = make(map[string]component.Service)
		r.boundaryRT = rt
	}
	r.boundarySvc[service] = svc
	r.boundaryMu.Unlock()
	return svc, nil
}

// AttachMetrics installs an invocation-metrics interceptor on the
// replica's server component and returns the collector — the
// membrane-level load observation the Monitoring Engine's R probes feed
// on. Attaching twice returns an error from the duplicate interceptor.
func (r *Replica) AttachMetrics() (*component.InvocationMetrics, error) {
	rt := r.h.Runtime()
	if rt == nil {
		return nil, host.ErrCrashed
	}
	server, err := rt.Lookup(r.path + "/" + NameServer)
	if err != nil {
		return nil, err
	}
	metrics := component.NewInvocationMetrics()
	if err := server.AddInterceptor(metrics.Interceptor("metrics")); err != nil {
		return nil, err
	}
	return metrics, nil
}

// CurrentScheme reads the live variable-feature composition from the
// architecture (introspection, not bookkeeping).
func (r *Replica) CurrentScheme() (core.Scheme, error) {
	rt := r.h.Runtime()
	if rt == nil {
		return core.Scheme{}, host.ErrCrashed
	}
	var scheme core.Scheme
	for slot, dst := range map[string]*string{
		core.SlotBefore:  &scheme.Before,
		core.SlotProceed: &scheme.Proceed,
		core.SlotAfter:   &scheme.After,
	} {
		c, err := rt.Lookup(r.path + "/" + slot)
		if err != nil {
			return core.Scheme{}, err
		}
		*dst = c.Type()
	}
	return scheme, nil
}

// --- Control callbacks ---------------------------------------------------

// OnPeerChange reacts to failure-detector transitions: a slave promotes
// itself when the master goes silent (the duplex recovery action). The
// promotion runs before OnPeerChange returns, and the host delivers the
// edge to its groups one at a time, so co-hosted groups promote one
// after another rather than all at once on one runtime.
func (r *Replica) OnPeerChange(suspected bool) {
	if suspected {
		mPeerSuspected.Inc()
		// Snapshot the pre-incident window now, before failover churn
		// overwrites it: this black box is what a post-mortem reads to see
		// the moments leading up to the suspicion.
		telemetry.DumpBlackBox("peer-suspected", "host", r.h.Name(), "system", r.System())
	} else {
		mPeerRestored.Inc()
	}
	r.mu.Lock()
	role := r.cfg.Role
	r.mu.Unlock()
	if suspected && role == core.RoleSlave {
		r.event("peer suspected: promoting")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := r.Promote(ctx); err != nil {
			r.event(fmt.Sprintf("promotion failed: %v", err))
		}
		return
	}
	if suspected {
		r.event("peer suspected: continuing master-alone")
		return
	}
	r.event("peer restored")
	if role == core.RoleMaster {
		// The restored peer may also believe it is master (a spurious
		// promotion during a heartbeat hiccup): resolve the split brain.
		go r.resolveSplitBrain()
	}
}

// resolveSplitBrain queries the peer's role; when both replicas are
// master, the younger mastership (ties broken by host name) demotes
// itself back to slave.
func (r *Replica) resolveSplitBrain() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	r.mu.Lock()
	peer := r.cfg.Peer
	mySince := r.masterSince
	r.mu.Unlock()
	if peer == "" {
		return
	}
	env := replicaEnvelope{Kind: MsgRoleQuery, From: string(r.h.Addr()), System: r.System(), Group: r.Group()}
	data, err := transport.Encode(env)
	if err != nil {
		return
	}
	reply, err := r.h.Endpoint().Call(ctx, peer, KindReplica, data)
	if err != nil {
		return // peer unreachable again; the detector owns that case
	}
	var info roleInfo
	if err := transport.Decode(reply, &info); err != nil {
		return
	}
	if core.Role(info.Role) != core.RoleMaster || r.Role() != core.RoleMaster {
		return
	}
	peerSince := time.Unix(0, info.MasterSinceNano)
	yieldToPeer := peerSince.Before(mySince) ||
		(peerSince.Equal(mySince) && string(peer) < r.h.Name())
	if !yieldToPeer {
		return
	}
	r.event("split brain detected: demoting (younger mastership)")
	// Demote only the mastership this verdict judged: the resolver runs
	// asynchronously and may lose the reconfiguration lock to a
	// crash-driven re-promotion — deposing that newer, legitimate
	// master on a stale verdict would leave the pair masterless.
	if err := r.demoteIf(ctx, mySince); err != nil {
		r.event(fmt.Sprintf("demotion failed: %v", err))
	}
	// The role reply is out-of-band proof the peer is alive, but the
	// host's watchdog may still be holding an unrecovered suspicion of it
	// (a partition that healed faster than a heartbeat round). Every
	// recovery path downstream of the detector is edge-triggered, so a
	// slave whose detector is stuck suspected would never promote when
	// the peer later really dies — re-arm the verdict now that liveness
	// is proven.
	if wd := r.h.Watchdog(peer); wd != nil {
		wd.Reset()
	}
}

// Demote switches a master back to slave through the same differential
// machinery as Promote, then resynchronizes from the surviving master
// when the mechanism supports state transfer.
func (r *Replica) Demote(ctx context.Context) error {
	return r.demoteIf(ctx, time.Time{})
}

// demoteIf demotes the replica when since is zero or still names the
// current mastership epoch. masterSince only changes under a completed
// Promote, so a caller that snapshots it and passes it here can never
// demote a mastership minted after its decision.
func (r *Replica) demoteIf(ctx context.Context, since time.Time) error {
	unlock := r.LockReconfig()
	defer unlock()
	r.mu.Lock()
	if r.cfg.Role != core.RoleMaster || (!since.IsZero() && !r.masterSince.Equal(since)) {
		r.mu.Unlock()
		return nil
	}
	ftmID := r.cfg.FTM
	r.mu.Unlock()

	rt := r.h.Runtime()
	if rt == nil {
		return host.ErrCrashed
	}
	desc, err := core.Lookup(ftmID)
	if err != nil {
		return err
	}
	script, env, err := TransitionScript(r.path,
		desc.Scheme(core.RoleMaster), desc.Scheme(core.RoleSlave),
		RoleChangeStmt(r.path, core.RoleSlave))
	if err != nil {
		return err
	}
	if err := rt.Stop(ctx, r.path); err != nil {
		return err
	}
	if _, err := fscript.Execute(ctx, rt, script, env); err != nil {
		var serr *fscript.ScriptError
		if errors.As(err, &serr) && serr.RollbackErr != nil {
			r.event("demotion rollback failed: killing replica")
			r.h.Crash()
			return err
		}
		_ = rt.Start(ctx, r.path)
		return err
	}
	if err := rt.Start(ctx, r.path); err != nil {
		return err
	}
	r.mu.Lock()
	r.cfg.Role = core.RoleSlave
	r.mu.Unlock()
	mDemotions.Inc()
	r.event("demoted to slave")
	telemetry.DumpBlackBox("demoted", "host", r.h.Name(), "system", r.System())
	// Resynchronize unconditionally: the checkpoint pull rides the
	// protocol's fixed state and reply-log features, available under
	// every mechanism, and a demoted ex-master may hold divergent state
	// from its spurious mastership however the system replicates.
	if err := r.SyncFromPeer(ctx); err != nil {
		r.event(fmt.Sprintf("post-demotion sync failed: %v", err))
	}
	return nil
}

// OnAssertionPermanent makes the replica fall silent: its host computes
// wrong values persistently (permanent value fault), so the safe move is
// to crash and let the peer take over.
func (r *Replica) OnAssertionPermanent() {
	r.event("persistent assertion failures: failing silent")
	go func() {
		// Let the in-flight reply drain before the endpoint closes.
		time.Sleep(10 * time.Millisecond)
		r.h.Crash()
	}()
}

// --- Failover -------------------------------------------------------------

// Promote switches a slave to master through a differential intra-FTM
// reconfiguration: only the variable features whose master-role bricks
// differ are swapped; requests buffered at the composite boundary during
// the swap replay in the new configuration. A script failure applies the
// fail-silent policy (§5.3): the replica kills its host.
func (r *Replica) Promote(ctx context.Context) error {
	unlock := r.LockReconfig()
	defer unlock()
	r.mu.Lock()
	if r.cfg.Role == core.RoleMaster || r.promoting {
		r.mu.Unlock()
		return nil
	}
	r.promoting = true
	ftmID := r.cfg.FTM
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.promoting = false
		r.mu.Unlock()
	}()

	rt := r.h.Runtime()
	if rt == nil {
		return host.ErrCrashed
	}
	desc, err := core.Lookup(ftmID)
	if err != nil {
		return err
	}
	script, env, err := TransitionScript(r.path,
		desc.Scheme(core.RoleSlave), desc.Scheme(core.RoleMaster),
		RoleChangeStmt(r.path, core.RoleMaster))
	if err != nil {
		return err
	}

	if err := rt.Stop(ctx, r.path); err != nil {
		return err
	}
	if _, err := fscript.Execute(ctx, rt, script, env); err != nil {
		var serr *fscript.ScriptError
		if errors.As(err, &serr) && serr.RollbackErr != nil {
			// The architecture is inconsistent: enforce fail-silence.
			r.event("promotion rollback failed: killing replica")
			r.h.Crash()
			return err
		}
		_ = rt.Start(ctx, r.path) // rollback succeeded; reopen as slave
		return err
	}
	if err := rt.Start(ctx, r.path); err != nil {
		return err
	}
	r.mu.Lock()
	r.cfg.Role = core.RoleMaster
	r.masterSince = time.Now()
	r.mu.Unlock()
	mPromotions.Inc()
	r.event("promoted to master")
	telemetry.DumpBlackBox("promoted", "host", r.h.Name(), "system", r.System())
	// Proactively check for a live senior master: a promotion driven by
	// a false suspicion — an asymmetric partition or a skewed detector
	// clock silences the master in one direction only — creates a split
	// brain that used to persist until a heal re-fired the peer-restored
	// edge at the old master. Querying the peer right now bounds that
	// window to one round trip. Asynchronous because resolution may
	// demote, and the reconfiguration lock is still held here.
	go r.resolveSplitBrain()
	return nil
}

// SyncFromPeer pulls a full checkpoint from the live master and applies
// it — the state transfer a rejoining slave performs. It requires a
// checkpoint-capable configuration on both sides (state access on the
// master, a checkpoint-applying After locally or direct state/log
// access).
func (r *Replica) SyncFromPeer(ctx context.Context) error {
	rt := r.h.Runtime()
	if rt == nil {
		return host.ErrCrashed
	}
	peerComp, err := rt.Lookup(r.path + "/" + NamePeer)
	if err != nil {
		return fmt.Errorf("ftm: sync without a peer bridge: %w", err)
	}
	svc, err := peerComp.ServiceEndpoint(SvcSend)
	if err != nil {
		return err
	}
	data, err := (peerClient{svc: svc}).call(ctx, MsgPBRPull, nil)
	if err != nil {
		return fmt.Errorf("ftm: checkpoint pull: %w", err)
	}
	// Apply directly through the server and reply log services.
	server, err := rt.Lookup(r.path + "/" + NameServer)
	if err != nil {
		return err
	}
	stateSvc, err := server.ServiceEndpoint(SvcState)
	if err != nil {
		return err
	}
	logComp, err := rt.Lookup(r.path + "/" + NameReplyLog)
	if err != nil {
		return err
	}
	logSvc, err := logComp.ServiceEndpoint(SvcLog)
	if err != nil {
		return err
	}
	return applyCheckpoint(ctx, stateClient{svc: stateSvc}, logClient{svc: logSvc}, data)
}

// Kill crashes the replica's host (fail-silent).
func (r *Replica) Kill() {
	mKills.Inc()
	r.event("killed")
	r.h.Crash()
}
