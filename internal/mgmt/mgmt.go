// Package mgmt is the management-plane protocol spoken between the
// resilientd daemon and the ftmctl tool: replica status introspection,
// remotely requested differential transitions, and application
// invocations for smoke-testing a deployment. A daemon hosting several
// replica groups (shards) serves them all from one endpoint; requests
// carry an optional group ID to address one shard.
package mgmt

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"

	"resilientft/internal/adaptation"
	"resilientft/internal/core"
	"resilientft/internal/ftm"
	"resilientft/internal/rpc"
	"resilientft/internal/telemetry"
	"resilientft/internal/transport"
)

// Kind is the transport message kind of management traffic.
const Kind = "mgmt"

// Ops.
const (
	OpStatus     = "status"
	OpTransition = "transition"
	OpDescribe   = "describe"
	OpMetrics    = "metrics"
	OpEvents     = "events"
	OpTrace      = "trace"
	OpBlackbox   = "blackbox"
	OpHealth     = "health"
	OpShards     = "shards"
	OpSLO        = "slo"
)

// SLOReporter is the slice of the SLO engine the management plane
// serves: the full per-shard report as JSON (OpSLO) and a shard's
// one-word grade (the SLO column of OpShards). *slo.Engine implements
// it; the indirection keeps mgmt decoupled from slo's types.
type SLOReporter interface {
	ReportJSON() ([]byte, error)
	ShardGrade(shard string) (string, bool)
}

// Request is a management command.
type Request struct {
	Op string
	// Group addresses one replica group on a sharded daemon; empty
	// reaches the daemon's sole replica (the unsharded shape).
	Group string
	// To is the target FTM of a transition.
	To string
	// Trace is the trace id an OpTrace request asks for, in the %016x
	// form the tools print.
	Trace string
	// SinceSeq and EventKind filter an OpEvents request (zero/empty:
	// everything retained).
	SinceSeq  uint64
	EventKind string
}

// Status reports a replica's state.
type Status struct {
	System string
	Group  string
	Host   string
	FTM    string
	Role   string
	Scheme core.Scheme
	Events []string
}

// ShardStatus is one row of an OpShards reply: a replica group's
// identity and a condensed view of its state.
type ShardStatus struct {
	Group  string
	System string
	Host   string
	FTM    string
	Role   string
	Health string
	// SLO is the shard's current objective grade (ok/warn/page), empty
	// on daemons running without an SLO engine.
	SLO string
}

// TransitionOutcome reports a remotely requested transition.
type TransitionOutcome struct {
	From, To string
	Replaced []string
	DeployUS int64
	ScriptUS int64
	RemoveUS int64
	Err      string
}

// reply is the wire envelope of every management response.
type reply struct {
	Status     *Status
	Transition *TransitionOutcome
	Describe   string
	// Metrics carries the daemon's telemetry registry in the Prometheus
	// text exposition format.
	Metrics string
	// Events carries the daemon's retained trace events (OpEvents).
	Events []telemetry.Event
	// Trace and Boxes carry pre-marshaled JSON (the same documents the
	// daemon's HTTP /trace/{id} and /blackbox routes serve), so the tool
	// side prints them without re-encoding.
	Trace string
	Boxes string
	// Health carries the host's graded health report pre-marshaled as
	// JSON (the same document the daemon's HTTP /health route serves).
	Health string
	// SLO carries the per-shard SLO report pre-marshaled as JSON (the
	// same document the daemon's HTTP /slo route serves).
	SLO string
	// Shards carries the per-group roster of a sharded daemon.
	Shards []ShardStatus
	Err    string
}

// served is one replica group under management.
type served struct {
	r      *ftm.Replica
	engine *adaptation.Engine
}

// Server answers management requests for every replica group
// registered on one endpoint. Replica-scoped ops resolve their target
// through the request's group stamp; process-scoped ops (metrics,
// events, traces, black boxes) ignore it — those stores are shared.
type Server struct {
	mu      sync.Mutex
	byGroup map[string]*served
	order   []*served
	slo     SLOReporter
	// promBuf is reused across OpMetrics renders so a metrics poll costs
	// one string copy, not a buffer regrowth per call (the same
	// render-once discipline OpHealth applies to its JSON document).
	promBuf bytes.Buffer
}

// NewServer installs a management handler on ep and returns the server
// to register replicas on.
func NewServer(ep transport.Endpoint) *Server {
	s := &Server{byGroup: make(map[string]*served)}
	ep.Handle(Kind, s.handle)
	return s
}

// Register adds a replica group; a same-group registration replaces the
// previous one. engine executes remotely requested transitions for this
// group's replica.
func (s *Server) Register(r *ftm.Replica, engine *adaptation.Engine) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := &served{r: r, engine: engine}
	if old, ok := s.byGroup[r.Group()]; ok {
		for i, ent := range s.order {
			if ent == old {
				s.order[i] = e
			}
		}
	} else {
		s.order = append(s.order, e)
	}
	s.byGroup[r.Group()] = e
}

// SetSLO wires the daemon's SLO engine into the server; OpSLO replies
// and the SLO column of OpShards stay empty until set.
func (s *Server) SetSLO(rep SLOReporter) {
	s.mu.Lock()
	s.slo = rep
	s.mu.Unlock()
}

// Serve installs a management handler serving the single replica r — the
// unsharded shape, kept for callers predating multi-group daemons.
func Serve(ep transport.Endpoint, r *ftm.Replica, engine *adaptation.Engine) {
	NewServer(ep).Register(r, engine)
}

// resolve picks the replica group a request addresses, mirroring the
// data plane's dispatch: an exact group match wins; an unstamped
// request reaches the sole group; a stamped request is also served by a
// sole group that declares no group ID (an unsharded daemon behind
// group-aware tooling).
func (s *Server) resolve(group string) *served {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.byGroup[group]; ok {
		return e
	}
	if len(s.order) == 1 {
		if sole := s.order[0]; group == "" || sole.r.Group() == "" {
			return sole
		}
	}
	return nil
}

func (s *Server) handle(ctx context.Context, p transport.Packet) ([]byte, error) {
	var req Request
	if err := transport.Decode(p.Payload, &req); err != nil {
		return nil, err
	}
	var out reply
	switch req.Op {
	// Process-scoped ops first: they read shared stores and need no
	// replica resolution.
	case OpMetrics:
		s.mu.Lock()
		s.promBuf.Reset()
		err := telemetry.Default().WritePrometheus(&s.promBuf)
		if err == nil {
			out.Metrics = s.promBuf.String()
		}
		s.mu.Unlock()
		if err != nil {
			out.Err = err.Error()
		}
	case OpEvents:
		events := telemetry.DefaultTracer().Since(req.SinceSeq)
		if req.EventKind != "" {
			filtered := events[:0]
			for _, e := range events {
				if e.Kind == req.EventKind {
					filtered = append(filtered, e)
				}
			}
			events = filtered
		}
		out.Events = events
	case OpTrace:
		id, err := strconv.ParseUint(req.Trace, 16, 64)
		if err != nil || id == 0 {
			out.Err = fmt.Sprintf("bad trace id %q (want 16 hex digits)", req.Trace)
			break
		}
		data, err := telemetry.MarshalTrace(id, telemetry.DefaultSpans().ForTrace(id))
		if err != nil {
			out.Err = err.Error()
			break
		}
		out.Trace = string(data)
	case OpBlackbox:
		data, err := telemetry.MarshalBlackBoxes(telemetry.DefaultFlightRecorder().Boxes())
		if err != nil {
			out.Err = err.Error()
			break
		}
		out.Boxes = string(data)
	case OpShards:
		s.mu.Lock()
		entries := append([]*served(nil), s.order...)
		rep := s.slo
		s.mu.Unlock()
		out.Shards = make([]ShardStatus, 0, len(entries))
		for _, e := range entries {
			row := ShardStatus{
				Group:  e.r.Group(),
				System: e.r.System(),
				Host:   e.r.Host().Name(),
				FTM:    string(e.r.FTM()),
				Role:   string(e.r.Role()),
			}
			if hm := e.r.Host().Health(); hm != nil {
				row.Health = hm.Report().Overall.String()
			}
			if rep != nil {
				if grade, ok := rep.ShardGrade(rpc.ShardLabel(e.r.Group())); ok {
					row.SLO = grade
				}
			}
			out.Shards = append(out.Shards, row)
		}
	case OpSLO:
		s.mu.Lock()
		rep := s.slo
		s.mu.Unlock()
		if rep == nil {
			out.Err = "no SLO engine on this daemon"
			break
		}
		data, err := rep.ReportJSON()
		if err != nil {
			out.Err = err.Error()
			break
		}
		out.SLO = string(data)
	default:
		e := s.resolve(req.Group)
		if e == nil {
			out.Err = fmt.Sprintf("no replica for group %q", req.Group)
			break
		}
		s.handleReplica(ctx, e, &req, &out)
	}
	return transport.Encode(out)
}

// handleReplica answers the replica-scoped ops against one group.
func (s *Server) handleReplica(ctx context.Context, e *served, req *Request, out *reply) {
	r := e.r
	switch req.Op {
	case OpStatus:
		scheme, err := r.CurrentScheme()
		if err != nil {
			out.Err = err.Error()
			break
		}
		out.Status = &Status{
			System: r.System(),
			Group:  r.Group(),
			Host:   r.Host().Name(),
			FTM:    string(r.FTM()),
			Role:   string(r.Role()),
			Scheme: scheme,
			Events: r.Events(),
		}
	case OpTransition:
		from := r.FTM()
		report := e.engine.TransitionReplica(ctx, r, core.ID(req.To))
		out.Transition = &TransitionOutcome{
			From:     string(from),
			To:       req.To,
			Replaced: report.Replaced,
			DeployUS: report.Steps.Deploy.Microseconds(),
			ScriptUS: report.Steps.Script.Microseconds(),
			RemoveUS: report.Steps.Remove.Microseconds(),
		}
		if report.Err != nil {
			out.Transition.Err = report.Err.Error()
		}
	case OpHealth:
		hm := r.Host().Health()
		// Run the collectors now: a health query deserves a fresh
		// measurement, not the last sweep's.
		hm.Check()
		data, err := json.Marshal(hm.Report())
		if err != nil {
			out.Err = err.Error()
			break
		}
		out.Health = string(data)
	case OpDescribe:
		rt := r.Host().Runtime()
		if rt == nil {
			out.Err = "host crashed"
			break
		}
		d, err := rt.Describe(r.Path())
		if err != nil {
			out.Err = err.Error()
			break
		}
		out.Describe = d.String()
	default:
		out.Err = fmt.Sprintf("unknown management op %q", req.Op)
	}
}

// call performs one management round-trip.
func call(ctx context.Context, ep transport.Endpoint, target transport.Address, req Request) (reply, error) {
	data, err := transport.Encode(req)
	if err != nil {
		return reply{}, err
	}
	callCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	respData, err := ep.Call(callCtx, target, Kind, data)
	if err != nil {
		return reply{}, err
	}
	var out reply
	if err := transport.Decode(respData, &out); err != nil {
		return reply{}, err
	}
	if out.Err != "" {
		return reply{}, fmt.Errorf("mgmt: %s", out.Err)
	}
	return out, nil
}

// QueryStatus fetches a replica's status. group addresses one shard of
// a multi-group daemon; empty reaches the sole replica.
func QueryStatus(ctx context.Context, ep transport.Endpoint, target transport.Address, group string) (Status, error) {
	out, err := call(ctx, ep, target, Request{Op: OpStatus, Group: group})
	if err != nil {
		return Status{}, err
	}
	if out.Status == nil {
		return Status{}, fmt.Errorf("mgmt: empty status reply")
	}
	return *out.Status, nil
}

// QueryShards fetches the roster of replica groups a daemon hosts.
func QueryShards(ctx context.Context, ep transport.Endpoint, target transport.Address) ([]ShardStatus, error) {
	out, err := call(ctx, ep, target, Request{Op: OpShards})
	if err != nil {
		return nil, err
	}
	return out.Shards, nil
}

// RequestTransition asks a replica to transition to another FTM.
func RequestTransition(ctx context.Context, ep transport.Endpoint, target transport.Address, group string, to core.ID) (TransitionOutcome, error) {
	out, err := call(ctx, ep, target, Request{Op: OpTransition, Group: group, To: string(to)})
	if err != nil {
		return TransitionOutcome{}, err
	}
	if out.Transition == nil {
		return TransitionOutcome{}, fmt.Errorf("mgmt: empty transition reply")
	}
	if out.Transition.Err != "" {
		return *out.Transition, fmt.Errorf("mgmt: transition failed: %s", out.Transition.Err)
	}
	return *out.Transition, nil
}

// QueryMetrics fetches a daemon's telemetry registry rendered as
// Prometheus text.
func QueryMetrics(ctx context.Context, ep transport.Endpoint, target transport.Address) (string, error) {
	out, err := call(ctx, ep, target, Request{Op: OpMetrics})
	if err != nil {
		return "", err
	}
	return out.Metrics, nil
}

// QueryEvents fetches a daemon's retained trace events, optionally
// filtered by kind and a sequence watermark.
func QueryEvents(ctx context.Context, ep transport.Endpoint, target transport.Address, kind string, since uint64) ([]telemetry.Event, error) {
	out, err := call(ctx, ep, target, Request{Op: OpEvents, EventKind: kind, SinceSeq: since})
	if err != nil {
		return nil, err
	}
	return out.Events, nil
}

// QueryTrace fetches one trace's retained spans as the JSON document the
// daemon's /trace/{id} route serves. traceID is the %016x form.
func QueryTrace(ctx context.Context, ep transport.Endpoint, target transport.Address, traceID string) (string, error) {
	out, err := call(ctx, ep, target, Request{Op: OpTrace, Trace: traceID})
	if err != nil {
		return "", err
	}
	return out.Trace, nil
}

// QueryBlackbox fetches a daemon's retained black boxes as JSON.
func QueryBlackbox(ctx context.Context, ep transport.Endpoint, target transport.Address) (string, error) {
	out, err := call(ctx, ep, target, Request{Op: OpBlackbox})
	if err != nil {
		return "", err
	}
	return out.Boxes, nil
}

// QueryHealth fetches a host's graded health report as the JSON
// document the daemon's /health route serves.
func QueryHealth(ctx context.Context, ep transport.Endpoint, target transport.Address, group string) (string, error) {
	out, err := call(ctx, ep, target, Request{Op: OpHealth, Group: group})
	if err != nil {
		return "", err
	}
	if out.Health == "" {
		return "", fmt.Errorf("mgmt: empty health reply")
	}
	return out.Health, nil
}

// QuerySLO fetches a daemon's per-shard SLO report as the JSON
// document the daemon's /slo route serves.
func QuerySLO(ctx context.Context, ep transport.Endpoint, target transport.Address) (string, error) {
	out, err := call(ctx, ep, target, Request{Op: OpSLO})
	if err != nil {
		return "", err
	}
	return out.SLO, nil
}

// QueryArchitecture fetches a replica's live component architecture.
func QueryArchitecture(ctx context.Context, ep transport.Endpoint, target transport.Address, group string) (string, error) {
	out, err := call(ctx, ep, target, Request{Op: OpDescribe, Group: group})
	if err != nil {
		return "", err
	}
	return out.Describe, nil
}
