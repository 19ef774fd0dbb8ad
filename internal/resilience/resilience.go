// Package resilience implements the Resilience Management Service: it
// owns the system's (FT, A, R) model, checks the deployed FTM's
// consistency against it, maps adaptation triggers onto the Figure 8
// scenario graph, and drives the Adaptation Engine — automatically for
// mandatory transitions, through the system manager (man-in-the-loop)
// for possible ones. The mandatory/possible asymmetry plus the manager
// gate is what prevents FTM oscillation (§5.4).
//
// It is the one path from a measured signal to a transition: health
// verdicts and SLO pages are monitor probes whose rules fire triggers
// into Sink, and one Service runs per replica group.
package resilience

import (
	"context"
	"fmt"
	"sync"
	"time"

	"resilientft/internal/core"
	"resilientft/internal/monitor"
	"resilientft/internal/rpc"
	"resilientft/internal/telemetry"
)

// SystemManager is the man-in-the-loop deciding whether to execute a
// possible (non-mandatory) transition.
type SystemManager interface {
	// ApprovePossible is consulted before executing a possible
	// transition.
	ApprovePossible(edge core.ScenarioEdge) bool
}

// AutoApprove approves every possible transition (fully autonomous
// operation).
type AutoApprove struct{}

// ApprovePossible always returns true.
func (AutoApprove) ApprovePossible(core.ScenarioEdge) bool { return true }

// Conservative declines every possible transition (only mandatory
// transitions execute).
type Conservative struct{}

// ApprovePossible always returns false.
func (Conservative) ApprovePossible(core.ScenarioEdge) bool { return false }

// ManagerFunc adapts a function to the SystemManager interface.
type ManagerFunc func(edge core.ScenarioEdge) bool

// ApprovePossible calls the function.
func (f ManagerFunc) ApprovePossible(edge core.ScenarioEdge) bool { return f(edge) }

// Action classifies the outcome of handling one trigger.
type Action string

// Actions.
const (
	// ActionTransition reports an executed inter-FTM transition.
	ActionTransition Action = "transition-executed"
	// ActionDeclined reports a possible transition the manager declined.
	ActionDeclined Action = "possible-declined"
	// ActionIntra reports an intra-FTM reconfiguration.
	ActionIntra Action = "intra-ftm"
	// ActionNone reports a trigger with no matching scenario edge.
	ActionNone Action = "no-edge"
	// ActionDeadEnd reports a transition into the no-generic-solution
	// state: the application runs unprotected until characteristics
	// change.
	ActionDeadEnd Action = "no-generic-solution"
	// ActionFailed reports a transition that failed to execute.
	ActionFailed Action = "transition-failed"
)

// sourceManual attributes a decision to a direct HandleTrigger call
// rather than to a monitor rule.
const sourceManual = "manual"

// Decision records how one trigger was handled.
type Decision struct {
	Trigger core.Trigger
	// Source is the monitor rule that fired the trigger, or "manual"
	// for a direct HandleTrigger call.
	Source  string
	From    core.ScenState
	Edge    *core.ScenarioEdge
	Action  Action
	FromFTM core.ID
	ToFTM   core.ID
	// Inconsistencies lists (FT, A, R) violations of the FTM deployed
	// after handling the trigger (empty when consistent).
	Inconsistencies []core.Inconsistency
	Err             error
	At              time.Time
}

// String renders the decision.
func (d Decision) String() string {
	s := fmt.Sprintf("%s @ %s: %s", d.Trigger, d.From, d.Action)
	if d.Action == ActionTransition {
		s += fmt.Sprintf(" (%s -> %s)", d.FromFTM, d.ToFTM)
	}
	if d.Err != nil {
		s += " error: " + d.Err.Error()
	}
	return s
}

// Config assembles a resilience service.
type Config struct {
	// Group is the replica group the service adapts.
	Group Group
	// FaultModel is the initially required fault model.
	FaultModel core.FaultModel
	// Traits are the application's initial characteristics.
	Traits core.AppTraits
	// Resources is the initial resource state.
	Resources core.ResourceState
	// Thresholds partition the resource state (defaults apply when
	// zero).
	Thresholds core.Thresholds
	// Manager is the man-in-the-loop (Conservative when nil).
	Manager SystemManager
}

// Service is the Resilience Management Service.
type Service struct {
	mu        sync.Mutex
	group     Group
	ft        core.FaultModel
	traits    core.AppTraits
	res       core.ResourceState
	th        core.Thresholds
	manager   SystemManager
	decisions []Decision
	// deadEnd marks the no-generic-solution state: no FTM is deployed
	// conceptually (the last one remains attached but is known-invalid).
	deadEnd bool
}

// New returns a resilience service.
func New(cfg Config) *Service {
	if cfg.Manager == nil {
		cfg.Manager = Conservative{}
	}
	if cfg.Thresholds == (core.Thresholds{}) {
		cfg.Thresholds = core.DefaultThresholds()
	}
	if cfg.Resources.Hosts == 0 {
		cfg.Resources = core.ResourceState{BandwidthKbps: 10_000, CPUFree: 0.9, Energy: 1, Hosts: 2}
	}
	return &Service{
		group:   cfg.Group,
		ft:      cfg.FaultModel,
		traits:  cfg.Traits,
		res:     cfg.Resources,
		th:      cfg.Thresholds,
		manager: cfg.Manager,
	}
}

// Sink returns the monitoring engine's sink: each fired trigger is
// handled with its rule as the decision's source, and a failed
// transition is reported back so the rule fires again on the next poll.
func (s *Service) Sink() monitor.Sink {
	return func(rule string, t core.Trigger) bool {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return s.handle(ctx, rule, t).Action != ActionFailed
	}
}

// Decisions returns the decision log.
func (s *Service) Decisions() []Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Decision(nil), s.decisions...)
}

// Model returns the service's current (FT, A, R) view.
func (s *Service) Model() (core.FaultModel, core.AppTraits, core.ResourceState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ft, s.traits, s.res
}

// SetResources replaces the resource view (called by monitoring glue
// that knows actual values; triggers alone apply default magnitudes).
func (s *Service) SetResources(r core.ResourceState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.res = r
}

// CheckConsistency validates the deployed FTM against the current
// (FT, A, R) model.
func (s *Service) CheckConsistency() ([]core.Inconsistency, error) {
	id, err := s.group.FTM()
	if err != nil {
		return nil, err
	}
	desc, err := core.Lookup(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	ft, traits, res, th := s.ft, s.traits, s.res, s.th
	s.mu.Unlock()
	return core.Validate(desc, ft, traits, res, th), nil
}

// applyTrigger folds a trigger's semantics into the (FT, A, R) model.
// R triggers apply representative magnitudes; callers with exact values
// use SetResources first.
func (s *Service) applyTrigger(t core.Trigger) {
	switch t {
	case core.TrigBandwidthDrop:
		if s.res.BandwidthKbps >= s.th.LowBandwidthKbps {
			s.res.BandwidthKbps = s.th.LowBandwidthKbps / 2
		}
	case core.TrigBandwidthIncrease:
		if s.res.BandwidthKbps < s.th.LowBandwidthKbps {
			s.res.BandwidthKbps = s.th.LowBandwidthKbps * 5
		}
	case core.TrigCPUDrop:
		if s.res.CPUFree >= s.th.LowCPUFree {
			s.res.CPUFree = s.th.LowCPUFree / 2
		}
	case core.TrigCPUIncrease:
		if s.res.CPUFree < 0.9 {
			s.res.CPUFree = 0.9
		}
	case core.TrigStateAccessLoss:
		s.traits.StateAccess = false
	case core.TrigStateAccess:
		s.traits.StateAccess = true
	case core.TrigAppDeterminism:
		s.traits.Deterministic = true
	case core.TrigAppNonDeterminism:
		s.traits.Deterministic = false
	case core.TrigHardwareAging:
		s.ft = s.ft.With(core.FaultTransientValue)
	case core.TrigHardwareReplaced:
		s.ft = s.ft.Without(core.FaultTransientValue)
	case core.TrigCriticalPhase:
		s.ft = s.ft.With(core.FaultTransientValue, core.FaultPermanentValue)
	case core.TrigLessCriticalPhase:
		s.ft = s.ft.Without(core.FaultPermanentValue)
	}
}

// HandleTrigger processes one adaptation trigger: it updates the
// (FT, A, R) model, resolves the Figure 8 edge for the current state,
// and executes or declines the corresponding transition.
func (s *Service) HandleTrigger(ctx context.Context, trigger core.Trigger) Decision {
	return s.handle(ctx, sourceManual, trigger)
}

// handle decides one trigger and records the decision: in the log, on
// adaptation_decision_total{source,shard,decision}, and as one
// adaptation/decision trace event.
func (s *Service) handle(ctx context.Context, source string, trigger core.Trigger) Decision {
	d := s.decide(ctx, Decision{Trigger: trigger, Source: source, At: time.Now()})
	shard := rpc.ShardLabel(s.group.Shard())
	telemetry.Default().Counter("adaptation_decision_total",
		"source", source, "shard", shard, "decision", string(d.Action)).Inc()
	telemetry.Emit("adaptation", "decision", 0,
		"trigger", string(trigger), "source", source, "shard", shard,
		"from", string(d.FromFTM), "to", string(d.ToFTM), "decision", string(d.Action))
	s.mu.Lock()
	s.decisions = append(s.decisions, d)
	s.mu.Unlock()
	return d
}

func (s *Service) decide(ctx context.Context, d Decision) Decision {
	id, err := s.group.FTM()
	s.mu.Lock()
	var state core.ScenState
	if s.deadEnd {
		state = core.StNone
	} else {
		if err != nil {
			s.mu.Unlock()
			d.Err, d.Action = err, ActionFailed
			return d
		}
		d.FromFTM = id
		st, err := core.StateFor(id, s.traits)
		if err != nil {
			s.mu.Unlock()
			d.Err, d.Action = err, ActionFailed
			return d
		}
		state = st
	}
	d.From = state
	s.applyTrigger(d.Trigger)
	traits := s.traits

	edges := core.Outgoing(state, d.Trigger)
	var chosen *core.ScenarioEdge
	var intra *core.ScenarioEdge
	for i := range edges {
		e := edges[i]
		switch e.Kind {
		case core.Mandatory, core.Possible:
			if chosen == nil {
				chosen = &e
			}
		case core.Intra:
			intra = &e
		}
	}
	manager := s.manager
	s.mu.Unlock()

	switch {
	case chosen == nil && intra == nil:
		d.Action = ActionNone
	case chosen == nil:
		d.Edge = intra
		d.Action = ActionIntra
	default:
		d.Edge = chosen
		if chosen.Kind == core.Possible && !manager.ApprovePossible(*chosen) {
			// Declined: fall back to the intra-FTM edge when one exists.
			if intra != nil {
				d.Edge = intra
				d.Action = ActionIntra
			} else {
				d.Action = ActionDeclined
			}
		} else {
			d = s.executeEdge(ctx, d, *chosen, traits)
		}
	}

	if inc, err := s.CheckConsistency(); err == nil {
		d.Inconsistencies = inc
	}
	return d
}

// executeEdge runs the transition an edge prescribes.
func (s *Service) executeEdge(ctx context.Context, d Decision, edge core.ScenarioEdge, traits core.AppTraits) Decision {
	if edge.To == core.StNone {
		s.mu.Lock()
		s.deadEnd = true
		s.mu.Unlock()
		d.Action = ActionDeadEnd
		return d
	}
	target, err := core.FTMFor(edge.To, traits)
	if err != nil {
		d.Action = ActionFailed
		d.Err = err
		return d
	}
	d.ToFTM = target
	if target == d.FromFTM && !s.isDeadEnd() {
		d.Action = ActionIntra
		return d
	}
	if err := s.group.Transition(ctx, target); err != nil {
		d.Action = ActionFailed
		d.Err = err
		return d
	}
	s.mu.Lock()
	s.deadEnd = false
	s.mu.Unlock()
	d.Action = ActionTransition
	return d
}

func (s *Service) isDeadEnd() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deadEnd
}
