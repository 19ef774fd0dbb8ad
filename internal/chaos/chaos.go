// Package chaos implements a deterministic, seedable adversary over the
// simulated transport and host layers: the chaos scenario engine of
// ROADMAP item 4. A scenario is a small program in a line-based DSL
// (see dsl.go) whose verbs compose the fault repertoire — asymmetric
// partitions, gray links, clock skew, slow/full stable storage, wire
// corruption, host churn during fscript transitions — against a live
// two-replica system, while a concurrent workload keeps writing.
//
// After every scenario the engine heals the world and audits it: the
// reply-release invariant (an acknowledged write survives and replays,
// never re-executes), exactly-once execution (the register's final value
// is the count of executed writes and every intermediate value was
// returned exactly once), and trace continuity (a redelivery joins the
// original request's trace). Each violation dumps a flight-recorder
// black box — the evidence format the monitoring layer already speaks.
//
// Everything is driven by one seed: the network's randomness, the
// scheduler's target choices and the corruption bits all derive from
// it, so a failing campaign run replays identically under the same
// seed — determinism is the debugging contract.
package chaos

import (
	"time"

	"resilientft/internal/core"
	"resilientft/internal/telemetry"
)

// Fault names one adversarial action class of the chaos vocabulary —
// the fault-injection counterpart of core.Trigger: where a Trigger
// names a legitimate parameter variation the adaptation layer reacts
// to, a Fault names an adversity the fault-tolerance layer must absorb.
type Fault string

// The fault repertoire.
const (
	// FaultPartition cuts a link in both directions.
	FaultPartition Fault = "partition"
	// FaultPartitionOneWay cuts a single direction — the canonical gray
	// failure shape (heartbeats arrive, deliveries vanish, or vice
	// versa).
	FaultPartitionOneWay Fault = "partition-oneway"
	// FaultGrayLink degrades a direction without cutting it: extra
	// latency, jitter, probabilistic loss.
	FaultGrayLink Fault = "gray-link"
	// FaultClockSkew shifts one host's failure-detection clock,
	// manufacturing false suspicion from healthy silence.
	FaultClockSkew Fault = "clock-skew"
	// FaultStoreSlow imposes latency on a host's stable store.
	FaultStoreSlow Fault = "store-slow"
	// FaultStoreFull makes a host's stable store reject commits.
	FaultStoreFull Fault = "store-full"
	// FaultCorruption flips bits in delivered payloads.
	FaultCorruption Fault = "corruption"
	// FaultGarbage throws malformed and boundary-sized frames at a
	// replica's endpoint.
	FaultGarbage Fault = "garbage"
	// FaultCrash fail-stops a host.
	FaultCrash Fault = "crash"
	// FaultRestart restarts a crashed host (recovery is adversity too:
	// the rejoin path runs under whatever else is broken).
	FaultRestart Fault = "restart"
	// FaultChurnTransition runs an FTM transition — the fscript window
	// other faults are aimed into.
	FaultChurnTransition Fault = "transition"
)

// Layer is the architectural layer a fault attacks.
type Layer string

// Attack surfaces.
const (
	LayerTransport  Layer = "transport"
	LayerDetector   Layer = "detector"
	LayerStore      Layer = "store"
	LayerHost       Layer = "host"
	LayerAdaptation Layer = "adaptation"
)

// FaultLayer maps a fault to the layer it attacks, the way
// core.TriggerClass maps triggers to parameter classes.
func FaultLayer(f Fault) Layer {
	switch f {
	case FaultPartition, FaultPartitionOneWay, FaultGrayLink, FaultCorruption, FaultGarbage:
		return LayerTransport
	case FaultClockSkew:
		return LayerDetector
	case FaultStoreSlow, FaultStoreFull:
		return LayerStore
	case FaultCrash, FaultRestart:
		return LayerHost
	case FaultChurnTransition:
		return LayerAdaptation
	default:
		return ""
	}
}

// Scenario is one adversarial program.
type Scenario struct {
	// Name identifies the scenario in reports and metrics.
	Name string `json:"name"`
	// Description says what the scenario attacks and what should hold.
	Description string `json:"description"`
	// FTM is the mechanism the system boots with (default core.PBR).
	FTM core.ID `json:"ftm,omitempty"`
	// Script is the DSL program (see dsl.go for the grammar).
	Script string `json:"script"`
}

// Options tunes a scenario run.
type Options struct {
	// Seed drives every random choice of the run (default 1).
	Seed int64
	// Clients is the number of concurrent workload writers (default 3);
	// one extra always-traced client rides along for the continuity
	// audit.
	Clients int
	// CallTimeout bounds each workload call attempt (default 200ms —
	// short, so chaos windows produce ambiguous outcomes instead of
	// stalling the load).
	CallTimeout time.Duration
	// MaxRounds bounds workload failover rounds per invoke (default 2).
	MaxRounds int
	// SettleTimeout bounds each settle/wait-master step (default 5s).
	SettleTimeout time.Duration
	// EventHook, when set, receives replica life-cycle events as the
	// scenario unfolds — diagnostics only, never part of the verdict.
	EventHook func(host, event string)
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Clients <= 0 {
		o.Clients = 3
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 200 * time.Millisecond
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 2
	}
	if o.SettleTimeout <= 0 {
		o.SettleTimeout = 5 * time.Second
	}
	return o
}

// Violation is one invariant breach found by the post-scenario audit.
type Violation struct {
	// Invariant names the broken contract: "reply-release",
	// "acked-stability", "exactly-once", "trace-continuity",
	// "sweep-delivery", "envelope", "settle".
	Invariant string `json:"invariant"`
	// Detail is the evidence.
	Detail string `json:"detail"`
}

// Verdict is the outcome of one scenario run.
type Verdict struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Pass     bool   `json:"pass"`
	// Violations lists every invariant breach (empty when Pass).
	Violations []Violation `json:"violations,omitempty"`
	// Schedule is the ordered log of resolved adversarial actions — two
	// runs with the same seed must produce identical schedules.
	Schedule []string `json:"schedule"`
	// Attempts/Acked/Failed count the workload: every attempt is swept
	// for the exactly-once audit whether or not it was acknowledged.
	Attempts int `json:"attempts"`
	Acked    int `json:"acked"`
	Failed   int `json:"failed"`
	// FinalValue is the chaos register's value after the sweep.
	FinalValue int64 `json:"final_value"`
	// Elapsed is wall-clock run time (excluded from determinism
	// comparisons).
	Elapsed time.Duration `json:"elapsed_ns"`
	// Boxes holds the black boxes dumped for this run's violations.
	Boxes []telemetry.BlackBox `json:"-"`
}
