// Package resilientft is a component-based adaptive fault tolerance
// library: a Go reproduction of "Architecting Resilient Computing
// Systems" (Stoicescu, Fabre, Roy — LAAS-CNRS; DSN 2011 / JSA 2017).
//
// Fault tolerance mechanisms (FTMs) are assembled from small components
// over a reflective runtime, following a generic Before-Proceed-After
// execution scheme. At runtime they are adapted differentially: a
// transition package (new bricks + a reconfiguration script) swaps only
// the variable features that changed, transactionally, while client
// requests buffer at the composite boundary.
//
// The package re-exports the library's public surface:
//
//   - building fault-tolerant systems (System, Replica, Client),
//   - the FTM catalogue and (FT, A, R) model (core),
//   - on-line adaptation (Engine, Repository, TransitionPackage),
//   - the resilience loop (Monitor, Resilience, SystemManager).
//
// Quickstart:
//
//	sys, _ := resilientft.NewSystem(ctx, resilientft.SystemConfig{
//		System: "calc",
//		FTM:    resilientft.PBR,
//	})
//	defer sys.Shutdown()
//	client, _ := sys.NewClient()
//	resp, _ := client.Invoke(ctx, "add:x", resilientft.EncodeArg(5))
//
// See examples/ for complete scenarios.
package resilientft

import (
	"context"

	"resilientft/internal/adaptation"
	"resilientft/internal/core"
	"resilientft/internal/ftm"
	"resilientft/internal/monitor"
	"resilientft/internal/resilience"
	"resilientft/internal/rpc"
	"resilientft/internal/transport"
)

// Core model types.
type (
	// FTM identifies a fault tolerance mechanism from the catalogue.
	FTM = core.ID
	// FaultModel is the FT parameter: the set of fault classes to
	// tolerate.
	FaultModel = core.FaultModel
	// AppTraits is the A parameter: application characteristics.
	AppTraits = core.AppTraits
	// ResourceState is the R parameter: available resources.
	ResourceState = core.ResourceState
	// Descriptor is an FTM catalogue entry (Table 1 + Table 2).
	Descriptor = core.Descriptor
	// Trigger is a named adaptation trigger.
	Trigger = core.Trigger
	// ScenarioEdge is one edge of the Figure 8 scenario graph.
	ScenarioEdge = core.ScenarioEdge
)

// The FTM catalogue.
const (
	// PBR is Primary-Backup Replication.
	PBR = core.PBR
	// LFR is Leader-Follower Replication.
	LFR = core.LFR
	// TR is single-host Time Redundancy.
	TR = core.TR
	// PBRTR composes PBR with time redundancy (PBR⊕TR).
	PBRTR = core.PBRTR
	// LFRTR composes LFR with time redundancy (LFR⊕TR).
	LFRTR = core.LFRTR
	// APBR composes an assertion-checked duplex over PBR (A&PBR).
	APBR = core.APBR
	// ALFR composes an assertion-checked duplex over LFR (A&LFR).
	ALFR = core.ALFR

	// Extension mechanisms beyond the paper's illustrative set (§3.2.1).

	// RBPBR is Recovery Blocks over PBR: diversified alternates behind an
	// updatable acceptance test (tolerates software faults).
	RBPBR = core.RBPBR
	// TMRT is temporal TMR: three executions and a replaceable decision
	// algorithm on one host.
	TMRT = core.TMRT
	// SemiActive is Delta-4-XPA-style semi-active replication: the leader
	// captures non-deterministic decisions, the follower replays them.
	SemiActive = core.SemiActive
)

// Fault classes.
const (
	// FaultCrash is a fail-silent node crash.
	FaultCrash = core.FaultCrash
	// FaultTransientValue is a transient value fault (bit flip).
	FaultTransientValue = core.FaultTransientValue
	// FaultPermanentValue is a permanent value fault (stuck-at host).
	FaultPermanentValue = core.FaultPermanentValue
)

// System assembly and applications.
type (
	// System is a running replicated fault-tolerant application (a
	// master and a slave).
	System = ftm.System
	// SystemConfig configures NewSystem.
	SystemConfig = ftm.SystemConfig
	// Replica is one half of a fault-tolerant application.
	Replica = ftm.Replica
	// ReplicaConfig configures a single replica deployment.
	ReplicaConfig = ftm.ReplicaConfig
	// Application is the business logic an FTM protects.
	Application = ftm.Application
	// Calculator is the reference deterministic application.
	Calculator = ftm.Calculator
	// Client invokes a replicated service with failover and
	// at-most-once semantics.
	Client = rpc.Client
	// Response is a service reply.
	Response = rpc.Response
	// Network is the simulated network systems run on.
	Network = transport.MemNetwork
)

// Adaptation machinery.
type (
	// Engine is the Adaptation Engine executing differential
	// transitions.
	Engine = adaptation.Engine
	// Repository is the FTM & Adaptation Repository of transition
	// packages.
	Repository = adaptation.Repository
	// TransitionPackage carries new bricks plus a reconfiguration
	// script.
	TransitionPackage = adaptation.TransitionPackage
	// TransitionReport is the outcome of a system-wide transition.
	TransitionReport = adaptation.Report
)

// Resilience loop.
type (
	// Monitor is the Monitoring Engine (probes, rules, triggers).
	Monitor = monitor.Engine
	// MonitorRule maps a probe condition to a trigger.
	MonitorRule = monitor.Rule
	// Resilience is the Resilience Management Service.
	Resilience = resilience.Service
	// ResilienceConfig configures the resilience service.
	ResilienceConfig = resilience.Config
	// SystemManager is the man-in-the-loop approving possible
	// transitions.
	SystemManager = resilience.SystemManager
	// Decision records how one trigger was handled.
	Decision = resilience.Decision
)

// NewSystem boots a fault-tolerant replica group on a simulated network:
// a pair.
func NewSystem(ctx context.Context, cfg SystemConfig) (*System, error) {
	return ftm.NewSystem(ctx, cfg)
}

// NewReplica deploys a single replica on a host (see internal/host for
// host construction); most callers want NewSystem.
var NewReplica = ftm.NewReplica

// NewCalculator returns the reference application.
func NewCalculator() *Calculator { return ftm.NewCalculator() }

// NewEngine returns an Adaptation Engine over repo (a fresh repository
// when nil).
func NewEngine(repo *Repository) *Engine { return adaptation.NewEngine(repo) }

// NewRepository returns an empty transition-package repository.
func NewRepository() *Repository { return adaptation.NewRepository() }

// BuildTransitionPackage synthesizes a differential transition package
// from the catalogue (for uploading customized variants, start here).
var BuildTransitionPackage = adaptation.BuildPackage

// NewResilience returns the Resilience Management Service.
func NewResilience(cfg ResilienceConfig) *Resilience { return resilience.New(cfg) }

// SystemGroup is a System as the resilience service adapts it; engine
// executes its transitions (a fresh one when nil).
var SystemGroup = resilience.SystemGroup

// NewMonitor returns a Monitoring Engine.
var NewMonitor = monitor.New

// NewFaultModel builds an FT parameter value.
var NewFaultModel = core.NewFaultModel

// Catalogue returns the illustrative-set FTM descriptors.
var Catalogue = core.Catalogue

// Extensions returns the beyond-the-paper FTM descriptors (recovery
// blocks, temporal TMR, semi-active replication).
var Extensions = core.Extensions

// Select returns the preferred FTM for given (FT, A, R) values.
var Select = core.Select

// Validate checks an FTM against (FT, A, R) values.
var Validate = core.Validate

// EncodeArg serializes an int64 application argument.
var EncodeArg = ftm.EncodeArg

// DecodeResult deserializes an int64 application result.
var DecodeResult = ftm.DecodeResult

// AutoApprove approves every possible transition.
type AutoApprove = resilience.AutoApprove

// Conservative declines every possible transition.
type Conservative = resilience.Conservative

// ManagerFunc adapts a function to SystemManager.
type ManagerFunc = resilience.ManagerFunc
