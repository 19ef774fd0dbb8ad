package adaptation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"resilientft/internal/component"
	"resilientft/internal/core"
	"resilientft/internal/fscript"
	"resilientft/internal/ftm"
	"resilientft/internal/host"
	"resilientft/internal/telemetry"
)

// StepTimings breaks a transition into the paper's three steps
// (Figure 9): transition-package deployment, reconfiguration-script
// execution, residual-package removal.
type StepTimings struct {
	Deploy time.Duration
	Script time.Duration
	Remove time.Duration
}

// Total returns the summed step time.
func (s StepTimings) Total() time.Duration { return s.Deploy + s.Script + s.Remove }

// ReplicaReport is the outcome of one replica's transition.
type ReplicaReport struct {
	Host     string
	Role     core.Role
	Replaced []string
	Steps    StepTimings
	// Killed reports fail-silent enforcement: the script raised an
	// exception and the replica was killed (§5.3).
	Killed bool
	Err    error
}

// Report is the outcome of a system-wide transition.
type Report struct {
	System   string
	From, To core.ID
	Replicas []ReplicaReport
}

// Succeeded reports whether every replica transitioned.
func (r *Report) Succeeded() bool {
	if len(r.Replicas) == 0 {
		return false
	}
	for _, rep := range r.Replicas {
		if rep.Err != nil {
			return false
		}
	}
	return true
}

// MaxSteps returns the slowest replica's step timings (transitions run
// in parallel on the replicas; the paper reports one replica's time).
func (r *Report) MaxSteps() StepTimings {
	var out StepTimings
	for _, rep := range r.Replicas {
		if rep.Steps.Total() > out.Total() {
			out = rep.Steps
		}
	}
	return out
}

// Engine is the Adaptation Engine: it fetches transition packages from
// the repository and orchestrates differential on-line transitions over
// the replicas of a running system.
type Engine struct {
	repo *Repository
}

// NewEngine returns an engine over a repository.
func NewEngine(repo *Repository) *Engine {
	if repo == nil {
		repo = NewRepository()
	}
	return &Engine{repo: repo}
}

// Repository returns the engine's package repository.
func (e *Engine) Repository() *Repository { return e.repo }

// TransitionSystem executes the differential transition current→to on
// every live replica of the system, in parallel (paper §6.1). A replica
// whose script fails is killed (fail-silent); the transition then reports
// an error but the surviving replica, already reconfigured or not yet
// touched, carries on under the failure detector's authority.
func (e *Engine) TransitionSystem(ctx context.Context, sys *ftm.System, to core.ID) (*Report, error) {
	return e.TransitionReplicas(ctx, sys.Replicas(), to)
}

// TransitionReplicas executes the transition on every live replica of
// the given set, in parallel.
func (e *Engine) TransitionReplicas(ctx context.Context, replicas []*ftm.Replica, to core.ID) (*Report, error) {
	var live []*ftm.Replica
	for _, r := range replicas {
		if r != nil && !r.Host().Crashed() {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("adaptation: no live replicas")
	}
	report := &Report{System: live[0].System(), From: live[0].FTM(), To: to}
	report.Replicas = make([]ReplicaReport, len(live))

	var wg sync.WaitGroup
	for i, r := range live {
		wg.Add(1)
		go func(i int, r *ftm.Replica) {
			defer wg.Done()
			report.Replicas[i] = e.TransitionReplica(ctx, r, to)
		}(i, r)
	}
	wg.Wait()

	var errs []error
	for _, rep := range report.Replicas {
		if rep.Err != nil {
			errs = append(errs, fmt.Errorf("replica %s: %w", rep.Host, rep.Err))
		}
	}
	if len(errs) > 0 {
		return report, errors.Join(errs...)
	}
	return report, nil
}

// TransitionReplica executes the three-step differential transition on
// one replica.
func (e *Engine) TransitionReplica(ctx context.Context, r *ftm.Replica, to core.ID) ReplicaReport {
	// Hold the replica's reconfiguration lock for the whole transition so
	// a concurrent failover promotion cannot interleave with the script.
	unlock := r.LockReconfig()
	defer unlock()

	report := ReplicaReport{Host: r.Host().Name(), Role: r.Role()}
	from := r.FTM()
	if from == to {
		return report
	}
	pkg, err := e.repo.Get(r.System(), r.Path(), from, to, r.Role())
	if err != nil {
		report.Err = err
		return report
	}
	report.Replaced = pkg.Replaced
	rt := r.Host().Runtime()
	if rt == nil {
		report.Err = host.ErrCrashed
		return report
	}

	emitStep := func(step string, d time.Duration, status string) {
		telemetry.Emit("transition", step, d,
			"host", report.Host, "from", string(from), "to", string(to),
			"status", status)
	}

	// Step 1 — deploy the transition package: transfer each bundle into
	// the local staging area, verify its seal and link its symbols
	// against the replica's registry.
	start := time.Now()
	staged, err := stageBundles(rt.Registry(), pkg)
	report.Steps.Deploy = time.Since(start)
	mStepDeploy.Observe(report.Steps.Deploy)
	if err != nil {
		emitStep("deploy", report.Steps.Deploy, "error")
		mTransitionsErr.Inc()
		report.Err = err
		return report
	}
	emitStep("deploy", report.Steps.Deploy, "ok")

	// Step 2 — execute the reconfiguration script with the composite
	// boundary closed: client requests buffer and replay in the new
	// configuration (§5.3). A script exception kills the replica to
	// enforce fail-silence.
	start = time.Now()
	err = e.executeScript(ctx, rt, r, pkg)
	report.Steps.Script = time.Since(start)
	mStepScript.Observe(report.Steps.Script)
	if err != nil {
		var serr *fscript.ScriptError
		if errors.As(err, &serr) {
			r.Kill()
			report.Killed = true
		}
		emitStep("script", report.Steps.Script, "error")
		if report.Killed {
			mTransitionsKilled.Inc()
		} else {
			mTransitionsErr.Inc()
		}
		report.Err = err
		return report
	}
	emitStep("script", report.Steps.Script, "ok")

	// Step 3 — remove residuals: discard the staged package and verify
	// the resulting architecture (old bricks are gone, integrity holds,
	// the live scheme is the target's).
	start = time.Now()
	err = e.removeResiduals(rt, r, to, pkg, staged)
	report.Steps.Remove = time.Since(start)
	mStepRemove.Observe(report.Steps.Remove)
	if err != nil {
		emitStep("remove", report.Steps.Remove, "error")
		mTransitionsErr.Inc()
		report.Err = err
		return report
	}
	emitStep("remove", report.Steps.Remove, "ok")
	mTransitionsOK.Inc()

	r.SetFTM(to)
	return report
}

// stagedBundle is one transferred bundle awaiting removal.
type stagedBundle struct {
	typ  string
	data []byte
}

func stageBundles(reg *component.Registry, pkg *TransitionPackage) ([]stagedBundle, error) {
	// Open the archive: the manifest's seal covers dependency metadata
	// and signatures for the whole package.
	if err := pkg.Manifest.Verify(); err != nil {
		return nil, fmt.Errorf("adaptation: package manifest: %w", err)
	}
	staged := make([]stagedBundle, 0, len(pkg.Env.Definitions))
	for name, def := range pkg.Env.Definitions {
		// Transfer: the package bytes land in the staging area.
		buf := append([]byte(nil), def.Bundle.Code...)
		// Verify the seal, then resolve the bundle's symbols locally.
		if err := def.Bundle.Verify(); err != nil {
			return nil, fmt.Errorf("adaptation: deploy %s: %w", name, err)
		}
		if err := reg.Link(def.Bundle); err != nil {
			return nil, fmt.Errorf("adaptation: link %s: %w", name, err)
		}
		staged = append(staged, stagedBundle{typ: def.Type, data: buf})
	}
	return staged, nil
}

func (e *Engine) executeScript(ctx context.Context, rt *component.Runtime, r *ftm.Replica, pkg *TransitionPackage) error {
	if err := rt.Stop(ctx, r.Path()); err != nil {
		return err
	}
	if _, err := fscript.Execute(ctx, rt, pkg.Script, pkg.Env); err != nil {
		return err
	}
	return rt.Start(ctx, r.Path())
}

func (e *Engine) removeResiduals(rt *component.Runtime, r *ftm.Replica, to core.ID, pkg *TransitionPackage, staged []stagedBundle) error {
	// Audit the removal receipt, then wipe the staging area (a torn
	// staging area would poison the next transition).
	if err := pkg.Receipt.Verify(); err != nil {
		return fmt.Errorf("adaptation: removal receipt: %w", err)
	}
	for i := range staged {
		for j := range staged[i].data {
			staged[i].data[j] = 0
		}
		staged[i].data = nil
	}
	if violations := rt.CheckIntegrity(); len(violations) > 0 {
		return fmt.Errorf("%w: after transition: %v", component.ErrIntegrity, violations)
	}
	scheme, err := r.CurrentScheme()
	if err != nil {
		return err
	}
	want := core.MustLookup(to).Scheme(r.Role())
	if scheme != want {
		return fmt.Errorf("adaptation: post-transition scheme %+v does not match %s's %+v", scheme, to, want)
	}
	return nil
}
