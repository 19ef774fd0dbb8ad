package resilience

import (
	"context"
	"errors"
	"fmt"

	"resilientft/internal/adaptation"
	"resilientft/internal/core"
	"resilientft/internal/ftm"
	"resilientft/internal/mgmt"
	"resilientft/internal/transport"
)

// Group is the replica group a Service adapts: one service runs per
// group, in-process or in each resilientd.
type Group interface {
	// FTM returns the deployed mechanism: the live master's, else any
	// live replica's.
	FTM() (core.ID, error)
	// Transition moves every replica of the group to the target FTM.
	Transition(ctx context.Context, to core.ID) error
	// Shard returns the group's shard ID (empty when unsharded).
	Shard() string
}

var errNoLiveReplica = errors.New("resilience: no live replica")

// SystemGroup is an in-process group: engine (a fresh one when nil)
// transitions every live replica of sys in parallel.
func SystemGroup(sys *ftm.System, engine *adaptation.Engine) Group {
	if engine == nil {
		engine = adaptation.NewEngine(nil)
	}
	return systemGroup{sys: sys, engine: engine}
}

type systemGroup struct {
	sys    *ftm.System
	engine *adaptation.Engine
}

func (g systemGroup) FTM() (core.ID, error) {
	if m := g.sys.Master(); m != nil {
		return m.FTM(), nil
	}
	for _, r := range g.sys.Replicas() {
		if r != nil && !r.Host().Crashed() {
			return r.FTM(), nil
		}
	}
	return "", errNoLiveReplica
}

func (g systemGroup) Transition(ctx context.Context, to core.ID) error {
	_, err := g.engine.TransitionSystem(ctx, g.sys, to)
	return err
}

func (g systemGroup) Shard() string { return g.sys.Replicas()[0].Group() }

// DaemonGroup is the group as one resilientd sees it: its own replica
// r, and the same group on the peer daemon at peer (empty for a
// single-host FTM). A transition moves r through engine, then the
// peer's replica over the management plane — the operator's
// `ftmctl -peer` — so the two halves of a pair do not stay on
// different FTMs.
func DaemonGroup(r *ftm.Replica, peer transport.Address, engine *adaptation.Engine) Group {
	return daemonGroup{r: r, peer: peer, engine: engine}
}

type daemonGroup struct {
	r      *ftm.Replica
	peer   transport.Address
	engine *adaptation.Engine
}

func (g daemonGroup) FTM() (core.ID, error) {
	if g.r.Host().Crashed() {
		return "", errNoLiveReplica
	}
	return g.r.FTM(), nil
}

func (g daemonGroup) Transition(ctx context.Context, to core.ID) error {
	if rep := g.engine.TransitionReplica(ctx, g.r, to); rep.Err != nil {
		return fmt.Errorf("resilience: local replica to %s: %w", to, rep.Err)
	}
	if g.peer == "" {
		return nil
	}
	if _, err := mgmt.RequestTransition(ctx, g.r.Host().Endpoint(), g.peer, g.r.Group(), to); err != nil {
		return fmt.Errorf("resilience: peer %s to %s: %w", g.peer, to, err)
	}
	return nil
}

func (g daemonGroup) Shard() string { return g.r.Group() }
