package main

import (
	"context"
	"fmt"
	"time"

	"resilientft/internal/core"
	"resilientft/internal/mgmt"
	"resilientft/internal/transport"
)

// transitionEvent is one pair-wide FTM transition: every group on the
// master, then every group on the slave.
type transitionEvent struct {
	Start, End time.Time
	To         core.ID
	// Outcomes holds one mgmt.TransitionOutcome per (replica, group).
	Outcomes []mgmt.TransitionOutcome
}

// killEvent is one kill / master-alone / rejoin cycle.
type killEvent struct {
	Kill     time.Time // SIGKILL sent
	Promoted time.Time // survivor first seen reporting master
	Restart  time.Time // killed daemon exec'd again as slave
	Rejoined time.Time // it first reported slave
}

// faultLog is what the fault schedule did, for the metrics.
type faultLog struct {
	Transitions []transitionEvent
	Kills       []killEvent
}

func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// groups lists the group IDs the pair's daemons host.
func (p *pair) groups() []string {
	if p.shards <= 1 {
		return []string{""}
	}
	out := make([]string, p.shards)
	for k := range out {
		out[k] = fmt.Sprint(k)
	}
	return out
}

// transition moves the whole pair to another FTM under load, the way an
// operator does with ftmctl -target master -peer slave.
func (p *pair) transition(ctx context.Context, ep transport.Endpoint, to core.ID) (transitionEvent, error) {
	ev := transitionEvent{Start: time.Now(), To: to}
	for _, i := range []int{p.master, 1 - p.master} {
		for _, g := range p.groups() {
			out, err := mgmt.RequestTransition(ctx, ep, transport.Address(p.d[i].addr), g, to)
			if err != nil {
				return ev, fmt.Errorf("transition %s group %q to %s: %w", p.d[i].addr, g, to, err)
			}
			ev.Outcomes = append(ev.Outcomes, out)
		}
	}
	ev.End = time.Now()
	return ev, nil
}

// findMaster asks both daemons for their roles and points p.master at
// the one that is master. The roles can have swapped since boot without
// any kill: a slave that misses heartbeats for the suspect timeout (the
// box is busy, a transition holds the master's gate) promotes itself, and
// split-brain resolution then demotes the old master.
func (p *pair) findMaster(ctx context.Context, ep transport.Endpoint) error {
	var seen [2][]string
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(pollFailover) {
		masters, which := 0, 0
		for i := range p.d {
			roles, err := p.roles(ctx, ep, i)
			if err != nil {
				return fmt.Errorf("find master: %w", err)
			}
			seen[i] = roles
			if allAre(roles, "master") {
				masters, which = masters+1, i
			}
		}
		if masters == 1 && allAre(seen[1-which], "slave") {
			if which != p.master {
				p.swaps++
			}
			p.master = which
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no single master before the kill: roles %v and %v", seen[0], seen[1])
		}
	}
}

func allAre(roles []string, role string) bool {
	for _, r := range roles {
		if r != role {
			return false
		}
	}
	return len(roles) > 0
}

// killCycle SIGKILLs the master, waits for the survivor to take over,
// lets it run alone, then brings the killed daemon back as slave and
// lets the pair settle. With killSlave the victim is the slave: nobody
// is promoted, the master just loses its backup and gets it back. A
// master is killed with no request of g in flight (see loadgen.quiesce);
// g's requests resume as soon as the process is gone.
func (p *pair) killCycle(ctx context.Context, ep transport.Endpoint, g *loadgen, killSlave bool) (killEvent, error) {
	var ev killEvent
	if err := p.findMaster(ctx, ep); err != nil {
		return ev, err
	}
	victim, survivor := p.master, 1-p.master
	alone, settle := aloneFor, settleFor
	if killSlave {
		victim, survivor = survivor, victim
		alone, settle = slaveAloneFor, slaveSettleFor
	}
	resume := func() {}
	if !killSlave {
		resume = g.quiesce(drainLimit)
	}
	ev.Kill = p.kill(victim)
	resume()
	var err error
	if ev.Promoted, err = p.awaitRole(ctx, ep, survivor, "master", pollFailover, 10*time.Second); err != nil {
		return ev, err
	}
	p.master = survivor
	if err := sleepUntil(ctx, ev.Promoted.Add(alone)); err != nil {
		return ev, err
	}
	ev.Restart = time.Now()
	if err := p.startDaemon(victim, "slave"); err != nil {
		return ev, err
	}
	if ev.Rejoined, err = p.awaitRole(ctx, ep, victim, "slave", pollFailover, 10*time.Second); err != nil {
		return ev, err
	}
	return ev, sleepUntil(ctx, ev.Rejoined.Add(settle))
}

// runFaults executes, against the main pair and timed from t0, the
// plan's transitions and the kill cycles that belong on the main pair.
// Load keeps flowing while it runs; a fault step that fails aborts the
// schedule and fails the run.
func runFaults(ctx context.Context, p *pair, ep transport.Endpoint, g *loadgen, plan Plan, t0 time.Time) (faultLog, error) {
	var log faultLog
	for i, at := range plan.TransitionAt {
		if err := sleepUntil(ctx, t0.Add(at)); err != nil {
			return log, err
		}
		to := core.LFR
		if i%2 == 1 {
			to = core.PBR
		}
		ev, err := p.transition(ctx, ep, to)
		if err != nil {
			return log, err
		}
		log.Transitions = append(log.Transitions, ev)
	}
	if err := sleepUntil(ctx, t0.Add(plan.KillAt)); err != nil {
		return log, err
	}
	for c := 0; c < plan.MainKills(); c++ {
		if c > 0 {
			if err := sleepUntil(ctx, time.Now().Add(plan.KillPause[c-1])); err != nil {
				return log, err
			}
		}
		ev, err := p.killCycle(ctx, ep, g, plan.KillSlave)
		if err != nil {
			return log, err
		}
		log.Kills = append(log.Kills, ev)
	}
	return log, nil
}
