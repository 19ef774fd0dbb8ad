package main

import (
	"context"
	"fmt"
	"time"

	"resilientft/internal/adaptation"
	"resilientft/internal/core"
	"resilientft/internal/ftm"
	"resilientft/internal/host"
	"resilientft/internal/stablestore"
	"resilientft/internal/transport"
)

// inproc is the same assembly resilientd makes — a TCP endpoint, a host
// on it, one replica per group — built twice in this process, plus a
// client endpoint: three loopback TCP endpoints, so frames still cross
// the kernel, but every layer boundary is reachable for decoration.
type inproc struct {
	client   transport.Endpoint
	hosts    [2]*host.Host
	replicas [2][]*ftm.Replica // [master, slave][group]
	closers  []func()
}

// newInproc assembles a master/slave pair for w. With a tracer, the
// endpoints, applications, state managers and stores are decorated;
// with nil, nothing is — the untraced twin tracing overhead is measured
// against.
func newInproc(ctx context.Context, w Workload, t *tracer) (*inproc, error) {
	in := &inproc{}
	fail := func(err error) (*inproc, error) {
		in.close()
		return nil, err
	}
	var eps [3]*transport.TCPEndpoint
	for i := range eps {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		eps[i] = ep
		in.closers = append(in.closers, func() { ep.Close() })
	}
	decorate := func(ep *transport.TCPEndpoint, master bool) transport.Endpoint {
		if t == nil {
			return ep
		}
		return &tracedEndpoint{Endpoint: ep, t: t, master: master}
	}
	in.client = decorate(eps[2], false)
	for i := 0; i < 2; i++ {
		var store stablestore.Store = stablestore.NewMemStore()
		if t != nil {
			store = &tracedStore{Store: store, t: t}
		}
		h, err := host.NewWithEndpoint(string(eps[i].Addr()), decorate(eps[i], i == 0), ftm.NewRegistry(), host.WithStore(store))
		if err != nil {
			return fail(err)
		}
		in.hosts[i] = h
		in.closers = append(in.closers, h.Crash)
		role := core.RoleMaster
		if i == 1 {
			role = core.RoleSlave
		}
		for k := 0; k < w.Shards; k++ {
			sys, gid := "calc", ""
			if w.Shards > 1 {
				gid = fmt.Sprint(k)
				sys = "calc-" + gid
			}
			var app ftm.Application = ftm.NewCalculator()
			if t != nil {
				app = newTracedApp(app, t)
			}
			r, err := ftm.NewReplica(ctx, h, ftm.ReplicaConfig{
				System: sys, Group: gid, FTM: core.PBR, Role: role,
				Peer: eps[1-i].Addr(), App: app,
				HeartbeatInterval: 50 * time.Millisecond, SuspectTimeout: 250 * time.Millisecond,
			})
			if err != nil {
				return fail(err)
			}
			in.replicas[i] = append(in.replicas[i], r)
		}
	}
	return in, nil
}

func (in *inproc) addrs() []transport.Address {
	return []transport.Address{in.hosts[0].Addr(), in.hosts[1].Addr()}
}

// close crashes both hosts (silencing detectors and batchers) and closes
// the endpoints.
func (in *inproc) close() {
	for i := len(in.closers) - 1; i >= 0; i-- {
		in.closers[i]()
	}
	in.closers = nil
}

// transitions moves every group of the in-process pair to LFR and back,
// rounds times, the way mgmt does it: master then slave.
func (in *inproc) transitions(ctx context.Context, rounds int) error {
	engine := adaptation.NewEngine(nil)
	for n := 0; n < rounds; n++ {
		for _, to := range []core.ID{core.LFR, core.PBR} {
			for i := 0; i < 2; i++ {
				for _, r := range in.replicas[i] {
					if rep := engine.TransitionReplica(ctx, r, to); rep.Err != nil {
						return fmt.Errorf("in-process transition to %s on %s: %w", to, rep.Host, rep.Err)
					}
				}
			}
		}
	}
	return nil
}

// pass drives load through an in-process pair for d and returns the
// generator with its samples. With a tracer, spans recorded during
// warm-up are dropped.
func (in *inproc) pass(ctx context.Context, w Workload, seed int64, d time.Duration, t *tracer) *loadgen {
	const passWarmup = 300 * time.Millisecond
	plan := steadyPlan(w, seed, passWarmup, d)
	g := newLoadgen(w, "i", in.client, in.addrs())
	if err := g.populate(ctx); err != nil {
		g.firstErr = err
		return g
	}
	g.tracer = t
	t0 := time.Now().Add(passWarmup)
	stop := time.AfterFunc(passWarmup+d, func() { g.stop.Store(true) })
	defer stop.Stop()
	if t != nil {
		// Drop warm-up spans when the measured part begins: a request in
		// flight at that moment is dropped whole, by its start time.
		timer := time.AfterFunc(passWarmup, t.reset)
		defer timer.Stop()
	}
	g.run(ctx, plan, seed, t0)
	return g
}
