package resilientft

// The benchmarks in this file regenerate the paper's quantitative
// artifacts under `go test -bench`: one benchmark family per evaluation
// table/figure. cmd/benchsuite prints the same data in the paper's
// layout; EXPERIMENTS.md records representative outputs.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"resilientft/internal/adaptation"
	"resilientft/internal/core"
	"resilientft/internal/experiments"
	"resilientft/internal/ftm"
	"resilientft/internal/host"
	"resilientft/internal/preprog"
	"resilientft/internal/rpc"
	"resilientft/internal/telemetry"
	"resilientft/internal/transport"
)

// newSoloReplica deploys a single replica with a quiet failure detector,
// the unit the paper times ("the time corresponding to one replica").
func newSoloReplica(tb testing.TB, name string, id core.ID) (*ftm.Replica, *host.Host) {
	tb.Helper()
	net := transport.NewMemNetwork(transport.WithSeed(1))
	h, err := host.New(name, net, ftm.NewRegistry())
	if err != nil {
		tb.Fatal(err)
	}
	r, err := ftm.NewReplica(context.Background(), h, ftm.ReplicaConfig{
		System:            "bench",
		FTM:               id,
		Role:              core.RoleMaster,
		App:               ftm.NewCalculator(),
		HeartbeatInterval: time.Hour,
		SuspectTimeout:    24 * time.Hour,
	})
	if err != nil {
		h.Crash()
		tb.Fatal(err)
	}
	return r, h
}

// BenchmarkTable3Deploy measures from-scratch FTM deployment — the first
// row of Table 3.
func BenchmarkTable3Deploy(b *testing.B) {
	for _, id := range core.DeployableSet() {
		b.Run(string(id), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, h := newSoloReplica(b, fmt.Sprintf("d-%s-%d", id, i), id)
				h.Crash()
			}
		})
	}
}

// BenchmarkTable3Transition measures every differential transition of the
// Table 3 matrix.
func BenchmarkTable3Transition(b *testing.B) {
	engine := adaptation.NewEngine(nil)
	for _, from := range core.DeployableSet() {
		for _, to := range core.DeployableSet() {
			if from == to {
				continue
			}
			b.Run(fmt.Sprintf("%s_to_%s", from, to), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					r, h := newSoloReplica(b, fmt.Sprintf("t-%s-%s-%d", from, to, i), from)
					b.StartTimer()
					report := engine.TransitionReplica(context.Background(), r, to)
					b.StopTimer()
					if report.Err != nil {
						b.Fatal(report.Err)
					}
					h.Crash()
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkFig9 measures the three reference transitions of Figure 9 and
// reports the per-step shares as custom metrics.
func BenchmarkFig9(b *testing.B) {
	cases := []struct {
		name     string
		from, to core.ID
	}{
		{"1component_lfr_to_lfrtr", core.LFR, core.LFRTR},
		{"2components_pbr_to_lfr", core.PBR, core.LFR},
		{"3components_pbr_to_lfrtr", core.PBR, core.LFRTR},
	}
	engine := adaptation.NewEngine(nil)
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var steps adaptation.StepTimings
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r, h := newSoloReplica(b, fmt.Sprintf("f9-%s-%d", tc.name, i), tc.from)
				b.StartTimer()
				report := engine.TransitionReplica(context.Background(), r, tc.to)
				b.StopTimer()
				if report.Err != nil {
					b.Fatal(report.Err)
				}
				steps.Deploy += report.Steps.Deploy
				steps.Script += report.Steps.Script
				steps.Remove += report.Steps.Remove
				h.Crash()
				b.StartTimer()
			}
			total := float64(steps.Total())
			if total > 0 {
				b.ReportMetric(100*float64(steps.Deploy)/total, "deploy%")
				b.ReportMetric(100*float64(steps.Script)/total, "script%")
				b.ReportMetric(100*float64(steps.Remove)/total, "remove%")
			}
		})
	}
}

// BenchmarkAgility compares the preprogrammed baseline's monolithic
// switch against the agile differential transition (§6.2).
func BenchmarkAgility(b *testing.B) {
	b.Run("preprogrammed_switch", func(b *testing.B) {
		net := transport.NewMemNetwork(transport.WithSeed(1))
		h, err := host.New("pp", net, ftm.NewRegistry())
		if err != nil {
			b.Fatal(err)
		}
		defer h.Crash()
		r, err := preprog.NewReplica(context.Background(), h, "calc",
			ftm.NewCalculator(), []core.ID{core.PBR, core.LFR})
		if err != nil {
			b.Fatal(err)
		}
		targets := []core.ID{core.LFR, core.PBR}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Switch(context.Background(), targets[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("agile_transition", func(b *testing.B) {
		engine := adaptation.NewEngine(nil)
		r, h := newSoloReplica(b, "ag", core.PBR)
		defer h.Crash()
		targets := []core.ID{core.LFR, core.PBR}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			report := engine.TransitionReplica(context.Background(), r, targets[i%2])
			if report.Err != nil {
				b.Fatal(report.Err)
			}
		}
	})
}

// BenchmarkFig5SLOC measures the Figure 5 source analysis itself (the
// figure's data is a static property; see cmd/benchsuite -exp fig5).
func BenchmarkFig5SLOC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5("."); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRequestLatency measures the client-visible request latency
// under each FTM — the per-mechanism overhead behind Table 1's R row.
func BenchmarkRequestLatency(b *testing.B) {
	for _, id := range core.DeployableSet() {
		b.Run(string(id), func(b *testing.B) {
			sys, err := ftm.NewSystem(context.Background(), ftm.SystemConfig{
				System:            "bench",
				FTM:               id,
				HeartbeatInterval: 50 * time.Millisecond,
				SuspectTimeout:    10 * time.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Shutdown()
			client, err := sys.NewClient(rpc.WithCallTimeout(5 * time.Second))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Invoke(context.Background(), "add:x", ftm.EncodeArg(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMonolithic measures the monolithic-replacement
// alternative the differential approach beats (the full comparison runs
// in cmd/benchsuite -exp ablation).
func BenchmarkAblationMonolithic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, h := newSoloReplica(b, fmt.Sprintf("abm-%d", i), core.PBR)
		rt := h.Runtime()
		b.StartTimer()

		state, err := r.App().StateManager().CaptureState()
		if err != nil {
			b.Fatal(err)
		}
		if err := rt.Stop(context.Background(), r.Path()); err != nil {
			b.Fatal(err)
		}
		cp, err := rt.LookupComposite(r.Path())
		if err != nil {
			b.Fatal(err)
		}
		for _, child := range cp.Components() {
			if err := rt.Stop(context.Background(), r.Path()+"/"+child.Name()); err != nil {
				b.Fatal(err)
			}
		}
		if err := rt.Remove(r.Path()); err != nil {
			b.Fatal(err)
		}
		app := ftm.NewCalculator()
		if err := app.StateManager().RestoreState(state); err != nil {
			b.Fatal(err)
		}
		if _, err := ftm.DeployFTM(context.Background(), h, ftm.ReplicaConfig{
			System:            "bench",
			FTM:               core.LFR,
			Role:              core.RoleMaster,
			App:               app,
			HeartbeatInterval: time.Hour,
			SuspectTimeout:    24 * time.Hour,
		}, nil); err != nil {
			b.Fatal(err)
		}

		b.StopTimer()
		h.Crash()
		b.StartTimer()
	}
}

// BenchmarkFailover measures crash-to-promotion time: from the master's
// crash until the slave answers as master.
func BenchmarkFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := ftm.NewSystem(context.Background(), ftm.SystemConfig{
			System:            "bench",
			FTM:               core.PBR,
			HeartbeatInterval: 5 * time.Millisecond,
			SuspectTimeout:    25 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		slave := sys.Slave()
		b.StartTimer()
		sys.CrashMaster()
		for sys.Master() != slave {
			time.Sleep(100 * time.Microsecond)
		}
		b.StopTimer()
		sys.Shutdown()
		b.StartTimer()
	}
}

// BenchmarkTracing measures the span layer's request-path overhead on
// PBR: sampler off, the default 1-in-100, and recording every request
// (client span, pipeline stage spans, wave ship span, envelope trailer,
// slave apply span). The default-sampled row is the one the acceptance
// bar holds against the untraced PR3 baseline.
func BenchmarkTracing(b *testing.B) {
	for _, tc := range []struct {
		name  string
		every uint64
	}{
		{"pbr_off", 0},
		{"pbr_1pct", telemetry.DefaultSampleEvery},
		{"pbr_100pct", 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			prev := telemetry.DefaultSampler().Every()
			telemetry.DefaultSampler().SetEvery(tc.every)
			defer telemetry.DefaultSampler().SetEvery(prev)
			sys, err := ftm.NewSystem(context.Background(), ftm.SystemConfig{
				System:            "bench",
				FTM:               core.PBR,
				HeartbeatInterval: 50 * time.Millisecond,
				SuspectTimeout:    10 * time.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Shutdown()
			client, err := sys.NewClient(rpc.WithCallTimeout(5 * time.Second))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Invoke(context.Background(), "add:x", ftm.EncodeArg(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
