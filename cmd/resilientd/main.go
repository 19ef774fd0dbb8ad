// Command resilientd runs one replica of a fault-tolerant application
// over real TCP: the daemon a deployment starts on each of the two hosts.
//
// Start a primary and a backup:
//
//	resilientd -listen 127.0.0.1:7001 -peer 127.0.0.1:7002 -role master -ftm pbr &
//	resilientd -listen 127.0.0.1:7002 -peer 127.0.0.1:7001 -role slave  -ftm pbr &
//
// Then drive it with ftmctl (status, transitions, application calls).
//
// With -shards N each daemon hosts N independent replica groups
// ("0".."N-1", systems "<system>-0".."<system>-N-1") behind the same
// listener; group-stamped requests (rpc routing tier, ftmctl -group)
// reach their shard, and `ftmctl shards` lists the roster:
//
//	resilientd -listen 127.0.0.1:7001 -peer 127.0.0.1:7002 -role master -shards 4 &
//	resilientd -listen 127.0.0.1:7002 -peer 127.0.0.1:7001 -role slave  -shards 4 &
//
// With -slo-degrade each shard runs one Resilience Management service
// over the pair: a paging shard is a bandwidth-drop trigger, so both
// replicas move PBR -> LFR (this one, then the peer's over the
// management plane), and a shard whose budget has refilled returns to
// PBR after 30 quiet -slo-interval polls.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"resilientft/internal/adaptation"
	"resilientft/internal/core"
	"resilientft/internal/ftm"
	"resilientft/internal/host"
	"resilientft/internal/mgmt"
	"resilientft/internal/monitor"
	"resilientft/internal/resilience"
	"resilientft/internal/rpc"
	"resilientft/internal/slo"
	"resilientft/internal/stablestore"
	"resilientft/internal/telemetry"
	"resilientft/internal/telemetry/runtimeprof"
	"resilientft/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		listen      = flag.String("listen", "127.0.0.1:7001", "address to listen on")
		peer        = flag.String("peer", "", "peer replica address (empty for single-host FTMs)")
		system      = flag.String("system", "calc", "protected application name")
		ftmFlag     = flag.String("ftm", "pbr", "initial FTM (pbr, lfr, tr, pbr_tr, lfr_tr, a_pbr, a_lfr)")
		role        = flag.String("role", "master", "initial role (master or slave)")
		storePath   = flag.String("store", "", "stable-storage file (empty = in-memory)")
		heartbeat   = flag.Duration("heartbeat", 100*time.Millisecond, "heartbeat interval")
		suspect     = flag.Duration("suspect", 500*time.Millisecond, "peer suspicion timeout")
		httpAddr    = flag.String("http", "", "observability HTTP address serving /metrics, /events, /trace/{id}, /blackbox, /health, /slo and /debug/pprof (empty = disabled)")
		healthEvery = flag.Duration("health-interval", time.Second, "host health sweep interval")
		sample      = flag.Uint64("trace-sample", telemetry.DefaultSampleEvery, "span sampling: record 1 in N requests (0 = off, 1 = all)")
		boxPath     = flag.String("blackbox", "", "flight-recorder incident file, JSON lines (empty = in-memory only)")
		shards      = flag.Int("shards", 1, "independent replica groups hosted by this daemon")
		sloOn       = flag.Bool("slo", true, "evaluate per-shard SLOs (burn rates, /slo, breach capture)")
		sloP99      = flag.Duration("slo-latency-p99", 50*time.Millisecond, "per-shard latency objective (p99)")
		sloAvail    = flag.Float64("slo-availability", 0.999, "per-shard availability objective")
		sloEvery    = flag.Duration("slo-interval", time.Second, "SLO evaluation tick")
		sloDegrade  = flag.Bool("slo-degrade", false, "let paging shards degrade both replicas' FTM through Resilience Management (and recover with hysteresis)")
	)
	flag.Parse()

	if _, err := core.Lookup(core.ID(*ftmFlag)); err != nil {
		return err
	}
	if *sloDegrade && !*sloOn {
		return fmt.Errorf("-slo-degrade needs the SLO engine, but -slo=false turns it off")
	}
	ep, err := transport.ListenTCP(*listen)
	if err != nil {
		return err
	}
	defer ep.Close()

	// Tracing + flight recorder: the span sampler is process-wide, the
	// recorder continuously folds events/spans/metrics into its black-box
	// window and persists a snapshot on incidents (suspicion, role
	// changes, panics).
	telemetry.DefaultSampler().SetEvery(*sample)
	telemetry.DefaultSpans().SetOrigin(*listen)
	fr := telemetry.DefaultFlightRecorder()
	var incidents stablestore.IncidentLog
	if *boxPath != "" {
		incidents = stablestore.NewFileIncidentLog(*boxPath)
		fr.SetPersist(func(b telemetry.BlackBox) {
			data, err := json.Marshal(b)
			if err != nil {
				log.Printf("blackbox marshal: %v", err)
				return
			}
			rec := stablestore.IncidentRecord{
				Time: b.Time, Reason: b.Reason, Origin: b.Origin, Data: data,
			}
			if err := incidents.Append(rec); err != nil {
				log.Printf("blackbox persist: %v", err)
			}
		})
	}
	fr.Start(time.Second)
	defer fr.Stop()

	// Export the runtime's own shape (goroutines, heap, GC pauses,
	// scheduling latency) alongside the request-path series: refreshed
	// on every scrape, folded into black boxes like any other series.
	runtimeprof.Enable(telemetry.Default())

	var opts []host.Option
	if *storePath != "" {
		opts = append(opts, host.WithStore(stablestore.NewFileStore(*storePath)))
	}
	h, err := host.NewWithEndpoint(string(ep.Addr()), ep, ftm.NewRegistry(), opts...)
	if err != nil {
		return err
	}
	// Sweep the graded health collectors continuously; the sweep runs
	// off the request path and feeds /health, mgmt health queries and
	// the host_health* series.
	h.Health().Start(*healthEvery)
	defer h.Health().Stop()

	ctx := context.Background()
	if *shards < 1 {
		*shards = 1
	}
	// One group is the classic unsharded daemon (empty group ID, bare
	// system name); N groups share this endpoint behind the group mux,
	// each its own replica with its own batcher and reply log. They share
	// the host's one failure detector for the peer, which hands a
	// suspicion to the groups one at a time, so they promote in turn.
	srv := mgmt.NewServer(ep)
	engine := adaptation.NewEngine(nil)
	replicas := make([]*ftm.Replica, 0, *shards)
	for k := 0; k < *shards; k++ {
		sysName, gid := *system, ""
		if *shards > 1 {
			gid = fmt.Sprintf("%d", k)
			sysName = fmt.Sprintf("%s-%s", *system, gid)
		}
		name := sysName
		replica, err := ftm.NewReplica(ctx, h, ftm.ReplicaConfig{
			System:            sysName,
			Group:             gid,
			FTM:               core.ID(*ftmFlag),
			Role:              core.Role(*role),
			Peer:              transport.Address(*peer),
			App:               ftm.NewCalculator(),
			HeartbeatInterval: *heartbeat,
			SuspectTimeout:    *suspect,
		}, ftm.WithEventHook(func(e string) {
			log.Printf("[%s] %s", name, e)
		}))
		if err != nil {
			return err
		}
		replicas = append(replicas, replica)
		srv.Register(replica, engine)
	}

	// Per-shard SLO engine: burn-rate accounting over the rpc layer's
	// per-shard series, a diagnostic bundle (black box + pprof) on every
	// page-grade breach, and — with -slo-degrade — one monitor and
	// Resilience Management service per shard that sheds the pair's FTM
	// while the budget burns.
	var sloEng *slo.Engine
	if *sloOn {
		sloEng = slo.New(slo.Config{
			Registry: telemetry.Default(),
			Interval: *sloEvery,
			Capture:  slo.NewCapture(fr, incidents, 0),
		})
		objective := slo.Objective{LatencyP99: *sloP99, Availability: *sloAvail}
		for _, r := range replicas {
			sloEng.SetObjective(rpc.ShardLabel(r.Group()), objective)
		}
		sloEng.Start()
		defer sloEng.Stop()
		srv.SetSLO(sloEng)
		if *sloDegrade {
			for _, r := range replicas {
				svc := resilience.New(resilience.Config{
					Group:      resilience.DaemonGroup(r, transport.Address(*peer), engine),
					FaultModel: core.NewFaultModel(core.FaultCrash),
					// The calculator's traits.
					Traits:  core.AppTraits{Deterministic: true, StateAccess: true},
					Manager: resilience.AutoApprove{},
				})
				mon := monitor.New(*sloEvery, svc.Sink())
				resilience.InstallSLORules(mon, sloEng, rpc.ShardLabel(r.Group()))
				mon.Start()
				defer mon.Stop()
			}
		}
	}

	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("observability listen %s: %w", *httpAddr, err)
		}
		handlerOpts := []telemetry.HandlerOption{
			telemetry.WithHealth(func() any { return h.Health().Report() }),
			runtimeprof.PprofHandlers(),
		}
		if sloEng != nil {
			handlerOpts = append(handlerOpts, telemetry.WithSLO(func() any { return sloEng.Report() }))
		}
		srv := &http.Server{Handler: telemetry.Handler(telemetry.Default(), telemetry.DefaultTracer(),
			telemetry.DefaultSpans(), fr, handlerOpts...)}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				log.Printf("observability server: %v", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("resilientd: observability on http://%s/metrics\n", ln.Addr())
	}

	if *shards > 1 {
		fmt.Printf("resilientd: %s x%d shards %s/%s listening on %s (peer %s)\n",
			*system, *shards, *ftmFlag, *role, ep.Addr(), *peer)
	} else {
		fmt.Printf("resilientd: %s %s/%s listening on %s (peer %s)\n",
			*system, *ftmFlag, *role, ep.Addr(), *peer)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	<-sigs
	fmt.Println("resilientd: shutting down")
	h.Crash()
	return nil
}
