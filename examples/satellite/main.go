// Command satellite plays the paper's motivating scenario for long-lived
// space systems: a satellite launched with one fault tolerance mechanism
// must evolve over a mission in which radiation ages its hardware,
// critical phases demand stronger fault models, and ground control
// uplinks transition packages that did not exist at launch.
//
// The full resilience loop runs: an error observer feeds the Monitoring
// Engine, whose triggers drive the Resilience Management Service; ground
// control is the man-in-the-loop for possible transitions; the Adaptation
// Engine executes differential transitions on both replicas.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"resilientft"
	"resilientft/internal/core"
	"resilientft/internal/faultinject"
	"resilientft/internal/monitor"
)

func main() {
	ctx := context.Background()

	fmt.Println("== launch: flight software under LFR on the two onboard computers ==")
	inj := faultinject.NewValueInjector(2026)
	onMaster := true
	sys, err := resilientft.NewSystem(ctx, resilientft.SystemConfig{
		System: "flightsw",
		FTM:    resilientft.LFR,
		AppFactory: func() resilientft.Application {
			calc := resilientft.NewCalculator()
			if onMaster {
				calc.SetInjector(inj) // OBC-A is the one that will age
				onMaster = false
			}
			return calc
		},
		HostNames:         [2]string{"obc-a", "obc-b"},
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectTimeout:    120 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Shutdown()

	repo := resilientft.NewRepository()
	engine := resilientft.NewEngine(repo)

	// Ground control approves possible transitions explicitly.
	groundApproves := false
	ground := resilientft.ManagerFunc(func(edge resilientft.ScenarioEdge) bool {
		fmt.Printf("   [ground] possible transition %s -> %s: approve=%v\n", edge.From, edge.To, groundApproves)
		return groundApproves
	})
	svc := resilientft.NewResilience(resilientft.ResilienceConfig{
		Group:      resilientft.SystemGroup(sys, engine),
		FaultModel: resilientft.NewFaultModel(resilientft.FaultCrash),
		Traits:     resilientft.AppTraits{Deterministic: true, StateAccess: true, Version: "fsw-1.0"},
		Manager:    ground,
	})

	// The monitoring engine watches the single-event-upset counter.
	seu := monitor.NewErrorObserver("seu-counter", time.Minute)
	mon := resilientft.NewMonitor(time.Hour, svc.Sink()) // polled manually at telemetry passes
	mon.AddProbe(seu)
	mon.AddRule(resilientft.MonitorRule{
		Name: "radiation-aging", Probe: "seu-counter",
		Cond: monitor.Above, Threshold: 3,
		Trigger: core.TrigHardwareAging,
	})

	client, err := sys.NewClient()
	if err != nil {
		log.Fatal(err)
	}
	invoke := func(op string, arg int64) int64 {
		resp, err := client.Invoke(ctx, op, resilientft.EncodeArg(arg))
		if err != nil {
			log.Fatalf("%s: %v", op, err)
		}
		v, _ := resilientft.DecodeResult(resp.Payload)
		return v
	}
	report := func() {
		m := sys.Master()
		fmt.Printf("   active FTM: %s (master on %s)\n", m.FTM(), m.Host().Name())
	}

	fmt.Println("== cruise: routine telemetry processing ==")
	invoke("set:wheel-momentum", 120)
	invoke("add:wheel-momentum", 15)
	report()

	fmt.Println("== year 3: SEU counter rises — radiation is aging OBC-A ==")
	for i := 0; i < 5; i++ {
		seu.Report()
	}
	mon.Poll() // telemetry pass: the aging trigger fires
	fmt.Println("   trigger handled:", last(svc))
	report()
	fmt.Println("   transient value faults are now masked by time redundancy:")
	inj.InjectTransient(1)
	fmt.Printf("   add:wheel-momentum 5 -> %d (fault injected and masked)\n", invoke("add:wheel-momentum", 5))

	fmt.Println("== orbit insertion: ground declares a more critical phase (proactive) ==")
	d := svc.HandleTrigger(ctx, core.TrigCriticalPhase)
	fmt.Println("   trigger handled:", d)
	report()
	fmt.Println("   the assertion-checked duplex also covers permanent faults:")
	inj.SetPermanent(true)
	for i := 0; i < 4; i++ {
		fmt.Printf("   add:wheel-momentum 1 -> %d (OBC-A asserts, OBC-B re-executes)\n", invoke("add:wheel-momentum", 1))
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := sys.Master(); m != nil && m.Host().Name() == "obc-b" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("   OBC-A fell silent after persistent assertion failures; master now on %s\n",
		sys.Master().Host().Name())

	fmt.Println("== insertion complete: ground weighs relaxing the fault model ==")
	groundApproves = false
	d = svc.HandleTrigger(ctx, core.TrigLessCriticalPhase)
	fmt.Println("   trigger handled:", d, "(ground declines: aging persists)")
	report()

	fmt.Println("== year 5: ground uplinks a transition package developed after launch ==")
	// The package for A&PBR -> LFR⊕TR (science mode with time redundancy)
	// was developed and validated on the ground, then uplinked.
	for _, role := range []core.Role{core.RoleMaster, core.RoleSlave} {
		pkg, err := resilientft.BuildTransitionPackage("flightsw", resilientft.APBR, resilientft.LFRTR, role)
		if err != nil {
			log.Fatal(err)
		}
		repo.Upload("flightsw", pkg)
	}
	fmt.Printf("   uplinked; repository synthesized %d packages so far, uplinked ones take precedence\n", repo.Builds())
	groundApproves = true
	inj.SetPermanent(false)
	d = svc.HandleTrigger(ctx, core.TrigStateAccess) // A&Duplex -> LFR⊕TR (possible, approved)
	fmt.Println("   trigger handled:", d)
	report()
	fmt.Printf("   science continues: get:wheel-momentum -> %d\n", invoke("get:wheel-momentum", 0))

	fmt.Println("== mission log (resilience decisions) ==")
	for _, dec := range svc.Decisions() {
		fmt.Println("   ", dec)
	}
}

func last(svc *resilientft.Resilience) resilientft.Decision {
	ds := svc.Decisions()
	return ds[len(ds)-1]
}
