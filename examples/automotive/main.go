// Command automotive plays the paper's other motivating scenario:
// over-the-air software updates in a vehicle. Application updates change
// the A characteristics (a new version may lose determinism or state
// access), connectivity changes the R characteristics, and the resilience
// service must keep the attached FTM consistent across all of it — with
// the fleet operator as the man-in-the-loop.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"resilientft"
	"resilientft/internal/core"
	"resilientft/internal/monitor"
)

func main() {
	ctx := context.Background()

	fmt.Println("== vehicle boots: driving function v1.0 (deterministic) under LFR ==")
	sys, err := resilientft.NewSystem(ctx, resilientft.SystemConfig{
		System:            "drivefn",
		FTM:               resilientft.LFR,
		HostNames:         [2]string{"ecu-1", "ecu-2"},
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectTimeout:    120 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Shutdown()

	operatorApproves := true
	operator := resilientft.ManagerFunc(func(edge resilientft.ScenarioEdge) bool {
		fmt.Printf("   [fleet-ops] possible transition %s -> %s: approve=%v\n",
			edge.From, edge.To, operatorApproves)
		return operatorApproves
	})
	svc := resilientft.NewResilience(resilientft.ResilienceConfig{
		Group:      resilientft.SystemGroup(sys, nil),
		FaultModel: resilientft.NewFaultModel(resilientft.FaultCrash),
		Traits:     resilientft.AppTraits{Deterministic: true, StateAccess: true, Version: "v1.0"},
		Manager:    operator,
	})

	// Connectivity monitoring on the telematics link.
	link := sys.Hosts()[0].Resources()
	mon := resilientft.NewMonitor(time.Hour, svc.Sink())
	mon.AddProbe(monitor.BandwidthProbe("telematics", link))
	mon.AddRule(resilientft.MonitorRule{
		Name: "tunnel", Probe: "telematics",
		Cond: monitor.Below, Threshold: 1000, Consecutive: 2,
		Trigger: core.TrigBandwidthDrop,
	})

	client, err := sys.NewClient()
	if err != nil {
		log.Fatal(err)
	}
	drive := func(op string, arg int64) {
		resp, err := client.Invoke(ctx, op, resilientft.EncodeArg(arg))
		if err != nil {
			log.Fatalf("%s: %v", op, err)
		}
		v, _ := resilientft.DecodeResult(resp.Payload)
		fmt.Printf("   %s %d -> %d\n", op, arg, v)
	}
	state := func() {
		m := sys.Master()
		ft, traits, _ := svc.Model()
		fmt.Printf("   FTM=%s  FT=%s  A=%s\n", m.FTM(), ft, traits)
	}

	drive("set:speed-setpoint", 110)
	state()

	fmt.Println("== OTA update v2.0: the new planner is non-deterministic ==")
	d := svc.HandleTrigger(ctx, core.TrigAppNonDeterminism)
	fmt.Println("   decision:", d)
	state()
	drive("add:speed-setpoint", 10)

	fmt.Println("== the car enters a long tunnel: telematics bandwidth collapses ==")
	link.SetBandwidth(200)
	mon.Poll()
	mon.Poll() // hysteresis satisfied on the second sample
	d = lastDecision(svc)
	fmt.Println("   decision:", d)
	if len(d.Inconsistencies) > 0 {
		fmt.Println("   WARNING — deployed FTM inconsistent with (FT,A,R):")
		for _, inc := range d.Inconsistencies {
			fmt.Println("     -", inc)
		}
		fmt.Println("   (PBR needs bandwidth, LFR needs determinism: v2.0 has no generic solution here)")
	}

	fmt.Println("== hotfix v2.1 restores determinism; fleet-ops approves moving to LFR ==")
	d = svc.HandleTrigger(ctx, core.TrigAppDeterminism)
	fmt.Println("   decision:", d)
	state()
	drive("add:speed-setpoint", 5)

	fmt.Println("== tunnel exit: bandwidth back; fleet-ops declines churning back to PBR ==")
	link.SetBandwidth(50_000)
	operatorApproves = false
	d = svc.HandleTrigger(ctx, core.TrigBandwidthIncrease)
	fmt.Println("   decision:", d)
	state()

	fmt.Println("== decision log ==")
	for _, dec := range svc.Decisions() {
		fmt.Println("   ", dec)
	}
}

func lastDecision(svc *resilientft.Resilience) resilientft.Decision {
	ds := svc.Decisions()
	return ds[len(ds)-1]
}
