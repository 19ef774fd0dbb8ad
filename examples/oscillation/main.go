// Command oscillation demonstrates the stability analysis of §5.4: a
// resource parameter flapping around its reconfiguration threshold must
// not make the system reconfigure itself back and forth. Two mechanisms
// prevent it: the monitoring engine's rules are edge-triggered with
// hysteresis, and the reverse of every mandatory transition is a possible
// one gated by the system manager.
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
	sys, err := resilientft.NewSystem(ctx, resilientft.SystemConfig{
		System:            "calc",
		FTM:               resilientft.PBR,
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectTimeout:    120 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Shutdown()

	approvals := 0
	manager := resilientft.ManagerFunc(func(edge resilientft.ScenarioEdge) bool {
		approvals++
		fmt.Printf("   [manager] asked about %s -> %s (request #%d): declining\n",
			edge.From, edge.To, approvals)
		return false
	})
	svc := resilientft.NewResilience(resilientft.ResilienceConfig{
		Group:      resilientft.SystemGroup(sys, nil),
		FaultModel: resilientft.NewFaultModel(resilientft.FaultCrash),
		Traits:     resilientft.AppTraits{Deterministic: true, StateAccess: true},
		Manager:    manager,
	})

	res := sys.Hosts()[0].Resources()
	mon := resilientft.NewMonitor(time.Hour, svc.Sink())
	mon.AddProbe(monitor.BandwidthProbe("bw", res))
	mon.AddRule(resilientft.MonitorRule{
		Name: "bw-drop", Probe: "bw", Cond: monitor.Below,
		Threshold: 1000, Consecutive: 3, Trigger: core.TrigBandwidthDrop,
	})
	mon.AddRule(resilientft.MonitorRule{
		Name: "bw-back", Probe: "bw", Cond: monitor.Above,
		Threshold: 2000, Consecutive: 3, Trigger: core.TrigBandwidthIncrease,
	})

	fmt.Println("== bandwidth flaps around the 1000 kbit/s threshold for 30 samples ==")
	samples := []float64{
		900, 1100, 950, 1050, 980, // noise: hysteresis absorbs it
		800, 750, 700, 650, 600, // sustained drop: rule fires once
		900, 2500, 800, 2600, 700, // flapping across both thresholds
		2500, 2600, 2700, 2800, 2900, // sustained recovery: reverse fires once
		900, 850, 800, 750, 700, // sustained drop again
		2500, 2600, 2700, 2800, 2900, // and recovery again
	}
	for i, bw := range samples {
		res.SetBandwidth(bw)
		for _, trig := range mon.Poll() {
			fmt.Printf("   sample %2d (%5.0f kbit/s): trigger %s\n", i, bw, trig)
		}
	}

	transitions := 0
	for _, d := range svc.Decisions() {
		fmt.Println("  ", d)
		if d.Action == "transition-executed" {
			transitions++
		}
	}
	fmt.Printf("== result: %d trigger(s) fired, %d transition(s) executed, %d manager consultation(s) ==\n",
		len(mon.Fired()), transitions, approvals)
	fmt.Printf("   active FTM settled on %s — no oscillation despite 30 flapping samples\n",
		sys.Master().FTM())
}
