// Command cluster demonstrates the multi-replica variant the paper
// sketches ("we could also consider multiple Backups or Followers"): a
// PBR group with one primary and two backups. Checkpoints broadcast to
// every backup; when the primary crashes, the backups take over with
// rank-staggered delays so exactly one survivor promotes, and the group
// survives a second crash in master-alone mode.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"resilientft"
	"resilientft/internal/rpc"
)

func main() {
	ctx := context.Background()

	fmt.Println("== boot: PBR group of 3 (node0 primary, node1 and node2 backups) ==")
	cluster, err := resilientft.NewSystem(ctx, resilientft.SystemConfig{
		System:            "ledger",
		FTM:               resilientft.PBR,
		Replicas:          3,
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectTimeout:    120 * time.Millisecond,
		EventHook: func(host, event string) {
			fmt.Printf("   [%s] %s\n", host, event)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Shutdown()

	client, err := cluster.NewClient(rpc.WithCallTimeout(2*time.Second), rpc.WithMaxRounds(30))
	if err != nil {
		log.Fatal(err)
	}
	invoke := func(op string, arg int64) int64 {
		resp, err := client.Invoke(ctx, op, resilientft.EncodeArg(arg))
		if err != nil {
			log.Fatalf("%s: %v", op, err)
		}
		v, _ := resilientft.DecodeResult(resp.Payload)
		fmt.Printf("   %s %d -> %d\n", op, arg, v)
		return v
	}

	invoke("set:balance", 1000)
	invoke("add:balance", 250)

	fmt.Println("== both backups converge through broadcast checkpoints ==")
	time.Sleep(100 * time.Millisecond)
	for _, b := range cluster.Slaves() {
		fmt.Printf("   backup %s is synchronized\n", b.Host().Name())
	}

	fmt.Println("== crash the primary: rank-staggered takeover ==")
	cluster.CrashMaster()
	waitForMaster(cluster)
	fmt.Printf("   new primary: %s (%d backup(s) left)\n",
		cluster.Master().Host().Name(), len(cluster.Slaves()))
	invoke("get:balance", 0)
	invoke("add:balance", 50)

	fmt.Println("== crash the second primary: the last survivor carries on alone ==")
	cluster.CrashMaster()
	waitForMaster(cluster)
	fmt.Printf("   new primary: %s (master-alone)\n", cluster.Master().Host().Name())
	invoke("get:balance", 0)
	invoke("add:balance", 25)
	fmt.Println("done: two primary crashes, zero lost state.")
}

func waitForMaster(c *resilientft.System) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.Master() != nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	log.Fatal("no master emerged")
}
