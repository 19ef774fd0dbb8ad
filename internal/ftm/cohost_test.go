package ftm

import (
	"context"
	"fmt"
	"testing"
	"time"

	"resilientft/internal/core"
	"resilientft/internal/host"
	"resilientft/internal/rpc"
	"resilientft/internal/telemetry"
	"resilientft/internal/transport"
)

// TestCoHostedGroupsFailOver runs resilientd's -shards topology on
// MemNetwork: four replica groups co-hosted on one endpoint pair, every
// master on one host and every slave on the other. It kills the master
// host fifty times, alternating sides, restarting it and rejoining its
// groups as slaves after each failover. Writes run between kills, never
// in flight at one. After every kill each group must have exactly one
// master and read back every acked write, and the heartbeat stream
// between the hosts must stay one beat per interval however many groups
// share it.
func TestCoHostedGroupsFailOver(t *testing.T) {
	const (
		groups   = 4
		kills    = 50
		interval = 10 * time.Millisecond
		suspect  = 60 * time.Millisecond
		// warm is the arrival count that trains a fresh φ model past its
		// bootstrap timeout (the watchdog's default MinSamples).
		warm = 8
	)
	net := transport.NewMemNetwork(transport.WithSeed(5))
	reg := NewRegistry()
	var hosts [2]*host.Host
	var beats [2]*telemetry.Histogram // the gaps between each host's beats, as its peer sees them
	for i, name := range []string{"cohost-a", "cohost-b"} {
		h, err := host.New(name, net, reg)
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = h
		beats[i] = telemetry.Default().Histogram("detector_interarrival", "peer", name)
	}
	t.Cleanup(func() {
		for _, h := range hosts {
			if !h.Crashed() {
				h.Crash()
			}
		}
	})

	ctx := context.Background()
	deploy := func(g, side int, role core.Role) *Replica {
		t.Helper()
		rep, err := NewReplica(ctx, hosts[side], ReplicaConfig{
			System:            fmt.Sprintf("cohost-%d", g),
			Group:             fmt.Sprint(g),
			FTM:               core.PBR,
			Role:              role,
			Peer:              hosts[1-side].Addr(),
			App:               NewCalculator(),
			HeartbeatInterval: interval,
			SuspectTimeout:    suspect,
		})
		if err != nil {
			t.Fatalf("group %d on %s: %v", g, hosts[side].Name(), err)
		}
		return rep
	}
	// warmUp waits until both sides have modelled enough of each other's
	// beats that the next silence is graded on the φ scale.
	warmUp := func(what string) {
		t.Helper()
		seen := [2]uint64{beats[0].Count(), beats[1].Count()}
		waitUntil(t, 5*time.Second, func() bool {
			return beats[0].Count() >= seen[0]+warm && beats[1].Count() >= seen[1]+warm
		}, what+": heartbeats stopped flowing between the hosts")
	}
	reps := make([][2]*Replica, groups)
	clients := make([]*rpc.Client, groups)
	for g := range reps {
		reps[g][0] = deploy(g, 0, core.RoleMaster)
		reps[g][1] = deploy(g, 1, core.RoleSlave)
		id := fmt.Sprintf("cohost-client-%d", g)
		ep, err := net.Endpoint(transport.Address(id))
		if err != nil {
			t.Fatal(err)
		}
		clients[g] = rpc.NewClient(id, ep, []transport.Address{hosts[0].Addr(), hosts[1].Addr()},
			rpc.WithGroup(fmt.Sprint(g)))
	}
	warmUp("deploy")

	acked := make([]int64, groups)
	call := func(g int, op string) int64 {
		t.Helper()
		resp, err := clients[g].Invoke(ctx, op, EncodeArg(1))
		if err != nil {
			t.Fatalf("group %d %s: %v", g, op, err)
		}
		v, err := DecodeResult(resp.Payload)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	masters := func(g int) int {
		n := 0
		for _, r := range reps[g] {
			if !r.Host().Crashed() && r.Role() == core.RoleMaster {
				n++
			}
		}
		return n
	}

	dead := 0 // the side holding every master
	for kill := 1; kill <= kills; kill++ {
		for g := range acked {
			for i := 0; i < 2; i++ {
				acked[g]++
				if v := call(g, "add:x"); v != acked[g] {
					t.Fatalf("kill %d: group %d add returned %d, want %d", kill, g, v, acked[g])
				}
			}
		}
		hosts[dead].Crash()
		survivor := 1 - dead
		waitUntil(t, 5*time.Second, func() bool {
			for g := range reps {
				if reps[g][survivor].Role() != core.RoleMaster {
					return false
				}
			}
			return true
		}, fmt.Sprintf("kill %d: not every group promoted on %s", kill, hosts[survivor].Name()))
		for g := range reps {
			if n := masters(g); n != 1 {
				t.Fatalf("kill %d: group %d has %d masters", kill, g, n)
			}
			if v := call(g, "get:x"); v != acked[g] {
				t.Fatalf("kill %d: group %d reads x = %d, want %d acked", kill, g, v, acked[g])
			}
		}

		if err := hosts[dead].Restart(); err != nil {
			t.Fatal(err)
		}
		for g := range reps {
			reps[g][dead] = deploy(g, dead, core.RoleSlave)
			if err := reps[g][dead].SyncFromPeer(ctx); err != nil {
				t.Fatalf("kill %d: group %d rejoin: %v", kill, g, err)
			}
		}
		warmUp(fmt.Sprintf("kill %d rejoin", kill))
		dead = survivor
	}
	for g := range reps {
		if n := masters(g); n != 1 {
			t.Fatalf("group %d ends with %d masters", g, n)
		}
	}

	// One beat stream per direction: the gaps each side observes are the
	// heartbeat interval, not an N-fold stream's near-zero gaps.
	for i, h := range hosts {
		if p50 := beats[i].Quantile(0.5); p50 < interval*9/10 {
			t.Errorf("detector_interarrival{peer=%q} p50 = %v, want >= %v", h.Name(), p50, interval*9/10)
		}
	}
}
