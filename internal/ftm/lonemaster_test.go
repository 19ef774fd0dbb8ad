package ftm

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"resilientft/internal/component"
	"resilientft/internal/core"
	"resilientft/internal/rpc"
)

// TestLoneMasterProbesInsteadOfCheckpointing pins the master-alone PBR
// wave: once a wave found no peer, later waves probe the peer with one
// role query and release "degraded" without capturing the state for a
// full checkpoint that cannot land. When the peer is back, the probe
// answers and the full checkpoint resumes, so every write acked while
// alone survives a later failover to the rejoined replica.
func TestLoneMasterProbesInsteadOfCheckpointing(t *testing.T) {
	s := newTestSystem(t, core.PBR)
	master := s.Master()
	ctx := context.Background()

	// Count the master's full state captures, the expensive half of a
	// full checkpoint.
	server, err := master.Host().Runtime().Lookup(master.path + "/" + NameServer)
	if err != nil {
		t.Fatal(err)
	}
	var captures atomic.Int64
	err = server.AddInterceptor(component.Interceptor{
		Name: "count-captures",
		Around: func(ctx context.Context, service string, msg component.Message, next component.Invoker) (component.Message, error) {
			if service == SvcState && msg.Op == OpCaptureVersioned {
				captures.Add(1)
			}
			return next(ctx, msg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	type acked struct {
		c    *rpc.Client
		seq  uint64
		want int64
	}
	var acks []acked
	write := func(c *rpc.Client) {
		t.Helper()
		resp, err := c.Invoke(ctx, "add:x", EncodeArg(1))
		if err != nil {
			t.Fatalf("add: %v", err)
		}
		v, err := DecodeResult(resp.Payload)
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, acked{c, resp.Seq, v})
	}

	// Two clients keep each one's writes inside the reply log's
	// per-client retention, so every acked seq stays replayable.
	alone, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	idx := s.CrashSlave()
	if idx < 0 {
		t.Fatal("no slave to crash")
	}
	for i := 0; i < 50; i++ {
		write(alone)
	}
	// The first lone wave still builds one full checkpoint: it is the
	// one that discovers the peer is gone.
	if n := captures.Load(); n > 1 {
		t.Fatalf("lone master captured its state %d times over 50 writes, want at most 1", n)
	}

	if _, err := s.RestartReplica(ctx, idx); err != nil {
		t.Fatalf("RestartReplica: %v", err)
	}
	rejoined, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		write(rejoined)
	}

	s.CrashMaster()
	waitUntil(t, 5*time.Second, func() bool {
		m := s.Master()
		return m != nil && m != master
	}, "rejoined slave never took over")
	for _, w := range acks {
		resp, err := w.c.Redeliver(ctx, w.seq, "add:x", EncodeArg(1))
		if err != nil {
			t.Fatalf("redeliver %s seq %d: %v", w.c.ID(), w.seq, err)
		}
		v, err := DecodeResult(resp.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Replayed || v != w.want {
			t.Fatalf("%s seq %d: replayed=%v value %d, want a replay of %d", w.c.ID(), w.seq, resp.Replayed, v, w.want)
		}
	}
	if got := invoke(t, rejoined, "get:x", 0); got != 70 {
		t.Fatalf("state after failover = %d, want 70", got)
	}
}

// BenchmarkLoneMasterInvoke times one request on a PBR master whose
// slave is down, over a 4096-register state: the After stage's cost
// while degraded, which a full checkpoint per wave would dominate.
func BenchmarkLoneMasterInvoke(b *testing.B) {
	cfg := fastConfig(core.PBR)
	cfg.AppFactory = func() Application {
		c := NewCalculator()
		for i := 0; i < 4096; i++ {
			c.regs.Set(fmt.Sprintf("r%d", i), 7)
		}
		return c
	}
	s, err := NewSystem(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown()
	c, err := s.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	s.CrashSlave()
	ctx := context.Background()
	arg := EncodeArg(1)
	// The first lone wave discovers the missing peer.
	if _, err := c.Invoke(ctx, "add:x", arg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Invoke(ctx, "add:x", arg); err != nil {
			b.Fatal(err)
		}
	}
}
