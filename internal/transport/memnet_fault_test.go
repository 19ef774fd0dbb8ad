package transport

import (
	"context"
	"errors"
	"testing"
	"time"
)

// echoPair attaches endpoints a and b to a fresh network, with b echoing
// calls and recording one-way deliveries.
func echoPair(t *testing.T, opts ...MemOption) (*MemNetwork, Endpoint, Endpoint, *[]([]byte)) {
	t.Helper()
	n := NewMemNetwork(opts...)
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	b.Handle("echo", func(_ context.Context, p Packet) ([]byte, error) {
		<-mu
		got = append(got, append([]byte(nil), p.Payload...))
		mu <- struct{}{}
		return p.Payload, nil
	})
	return n, a, b, &got
}

func TestPartitionOneWayIsDirectional(t *testing.T) {
	n, a, b, _ := echoPair(t)
	a.Handle("echo", func(_ context.Context, p Packet) ([]byte, error) { return p.Payload, nil })

	n.PartitionOneWay("a", "b")
	if _, err := a.Call(context.Background(), "b", "echo", []byte("x")); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("a->b should be blocked, got %v", err)
	}
	// The reverse direction still flows one-way; a call from b executes
	// on a but its reply dies on the cut a->b return leg.
	executed := make(chan struct{}, 1)
	a.Handle("mark", func(_ context.Context, p Packet) ([]byte, error) {
		executed <- struct{}{}
		return nil, nil
	})
	if err := b.Send(context.Background(), "a", "mark", []byte("y")); err != nil {
		t.Fatalf("b->a send should flow: %v", err)
	}
	select {
	case <-executed:
	case <-time.After(time.Second):
		t.Fatal("b->a send never delivered")
	}
	if _, err := b.Call(context.Background(), "a", "echo", []byte("y")); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("b->a call should lose its reply on the cut return leg, got %v", err)
	}
	if !n.Partitioned("a", "b") || n.Partitioned("b", "a") {
		t.Fatalf("partition state wrong: a->b=%v b->a=%v", n.Partitioned("a", "b"), n.Partitioned("b", "a"))
	}

	n.HealOneWay("a", "b")
	if _, err := a.Call(context.Background(), "b", "echo", []byte("x")); err != nil {
		t.Fatalf("healed a->b should flow: %v", err)
	}
}

func TestSymmetricPartitionStillBlocksBothWays(t *testing.T) {
	n, a, b, _ := echoPair(t)
	a.Handle("echo", func(_ context.Context, p Packet) ([]byte, error) { return p.Payload, nil })

	n.Partition("a", "b")
	if _, err := a.Call(context.Background(), "b", "echo", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("a->b: want unreachable, got %v", err)
	}
	if _, err := b.Call(context.Background(), "a", "echo", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("b->a: want unreachable, got %v", err)
	}
	n.Heal("a", "b")
	if _, err := a.Call(context.Background(), "b", "echo", nil); err != nil {
		t.Fatalf("healed: %v", err)
	}
	// A one-way cut plus HealAll leaves a clean network.
	n.PartitionOneWay("b", "a")
	n.HealAll()
	if _, err := b.Call(context.Background(), "a", "echo", nil); err != nil {
		t.Fatalf("after HealAll: %v", err)
	}
}

func TestReplyLostWhenReverseLinkPartitioned(t *testing.T) {
	n := NewMemNetwork()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	executed := 0
	b.Handle("echo", func(_ context.Context, p Packet) ([]byte, error) {
		executed++
		// The handler itself cuts the reply path before returning: the
		// effect stands, the acknowledgement vanishes.
		n.PartitionOneWay("b", "a")
		return p.Payload, nil
	})
	_, err := a.Call(context.Background(), "b", "echo", []byte("x"))
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want lost reply as unreachable, got %v", err)
	}
	if executed != 1 {
		t.Fatalf("handler should have executed once, got %d", executed)
	}
}

func TestLinkFaultExtraLatencyIsDirectional(t *testing.T) {
	n, a, _, _ := echoPair(t)
	n.SetLinkFault("a", "b", LinkFault{ExtraLatency: 30 * time.Millisecond})

	start := time.Now()
	if _, err := a.Call(context.Background(), "b", "echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("gray link should add >=30ms, call took %v", d)
	}

	n.ClearLinkFault("a", "b")
	start = time.Now()
	if _, err := a.Call(context.Background(), "b", "echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("cleared link should be fast again, call took %v", d)
	}
}

func TestLinkFaultCallLoss(t *testing.T) {
	n, a, _, got := echoPair(t)
	n.SetLinkFault("a", "b", LinkFault{DropCalls: 1.0})

	before := DropCount(DropCallLoss)
	if _, err := a.Call(context.Background(), "b", "echo", []byte("x")); !errors.Is(err, ErrUnreachable) || errors.Is(err, ErrRefused) {
		t.Fatalf("want call loss as unreachable, not refused, got %v", err)
	}
	if len(*got) != 0 {
		t.Fatalf("request-leg loss must not reach the handler, got %d deliveries", len(*got))
	}
	if DropCount(DropCallLoss) != before+1 {
		t.Fatalf("call-loss drop not counted")
	}
	n.ClearLinkFaults()
	if _, err := a.Call(context.Background(), "b", "echo", []byte("x")); err != nil {
		t.Fatalf("cleared faults: %v", err)
	}
}

func TestLinkFaultOneWayLoss(t *testing.T) {
	n, a, _, got := echoPair(t)
	n.SetLinkFault("a", "b", LinkFault{Loss: 1.0})
	for i := 0; i < 20; i++ {
		if err := a.Send(context.Background(), "b", "echo", []byte("x")); err != nil {
			t.Fatalf("lossy send must stay silent: %v", err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if len(*got) != 0 {
		t.Fatalf("full loss delivered %d messages", len(*got))
	}
	// Calls are unaffected by one-way Loss (only DropCalls hits them).
	if _, err := a.Call(context.Background(), "b", "echo", []byte("x")); err != nil {
		t.Fatalf("call through Loss-only fault: %v", err)
	}
}

func TestLinkFaultCorruptionFlipsBitsDeterministically(t *testing.T) {
	run := func(seed int64) [][]byte {
		n, a, _, got := echoPair(t, WithSeed(seed))
		n.SetLinkFault("a", "b", LinkFault{Corrupt: 1.0})
		payload := []byte("hello, resilient world")
		for i := 0; i < 5; i++ {
			if _, err := a.Call(context.Background(), "b", "echo", payload); err != nil {
				t.Fatal(err)
			}
		}
		if string(payload) != "hello, resilient world" {
			t.Fatalf("corruption touched the caller's buffer: %q", payload)
		}
		return *got
	}
	first := run(7)
	if len(first) != 5 {
		t.Fatalf("want 5 deliveries, got %d", len(first))
	}
	mutated := 0
	for _, d := range first {
		if string(d) != "hello, resilient world" {
			mutated++
		}
	}
	if mutated == 0 {
		t.Fatal("Corrupt=1.0 never flipped a bit")
	}
	second := run(7)
	for i := range first {
		if string(first[i]) != string(second[i]) {
			t.Fatalf("same seed produced different corruption at delivery %d: %q vs %q", i, first[i], second[i])
		}
	}
}
