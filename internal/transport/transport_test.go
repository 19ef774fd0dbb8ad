package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMemCallRoundTrip(t *testing.T) {
	n := NewMemNetwork()
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatalf("Endpoint a: %v", err)
	}
	b, err := n.Endpoint("b")
	if err != nil {
		t.Fatalf("Endpoint b: %v", err)
	}
	b.Handle("echo", func(ctx context.Context, p Packet) ([]byte, error) {
		if p.From != "a" {
			t.Errorf("From = %s, want a", p.From)
		}
		return append([]byte("re:"), p.Payload...), nil
	})
	reply, err := a.Call(context.Background(), "b", "echo", []byte("hi"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(reply) != "re:hi" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestMemCallToMissingEndpoint(t *testing.T) {
	n := NewMemNetwork()
	a, _ := n.Endpoint("a")
	if _, err := a.Call(context.Background(), "ghost", "echo", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("Call ghost: err = %v, want ErrUnreachable", err)
	}
}

func TestMemCallNoHandler(t *testing.T) {
	n := NewMemNetwork()
	a, _ := n.Endpoint("a")
	_, _ = n.Endpoint("b")
	if _, err := a.Call(context.Background(), "b", "none", nil); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("Call without handler: err = %v, want ErrNoHandler", err)
	}
}

func TestMemHandlerErrorWrapped(t *testing.T) {
	n := NewMemNetwork()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	b.Handle("boom", func(ctx context.Context, p Packet) ([]byte, error) {
		return nil, errors.New("kaput")
	})
	_, err := a.Call(context.Background(), "b", "boom", nil)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("Call: err = %v, want ErrRemote", err)
	}
}

func TestMemSendOneWay(t *testing.T) {
	n := NewMemNetwork()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	got := make(chan []byte, 1)
	b.Handle("hb", func(ctx context.Context, p Packet) ([]byte, error) {
		got <- p.Payload
		return nil, nil
	})
	if err := a.Send(context.Background(), "b", "hb", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case p := <-got:
		if string(p) != "x" {
			t.Fatalf("payload = %q", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("one-way message never delivered")
	}
}

func TestMemPartition(t *testing.T) {
	n := NewMemNetwork()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	b.Handle("echo", func(ctx context.Context, p Packet) ([]byte, error) { return p.Payload, nil })

	n.Partition("a", "b")
	if _, err := a.Call(context.Background(), "b", "echo", nil); !errors.Is(err, ErrUnreachable) || errors.Is(err, ErrRefused) {
		t.Fatalf("Call across partition: err = %v, want ErrUnreachable without ErrRefused", err)
	}
	// A partition is silence, not a refusal: it is not a crash witness.
	if err := a.Send(context.Background(), "b", "echo", nil); !errors.Is(err, ErrUnreachable) || errors.Is(err, ErrRefused) {
		t.Fatalf("Send across partition: err = %v, want ErrUnreachable without ErrRefused", err)
	}
	n.Heal("a", "b")
	if _, err := a.Call(context.Background(), "b", "echo", nil); err != nil {
		t.Fatalf("Call after heal: %v", err)
	}
	n.Partition("a", "b")
	n.HealAll()
	if _, err := a.Call(context.Background(), "b", "echo", nil); err != nil {
		t.Fatalf("Call after HealAll: %v", err)
	}
}

func TestMemClosedEndpointUnreachable(t *testing.T) {
	n := NewMemNetwork()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	b.Handle("echo", func(ctx context.Context, p Packet) ([]byte, error) { return p.Payload, nil })
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := a.Call(context.Background(), "b", "echo", nil); !errors.Is(err, ErrUnreachable) || !errors.Is(err, ErrRefused) {
		t.Fatalf("Call closed endpoint: err = %v, want ErrUnreachable and ErrRefused", err)
	}
	// A closed endpoint is what a crashed host leaves behind: it refuses,
	// as a TCP port with no listener does.
	if err := a.Send(context.Background(), "b", "echo", nil); !errors.Is(err, ErrUnreachable) || !errors.Is(err, ErrRefused) {
		t.Fatalf("Send to closed endpoint: err = %v, want ErrUnreachable and ErrRefused", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close a: %v", err)
	}
	if _, err := a.Call(context.Background(), "b", "echo", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Call from closed endpoint: err = %v, want ErrClosed", err)
	}
}

func TestMemLatencyApplied(t *testing.T) {
	n := NewMemNetwork(WithLatency(20 * time.Millisecond))
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	b.Handle("echo", func(ctx context.Context, p Packet) ([]byte, error) { return p.Payload, nil })
	start := time.Now()
	if _, err := a.Call(context.Background(), "b", "echo", nil); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if rtt := time.Since(start); rtt < 40*time.Millisecond {
		t.Fatalf("round trip = %v, want >= 40ms (2x one-way latency)", rtt)
	}
}

func TestMemCallHonorsContext(t *testing.T) {
	n := NewMemNetwork(WithLatency(time.Second))
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	b.Handle("echo", func(ctx context.Context, p Packet) ([]byte, error) { return p.Payload, nil })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := a.Call(ctx, "b", "echo", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Call: err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("Call did not return promptly on context expiry")
	}
}

func TestMemLossDropsSends(t *testing.T) {
	n := NewMemNetwork(WithLoss(1.0), WithSeed(42))
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	var received atomic.Int64
	b.Handle("hb", func(ctx context.Context, p Packet) ([]byte, error) {
		received.Add(1)
		return nil, nil
	})
	for i := 0; i < 20; i++ {
		if err := a.Send(context.Background(), "b", "hb", nil); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if got := received.Load(); got != 0 {
		t.Fatalf("received %d messages on a fully lossy link", got)
	}
	// Calls are never lost: they model connection-oriented traffic.
	b.Handle("echo", func(ctx context.Context, p Packet) ([]byte, error) { return p.Payload, nil })
	if _, err := a.Call(context.Background(), "b", "echo", nil); err != nil {
		t.Fatalf("Call on lossy network: %v", err)
	}
}

func TestMemStatsAccounting(t *testing.T) {
	n := NewMemNetwork()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	b.Handle("echo", func(ctx context.Context, p Packet) ([]byte, error) { return p.Payload, nil })
	payload := make([]byte, 100)
	if _, err := a.Call(context.Background(), "b", "echo", payload); err != nil {
		t.Fatalf("Call: %v", err)
	}
	sa, sb := n.Stats("a"), n.Stats("b")
	if sa.MessagesSent != 1 || sa.BytesSent != 100 {
		t.Fatalf("a stats = %+v", sa)
	}
	if sb.MessagesReceived != 1 || sb.BytesReceived != 100 {
		t.Fatalf("b stats = %+v", sb)
	}
	if sa.BytesReceived != 100 {
		t.Fatalf("a reply accounting = %+v", sa)
	}
}

func TestMemDuplicateAddress(t *testing.T) {
	n := NewMemNetwork()
	if _, err := n.Endpoint("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Endpoint("a"); err == nil {
		t.Fatal("duplicate address accepted")
	}
}

func TestMemConcurrentCalls(t *testing.T) {
	n := NewMemNetwork(WithJitter(time.Millisecond), WithSeed(3))
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	b.Handle("echo", func(ctx context.Context, p Packet) ([]byte, error) { return p.Payload, nil })
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("m%d", i)
			reply, err := a.Call(context.Background(), "b", "echo", []byte(want))
			if err != nil {
				t.Errorf("Call %d: %v", i, err)
				return
			}
			if string(reply) != want {
				t.Errorf("reply %d = %q, want %q", i, reply, want)
			}
		}(i)
	}
	wg.Wait()
}

func TestGobCodecRoundTrip(t *testing.T) {
	type record struct {
		ID    uint64
		Name  string
		Blob  []byte
		Count int
	}
	in := record{ID: 7, Name: "checkpoint", Blob: []byte{1, 2, 3}, Count: -4}
	data, err := Encode(in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var out record
	if err := Decode(data, &out); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out.ID != in.ID || out.Name != in.Name || out.Count != in.Count || string(out.Blob) != string(in.Blob) {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

func TestDecodeGarbageFails(t *testing.T) {
	var out int
	if err := Decode([]byte{0xde, 0xad}, &out); err == nil {
		t.Fatal("Decode accepted garbage")
	}
}

func TestTCPCallRoundTrip(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenTCP a: %v", err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenTCP b: %v", err)
	}
	defer b.Close()
	b.Handle("echo", func(ctx context.Context, p Packet) ([]byte, error) {
		return append([]byte("re:"), p.Payload...), nil
	})
	reply, err := a.Call(context.Background(), b.Addr(), "echo", []byte("tcp"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(reply) != "re:tcp" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestTCPHandlerError(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Handle("boom", func(ctx context.Context, p Packet) ([]byte, error) {
		return nil, errors.New("server-side failure")
	})
	if _, err := a.Call(context.Background(), b.Addr(), "boom", nil); !errors.Is(err, ErrRemote) {
		t.Fatalf("Call: err = %v, want ErrRemote", err)
	}
	if _, err := a.Call(context.Background(), b.Addr(), "missing", nil); !errors.Is(err, ErrRemote) {
		t.Fatalf("Call missing handler: err = %v, want ErrRemote", err)
	}
}

func TestTCPSendOneWay(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got := make(chan string, 1)
	b.Handle("hb", func(ctx context.Context, p Packet) ([]byte, error) {
		got <- string(p.Payload)
		return nil, nil
	})
	if err := a.Send(context.Background(), b.Addr(), "hb", []byte("beat")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case v := <-got:
		if v != "beat" {
			t.Fatalf("payload = %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("one-way TCP message never delivered")
	}
}

func TestTCPClosedUnreachable(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := a.Call(context.Background(), addr, "echo", nil); !errors.Is(err, ErrUnreachable) || !errors.Is(err, ErrRefused) {
		t.Fatalf("Call closed TCP endpoint: err = %v, want ErrUnreachable and ErrRefused", err)
	}
	// Nothing listens at the address any more, so the dial is refused:
	// the crash witness a heartbeat reports to the failure detector.
	if err := a.Send(context.Background(), addr, "beat", nil); !errors.Is(err, ErrUnreachable) || !errors.Is(err, ErrRefused) {
		t.Fatalf("Send to closed TCP endpoint: err = %v, want ErrUnreachable and ErrRefused", err)
	}
}

func TestTCPCallsArePipelined(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	const delay = 100 * time.Millisecond
	b.Handle("slow", func(ctx context.Context, p Packet) ([]byte, error) {
		time.Sleep(delay)
		return append([]byte("re:"), p.Payload...), nil
	})
	// Eight concurrent calls over the one pooled connection. Pipelined,
	// they finish in roughly one handler delay; a sequential link would
	// need eight.
	const calls = 8
	var wg sync.WaitGroup
	start := time.Now()
	errs := make([]error, calls)
	replies := make([]string, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reply, err := a.Call(context.Background(), b.Addr(), "slow", []byte(fmt.Sprintf("c%d", i)))
			errs[i], replies[i] = err, string(reply)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i := 0; i < calls; i++ {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		if want := fmt.Sprintf("re:c%d", i); replies[i] != want {
			t.Fatalf("call %d: reply = %q, want %q (misrouted correlation ID?)", i, replies[i], want)
		}
	}
	if elapsed > time.Duration(calls)*delay/2 {
		t.Fatalf("8 concurrent calls took %v; a pipelined link should take about one %v handler delay, not %d stacked", elapsed, delay, calls)
	}
}

func TestTCPCallContextTimeout(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	release := make(chan struct{})
	b.Handle("stall", func(ctx context.Context, p Packet) ([]byte, error) {
		<-release
		return nil, nil
	})
	defer close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := a.Call(ctx, b.Addr(), "stall", nil); !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrRefused) {
		t.Fatalf("Call: err = %v, want context.DeadlineExceeded, not ErrRefused", err)
	}
	// The connection survives an abandoned call: later calls still work.
	b.Handle("echo", func(ctx context.Context, p Packet) ([]byte, error) {
		return p.Payload, nil
	})
	reply, err := a.Call(context.Background(), b.Addr(), "echo", []byte("after"))
	if err != nil {
		t.Fatalf("Call after timeout: %v", err)
	}
	if string(reply) != "after" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.Handle("echo", func(ctx context.Context, p Packet) ([]byte, error) {
		return p.Payload, nil
	})
	addr := string(b.Addr())
	if _, err := a.Call(context.Background(), Address(addr), "echo", []byte("x")); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Restart the peer on the same port; the stale pooled connection must
	// be replaced transparently (the write fails, the call redials once).
	b2, err := ListenTCP(addr)
	if err != nil {
		t.Skipf("port %s not immediately reusable: %v", addr, err)
	}
	defer b2.Close()
	b2.Handle("echo", func(ctx context.Context, p Packet) ([]byte, error) {
		return append([]byte("v2:"), p.Payload...), nil
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		reply, err := a.Call(context.Background(), Address(addr), "echo", []byte("y"))
		if err == nil {
			if string(reply) != "v2:y" {
				t.Fatalf("reply = %q", reply)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("Call after peer restart never succeeded: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
