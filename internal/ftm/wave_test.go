package ftm

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resilientft/internal/rpc"
	"resilientft/internal/telemetry"
)

func TestWaveJoinAccumulatesMembers(t *testing.T) {
	n := newWaveNotifier(0)
	w1 := n.join(3, nil, telemetry.SpanContext{})
	w2 := n.join(7, &rpc.Response{Seq: 7}, telemetry.SpanContext{})
	if w1 != w2 {
		t.Fatal("two joins with an open wave should share it")
	}
	if w1.members != 2 {
		t.Fatalf("members = %d, want 2", w1.members)
	}
	if w1.maxSeq != 7 {
		t.Fatalf("maxSeq = %d, want 7", w1.maxSeq)
	}
	if len(w1.resps) != 1 || w1.resps[0].Seq != 7 {
		t.Fatalf("resps = %+v, want one response with seq 7", w1.resps)
	}
}

func TestWaveMaxWaveCapOpensNewWave(t *testing.T) {
	n := newWaveNotifier(2)
	w1 := n.join(1, nil, telemetry.SpanContext{})
	n.join(2, nil, telemetry.SpanContext{})
	w3 := n.join(3, nil, telemetry.SpanContext{})
	if w1 == w3 {
		t.Fatal("third join should overflow into a fresh wave (maxWave=2)")
	}
	if w1.members != 2 || w3.members != 1 {
		t.Fatalf("members = %d/%d, want 2/1", w1.members, w3.members)
	}
}

func TestWaveDetachMergesWholeWavesUpToCap(t *testing.T) {
	n := newWaveNotifier(3)
	n.join(1, nil, telemetry.SpanContext{})
	n.join(2, nil, telemetry.SpanContext{})
	n.join(3, nil, telemetry.SpanContext{}) // fills wave 1
	n.join(4, nil, telemetry.SpanContext{}) // wave 2
	batch := n.detach()
	if len(batch) != 1 {
		t.Fatalf("detach took %d waves, want 1 (merging wave 2 would exceed the cap)", len(batch))
	}
	if batch[0].members != 3 {
		t.Fatalf("detached members = %d, want 3", batch[0].members)
	}
	rest := n.detach()
	if len(rest) != 1 || rest[0].members != 1 {
		t.Fatalf("second detach = %+v, want the one-member second wave", rest)
	}
	if n.detach() != nil {
		t.Fatal("third detach should find an empty queue")
	}
}

func TestWaveDetachAlwaysTakesAtLeastOneWave(t *testing.T) {
	n := newWaveNotifier(0)
	for i := 0; i < 5; i++ {
		n.join(uint64(i), nil, telemetry.SpanContext{})
	}
	n.maxWave = 1 // cap below the open wave's size
	batch := n.detach()
	if len(batch) != 1 || batch[0].members != 5 {
		t.Fatalf("detach = %+v, want the full 5-member wave despite the lowered cap", batch)
	}
}

func TestWaveRideShipsOwnWave(t *testing.T) {
	n := newWaveNotifier(0)
	w := n.join(1, nil, telemetry.SpanContext{})
	var ships atomic.Int32
	outcome, err := n.ride(context.Background(), w, func(batch []*commitWave) (string, error) {
		ships.Add(1)
		if len(batch) != 1 || batch[0] != w {
			t.Errorf("batch = %+v, want exactly the rider's wave", batch)
		}
		return "ok", nil
	})
	if err != nil || outcome != "ok" {
		t.Fatalf("ride = %q, %v", outcome, err)
	}
	if ships.Load() != 1 {
		t.Fatalf("ships = %d, want 1", ships.Load())
	}
}

func TestWaveRidePropagatesShipError(t *testing.T) {
	n := newWaveNotifier(0)
	w := n.join(1, nil, telemetry.SpanContext{})
	boom := errors.New("ship sank")
	_, err := n.ride(context.Background(), w, func([]*commitWave) (string, error) {
		return "", boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the ship error", err)
	}
}

func TestWaveLeaderCoversWaiters(t *testing.T) {
	// Many concurrent riders, a slow ship: far fewer ships than riders
	// must be enough to release everyone — that is the whole point of
	// group commit.
	n := newWaveNotifier(0)
	const riders = 32
	var ships atomic.Int32
	var covered atomic.Int32
	ship := func(batch []*commitWave) (string, error) {
		ships.Add(1)
		time.Sleep(5 * time.Millisecond) // let waiters pile up
		for _, w := range batch {
			covered.Add(int32(w.members))
		}
		return "ok", nil
	}
	var wg sync.WaitGroup
	errs := make([]error, riders)
	for i := 0; i < riders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := n.join(uint64(i), nil, telemetry.SpanContext{})
			outcome, err := n.ride(context.Background(), w, ship)
			if err == nil && outcome != "ok" {
				err = errors.New("outcome " + outcome)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rider %d: %v", i, err)
		}
	}
	if got := covered.Load(); got != riders {
		t.Fatalf("ships covered %d members, want %d", got, riders)
	}
	if s := ships.Load(); s >= riders {
		t.Fatalf("%d ships for %d riders — no batching happened", s, riders)
	}
}

func TestWaveOrphanedTokenIsReclaimed(t *testing.T) {
	// A leader releasing the token with nobody waiting must not strand
	// it: the next rider claims the parked token.
	n := newWaveNotifier(0)
	for round := 0; round < 3; round++ {
		w := n.join(uint64(round), nil, telemetry.SpanContext{})
		done := make(chan error, 1)
		go func() {
			_, err := n.ride(context.Background(), w, func(batch []*commitWave) (string, error) {
				return "ok", nil
			})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: rider stuck — leadership token lost", round)
		}
	}
}

func TestWaveRideHonorsContext(t *testing.T) {
	n := newWaveNotifier(0)
	// Park the token on a leader that never finishes its ship.
	blockForever := make(chan struct{})
	defer close(blockForever)
	shipping := make(chan struct{})
	w1 := n.join(1, nil, telemetry.SpanContext{})
	go n.ride(context.Background(), w1, func([]*commitWave) (string, error) {
		close(shipping)
		<-blockForever
		return "ok", nil
	})
	// Second rider joins a fresh wave behind the stuck leader and gives
	// up via its context.
	<-shipping // the leader detached w1 and holds the token
	w2 := n.join(2, nil, telemetry.SpanContext{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := n.ride(ctx, w2, func([]*commitWave) (string, error) {
		t.Error("second rider must not ship: the token is held")
		return "ok", nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
