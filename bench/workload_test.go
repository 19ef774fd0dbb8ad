package main

import (
	"reflect"
	"testing"
	"time"
)

func TestPlanIsAFunctionOfItsArguments(t *testing.T) {
	for _, w := range workloads {
		a, err := makePlan(w, 7, 24)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		b, _ := makePlan(w, 7, 24)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different plans", w.Name)
		}
		c, _ := makePlan(w, 8, 24)
		if reflect.DeepEqual(a.TransitionAt, c.TransitionAt) && a.KillAt == c.KillAt {
			t.Errorf("%s: another seed gave the same fault offsets", w.Name)
		}
		if w.Open && reflect.DeepEqual(a.Arrivals, c.Arrivals) {
			t.Errorf("%s: another seed gave the same arrivals", w.Name)
		}
		if got := a.Total(); got != 24*time.Second {
			t.Errorf("%s: phases sum to %v, want 24s", w.Name, got)
		}
		if a.Transitions != w.Transitions || a.Kills != w.Kills {
			t.Errorf("%s: 24 s cut the fault schedule to %d transitions, %d kills", w.Name, a.Transitions, a.Kills)
		}
		if len(a.TransitionAt) != a.Transitions || len(a.KillPause) != a.Kills-1 {
			t.Errorf("%s: schedule lengths %d/%d do not match counts %d/%d", w.Name, len(a.TransitionAt), len(a.KillPause), a.Transitions, a.Kills)
		}
	}
}

func TestOpenLoopArrivals(t *testing.T) {
	w, _ := workloadByName("open_pbr")
	p, err := makePlan(w, 1, 24)
	if err != nil {
		t.Fatal(err)
	}
	span := (p.Warmup + p.Total() + arrivalSlack).Seconds()
	rate := float64(len(p.Arrivals)) / span
	if rate < w.Rate*0.97 || rate > w.Rate*1.03 {
		t.Errorf("offered rate %.0f req/s, want about %.0f", rate, w.Rate)
	}
	reads := 0
	for i, a := range p.Arrivals {
		if i > 0 && a.Due < p.Arrivals[i-1].Due {
			t.Fatalf("arrival %d is due before its predecessor", i)
		}
		if a.Reg < 0 || a.Reg >= w.Regs {
			t.Fatalf("arrival %d uses register %d of %d", i, a.Reg, w.Regs)
		}
		if a.Read {
			reads++
		}
	}
	if share := float64(reads) / float64(len(p.Arrivals)); share < 0.18 || share > 0.22 {
		t.Errorf("read share %.3f, want about %.2f", share, w.ReadShare)
	}
}

func TestShortRunsKeepEveryPhase(t *testing.T) {
	for _, w := range workloads {
		p, err := makePlan(w, 1, minSeconds)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if p.Kills < 1 || p.Transitions < 2 || p.Transitions%2 != 0 {
			t.Errorf("%s: %d s leaves %d transitions, %d kills", w.Name, minSeconds, p.Transitions, p.Kills)
		}
		if p.Steady < time.Second || p.Windows < 1 {
			t.Errorf("%s: steady phase %v in %d windows", w.Name, p.Steady, p.Windows)
		}
	}
	if _, err := makePlan(workloads[0], 1, minSeconds-1); err == nil {
		t.Errorf("a %d s run was accepted", minSeconds-1)
	}
}

func TestClosedLoopOpsRepeat(t *testing.T) {
	w, _ := workloadByName("closed_sharded_mixed")
	a, b, other := newClientOps(3, 5, w), newClientOps(3, 5, w), newClientOps(3, 6, w)
	same := true
	for i := 0; i < 1000; i++ {
		ra, da := a.next()
		rb, db := b.next()
		ro, do := other.next()
		if ra != rb || da != db {
			t.Fatalf("op %d differs for the same seed and client", i)
		}
		same = same && ra == ro && da == do
	}
	if same {
		t.Errorf("two clients drew the same op stream")
	}
}
