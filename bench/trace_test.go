package main

import "testing"

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	spans := link([]span{
		{Name: "child-b", Start: 20, End: 50}, // overlaps child-a
		{Name: spanInvoke, Start: 0, End: 100},
		{Name: "child-a", Start: 10, End: 30},
		{Name: "child-c", Start: 60, End: 70},
		{Name: "grandchild", Start: 62, End: 65},
	})
	self := selfTimes(spans)
	got := map[string]int64{}
	for i, s := range spans {
		got[s.Name] = self[i]
	}
	// child-b starts inside child-a, so it nests under it and is clipped
	// to it: a's children cover [20,30), the root's cover [10,30)+[60,70).
	want := map[string]int64{spanInvoke: 70, "child-a": 10, "child-b": 30, "child-c": 7, "grandchild": 3}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestSiblingsThatOverlapAreCountedOnce(t *testing.T) {
	// Two children of one parent overlapping in time, as two concurrent
	// calls made by one layer would: the union, not the sum, is taken.
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},
		{Name: "late", Start: 90, End: 130, Parent: 0}, // outlives the parent
	}
	self := selfTimes(spans)
	if self[0] != 100-50-10 {
		t.Errorf("parent self = %d, want 40", self[0])
	}
}

func TestBudgetSumsToInvokeTotal(t *testing.T) {
	var spans []span
	for r := int64(0); r < 50; r++ {
		base := r * 1000
		spans = append(spans,
			span{Name: spanInvoke, Start: base, End: base + 900},
			span{Name: spanClientCall, Start: base + 20, End: base + 880},
			span{Name: spanServe, Start: base + 100, End: base + 800},
			span{Name: spanProcess, Start: base + 150, End: base + 200},
			span{Name: spanShipCall, Start: base + 300, End: base + 700},
			span{Name: spanSlaveHandle, Start: base + 400, End: base + 600},
			span{Name: spanApplyDelta, Start: base + 450, End: base + 500},
		)
	}
	// A background ship between requests belongs to no request.
	spans = append(spans, span{Name: spanShipCall, Start: 950, End: 990})
	b := makeBudget(spans)
	if b.Requests != 50 || b.InvokeUS != 0.9 {
		t.Fatalf("budget over %d requests, %.3f us each", b.Requests, b.InvokeUS)
	}
	sum := 0.0
	for _, row := range b.Rows {
		sum += row.SelfUS
	}
	if diff := sum - b.InvokeUS; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("self times sum to %.6f us, rpc.invoke is %.6f us", sum, b.InvokeUS)
	}
	if b.Unaccounted != 0 {
		t.Errorf("unaccounted share %v", b.Unaccounted)
	}
	if got := b.self(spanShipCall); got != 0.2 {
		t.Errorf("ship self = %v us, want 0.2 (the background ship must not count)", got)
	}
	if got := b.self(spanInvoke); got != 0.04 {
		t.Errorf("invoke self = %v us, want 0.04", got)
	}
}

func TestCoveredCountsOpenHandlers(t *testing.T) {
	spans := link([]span{
		{Name: spanServe, Start: 0, End: 100},
		{Name: spanServe, Start: 5, End: 95},
		{Name: spanShipCall, Start: 10, End: 90},
	})
	for _, s := range spans {
		if s.Name == spanShipCall && s.Covered != 2 {
			t.Errorf("ship covered %d requests, want 2", s.Covered)
		}
	}
}
