package main

import "testing"

func TestShadowModelChecksReplies(t *testing.T) {
	var m regModel
	if err := m.check(false, 1); err != nil {
		t.Fatalf("first add: %v", err)
	}
	if err := m.check(true, 1); err != nil {
		t.Fatalf("get after add: %v", err)
	}
	// An add with unknown outcome widens what the next reply may say.
	m.failed(false)
	if err := m.check(false, 3); err != nil {
		t.Fatalf("add after an unknown add that did run: %v", err)
	}
	m.failed(false)
	if err := m.check(false, 4); err != nil {
		t.Fatalf("add after an unknown add that did not run: %v", err)
	}
	if m.confirmed != 4 || m.unknown != 0 {
		t.Fatalf("model after replies: %+v", m)
	}
	// A failed get changes nothing.
	m.failed(true)
	if m.unknown != 0 {
		t.Fatalf("a failed get counted as an unknown write")
	}
}

func TestShadowModelCountsAViolationOnce(t *testing.T) {
	m := regModel{confirmed: 10}
	// The add re-ran on a state that had lost the last acknowledged add.
	if err := m.check(false, 10); err == nil {
		t.Fatalf("an add that lost a write was accepted")
	}
	if m.lost != 1 || m.dup != 0 {
		t.Fatalf("after a lost write: %+v", m)
	}
	// The shadow follows the register, so the next replies are fine.
	if err := m.check(false, 11); err != nil {
		t.Fatalf("add after the violation: %v", err)
	}
	// An add that ran twice across a failover.
	if err := m.check(false, 13); err == nil {
		t.Fatalf("an add that ran twice was accepted")
	}
	if err := m.check(true, 13); err != nil {
		t.Fatalf("get after the violation: %v", err)
	}
	if lost, dup := m.audit(13); lost != 1 || dup != 1 {
		t.Fatalf("audit after one lost and one duplicated write: lost %d dup %d", lost, dup)
	}
}

func TestAuditArithmetic(t *testing.T) {
	for _, tc := range []struct {
		confirmed, unknown, value int64
		lost, dup                 int64
	}{
		{10, 0, 10, 0, 0},
		{10, 0, 8, 2, 0},  // two acknowledged adds are gone
		{10, 0, 11, 0, 1}, // one execution nobody asked for
		{10, 2, 11, 0, 0}, // an unknown add may have run
		{10, 2, 12, 0, 0},
		{10, 2, 13, 0, 1}, // more than every add that could have run
		{10, 2, 9, 1, 0},
	} {
		m := regModel{confirmed: tc.confirmed, unknown: tc.unknown}
		lost, dup := m.audit(tc.value)
		if lost != tc.lost || dup != tc.dup {
			t.Errorf("audit(confirmed %d, unknown %d, value %d) = lost %d dup %d, want %d %d",
				tc.confirmed, tc.unknown, tc.value, lost, dup, tc.lost, tc.dup)
		}
	}
}
