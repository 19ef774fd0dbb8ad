package main

import "fmt"

// regModel is the shadow of one register. Every write is "add 1", so the
// register's value is the number of executions. A register belongs to
// one client identity, which has at most one request in flight, so after
// any reply the exact value is known.
type regModel struct {
	// confirmed is the value the last reply reported.
	confirmed int64
	// unknown counts adds attempted since then whose outcome the client
	// never learned (error or timeout): each may or may not have run.
	unknown int64
	// lost and dup accumulate what rejected replies revealed: a reply
	// below what acknowledged adds guarantee means acknowledged writes
	// are gone; one above every add that could have run means some add
	// ran twice.
	lost, dup int64
}

// check validates a reply against the shadow and folds it in. An add
// must report confirmed+1 (plus however many unknown adds turned out to
// have run); a get must report a value in [confirmed, confirmed+unknown].
// A reply outside that is an error, counted once: the shadow then adopts
// the reported value, so that one lost or duplicated write does not make
// every later reply on the register look wrong too.
func (m *regModel) check(read bool, got int64) error {
	lo, hi := m.confirmed, m.confirmed+m.unknown
	if !read {
		lo, hi = lo+1, hi+1
	}
	m.confirmed, m.unknown = got, 0
	switch {
	case got < lo:
		m.lost += lo - got
	case got > hi:
		m.dup += got - hi
	default:
		return nil
	}
	return fmt.Errorf("reply %d outside [%d, %d]", got, lo, hi)
}

// failed records an attempt that ended without a reply.
func (m *regModel) failed(read bool) {
	if !read {
		m.unknown++
	}
}

// audit compares the value read back after the run with the shadow, and
// adds what rejected replies had already revealed. lost counts
// acknowledged adds the register no longer holds; dup counts executions
// beyond every add that could have run.
func (m *regModel) audit(value int64) (lost, dup int64) {
	lost, dup = m.lost, m.dup
	if d := m.confirmed - value; d > 0 {
		lost += d
	}
	if d := value - m.confirmed - m.unknown; d > 0 {
		dup += d
	}
	return lost, dup
}
