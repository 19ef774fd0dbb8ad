// Package appstate provides application state management for
// checkpointing-based fault tolerance: the StateManager capture/restore
// contract (the paper's state-access characteristic A), a concrete
// register-file state, and checkpoint containers.
package appstate

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"resilientft/internal/transport"
)

// ErrNoAccess reports an application that does not expose its state
// (checkpointing-based strategies are invalid for it, per Table 1).
var ErrNoAccess = errors.New("appstate: application state not accessible")

// ErrDeltaBase reports a delta whose base version does not match the
// receiver's current state version; the sender must fall back to a full
// checkpoint (the resync path).
var ErrDeltaBase = errors.New("appstate: delta base version mismatch")

// Manager is the StateManager contract of the paper: the hook an
// application exposes so FTMs can capture and restore its state.
type Manager interface {
	// CaptureState serializes the current application state.
	CaptureState() ([]byte, error)
	// RestoreState replaces the application state with a capture.
	RestoreState(data []byte) error
}

// DeltaCapturer is the optional extension of Manager for delta
// checkpointing: a state that tracks its own write-set under a monotonic
// version counter, so a checkpointing FTM can ship O(write-set) deltas
// between acknowledged versions instead of the full state every request.
// The delta payload is opaque to callers, like a full capture.
type DeltaCapturer interface {
	Manager
	// StateVersion returns the current version (bumped on every mutation).
	StateVersion() uint64
	// CaptureVersioned is CaptureState paired atomically with the version
	// the capture represents.
	CaptureVersioned() (data []byte, version uint64, err error)
	// CaptureDelta serializes the changes made after version base.
	// ok=false means the tracker cannot answer for base (it predates the
	// retained history); the caller must ship a full capture instead.
	// Capturing prunes history at or below base, so bases must be taken
	// from previously acknowledged versions and never move backward.
	CaptureDelta(base uint64) (delta []byte, to uint64, ok bool, err error)
	// ApplyDelta applies a delta to a state whose version equals the
	// delta's base, returning the new version. A base mismatch returns
	// ErrDeltaBase and leaves the state untouched.
	ApplyDelta(delta []byte) (version uint64, err error)
	// ApplyFull replaces the state with a full capture and adopts the
	// sender's version, aligning the two sides for subsequent deltas.
	ApplyFull(data []byte, version uint64) error
}

// regCell is one register's storage. Cells are allocated once per
// register name and reused for the life of the Registers; the steady
// state of delta apply on a backup — the per-request hot path of
// passive replication — touches only existing cells and therefore does
// not allocate. A deleted register keeps its cell as a tombstone
// (dead=true) so the deletion travels in deltas.
type regCell struct {
	name  string
	val   int64
	ver   uint64 // version of the last modification
	gen   uint32 // mark for the full-restore sweep
	dead  bool   // tombstone: deleted at ver
	dirty bool   // queued on the dirty list
}

// Registers is a deterministic register-file application state: named
// int64 registers. It is the state container of the example applications
// and workload generators. Every mutation bumps a version counter and
// queues the touched register's cell on a dirty list, which is what
// makes the DeltaCapturer contract cheap in both directions: a delta
// capture walks only the dirty cells, and a delta apply walks the
// encoded bytes in place, mutating existing cells without allocating.
type Registers struct {
	mu   sync.Mutex
	regs map[string]*regCell

	// version counts mutations. dirty queues cells modified after floor,
	// deduplicated by the cell's dirty flag; capture compacts it.
	version uint64
	dirty   []*regCell
	floor   uint64
	live    int    // cells that are not tombstones
	gen     uint32 // current full-restore generation
}

// NewRegisters returns an empty register file.
func NewRegisters() *Registers {
	return &Registers{regs: make(map[string]*regCell)}
}

var (
	_ Manager       = (*Registers)(nil)
	_ DeltaCapturer = (*Registers)(nil)
)

// Get returns the value of a register (0 when never written).
func (r *Registers) Get(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.regs[name]; ok && !c.dead {
		return c.val
	}
	return 0
}

// touch returns name's cell, creating it if needed, bumps the version
// and queues the cell on the dirty list. Callers hold r.mu.
func (r *Registers) touch(name string) *regCell {
	c, ok := r.regs[name]
	if !ok {
		c = &regCell{name: name, dead: true}
		r.regs[name] = c
	}
	if c.dead {
		// A revived register starts from zero, like a never-written one.
		c.dead = false
		c.val = 0
		r.live++
	}
	r.version++
	c.ver = r.version
	if !c.dirty {
		c.dirty = true
		r.dirty = append(r.dirty, c)
	}
	return c
}

// Set writes a register.
func (r *Registers) Set(name string, v int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.touch(name).val = v
}

// Add increments a register and returns the new value.
func (r *Registers) Add(name string, delta int64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.touch(name)
	c.val += delta
	return c.val
}

// Names returns the register names, sorted.
func (r *Registers) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, r.live)
	for k, c := range r.regs {
		if !c.dead {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// errNotFast rejects a payload that does not open with the fast-codec
// tag. Captures, deltas and checkpoints have one wire form, the tagged
// fast layout; anything else is a codec mismatch, counted like the ones
// transport.Decode finds.
func errNotFast(what string) error {
	transport.CountDrop(transport.DropCodecMismatch)
	return fmt.Errorf("appstate: %s is not fast-coded", what)
}

// CaptureState serializes the register file.
func (r *Registers) CaptureState() ([]byte, error) {
	data, _, err := r.CaptureVersioned()
	return data, err
}

// sortedLive returns the live cells sorted by name. Callers hold r.mu.
func (r *Registers) sortedLive() []*regCell {
	cells := make([]*regCell, 0, r.live)
	for _, c := range r.regs {
		if !c.dead {
			cells = append(cells, c)
		}
	}
	slices.SortFunc(cells, func(a, b *regCell) int { return strings.Compare(a.name, b.name) })
	return cells
}

// CaptureVersioned serializes the register file along with the version
// the capture represents. The capture is written in the tagged fast
// layout straight from the cells — full checkpoints ride the periodic
// checkpoint refresh, so they stay off gob like the per-request deltas.
func (r *Registers) CaptureVersioned() ([]byte, uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cells := r.sortedLive()
	// The snapshot buffer comes from the transport pool; the shipper
	// recycles it once the checkpoint envelope has copied it.
	buf := append(transport.GetBuf(), transport.FastTag)
	buf = transport.AppendUvarint(buf, uint64(len(cells)))
	for _, c := range cells {
		buf = transport.AppendLenString(buf, c.name)
		buf = transport.AppendVarint(buf, c.val)
	}
	return buf, r.version, nil
}

// snapshotEntry hands one decoded register of a full capture to apply
// loops. The key aliases the capture buffer and must not be retained.
type snapshotEntry func(key []byte, val int64) error

// walkSnapshot walks a full capture, in the tagged fast layout, in place.
func walkSnapshot(data []byte, fn snapshotEntry) error {
	if len(data) > 0 && data[0] == transport.FastTag {
		rest := data[1:]
		n, rest, err := transport.ReadUvarint(rest)
		if err != nil {
			return fmt.Errorf("appstate: snapshot count: %w", err)
		}
		for i := uint64(0); i < n; i++ {
			var k []byte
			var v int64
			if k, rest, err = transport.ReadLenBytesInPlace(rest); err != nil {
				return fmt.Errorf("appstate: snapshot key %d: %w", i, err)
			}
			if v, rest, err = transport.ReadVarint(rest); err != nil {
				return fmt.Errorf("appstate: snapshot value %d: %w", i, err)
			}
			if err := fn(k, v); err != nil {
				return err
			}
		}
		return nil
	}
	return errNotFast("snapshot")
}

// setCell updates or creates name's cell without touching version
// bookkeeping. Callers hold r.mu.
func (r *Registers) setCell(key []byte, val int64) *regCell {
	c, ok := r.regs[string(key)]
	if !ok {
		c = &regCell{name: string(key)}
		r.regs[c.name] = c
		r.live++
	} else if c.dead {
		c.dead = false
		r.live++
	}
	c.val = val
	return c
}

// RestoreState replaces the register file with a capture. The restore is
// applied as a diff against the current contents: only registers whose
// value actually changes (or disappears) are marked dirty, so a
// restore-heavy FTM combination (time redundancy restoring before every
// retry, say) does not blow up the delta write-set.
func (r *Registers) RestoreState(data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.version++
	v := r.version
	r.gen++
	gen := r.gen
	err := walkSnapshot(data, func(key []byte, val int64) error {
		c, ok := r.regs[string(key)]
		if !ok || c.dead || c.val != val {
			c = r.setCell(key, val)
			c.ver = v
			if !c.dirty {
				c.dirty = true
				r.dirty = append(r.dirty, c)
			}
		}
		c.gen = gen
		return nil
	})
	if err != nil {
		return fmt.Errorf("appstate: restore: %w", err)
	}
	// Registers absent from the capture disappear; the tombstone keeps
	// the deletion visible to delta captures.
	for _, c := range r.regs {
		if c.gen != gen && !c.dead {
			c.dead = true
			r.live--
			c.ver = v
			if !c.dirty {
				c.dirty = true
				r.dirty = append(r.dirty, c)
			}
		}
	}
	return nil
}

// StateVersion returns the current mutation counter.
func (r *Registers) StateVersion() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.version
}

// CaptureDelta serializes the registers modified after version base,
// encoding the fast wire layout directly from the dirty cells (no
// intermediate map). Capturing compacts the dirty list: cells at or
// below an acknowledged base are dead weight, since future captures only
// ever ask for newer bases.
func (r *Registers) CaptureDelta(base uint64) ([]byte, uint64, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if base < r.floor || base > r.version {
		return nil, r.version, false, nil
	}
	kept := r.dirty[:0]
	for _, c := range r.dirty {
		if c.ver <= base {
			c.dirty = false
			continue
		}
		kept = append(kept, c)
	}
	r.dirty = kept
	if base > r.floor {
		r.floor = base
	}
	// Sorted by name so identical write-sets encode identically; the
	// list stays sorted in place, which keeps repeat captures of a hot
	// write-set nearly free.
	slices.SortFunc(kept, func(a, b *regCell) int { return strings.Compare(a.name, b.name) })
	liveN, deadN := 0, 0
	for _, c := range kept {
		if c.dead {
			deadN++
		} else {
			liveN++
		}
	}
	// The delta buffer comes from the transport pool; the shipper
	// recycles it once the checkpoint envelope has copied it.
	buf := append(transport.GetBuf(), transport.FastTag)
	buf = transport.AppendUvarint(buf, base)
	buf = transport.AppendUvarint(buf, r.version)
	buf = transport.AppendUvarint(buf, uint64(liveN))
	for _, c := range kept {
		if !c.dead {
			buf = transport.AppendLenString(buf, c.name)
			buf = transport.AppendVarint(buf, c.val)
		}
	}
	buf = transport.AppendUvarint(buf, uint64(deadN))
	for _, c := range kept {
		if c.dead {
			buf = transport.AppendLenString(buf, c.name)
		}
	}
	return buf, r.version, true, nil
}

// ApplyDelta applies a delta captured against this state's exact current
// version. The delta is walked in place: existing cells are mutated
// through a no-allocation map lookup, so a backup applying the
// write-sets of a stable register population does zero per-message heap
// allocation.
func (r *Registers) ApplyDelta(delta []byte) (uint64, error) {
	if len(delta) > 0 && delta[0] == transport.FastTag {
		return r.applyDeltaFast(delta[1:])
	}
	return 0, errNotFast("delta")
}

func (r *Registers) applyDeltaFast(data []byte) (uint64, error) {
	base, data, err := transport.ReadUvarint(data)
	if err != nil {
		return 0, fmt.Errorf("appstate: delta base: %w", err)
	}
	to, data, err := transport.ReadUvarint(data)
	if err != nil {
		return 0, fmt.Errorf("appstate: delta to: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if base != r.version {
		return r.version, fmt.Errorf("%w: at version %d, delta base %d", ErrDeltaBase, r.version, base)
	}
	n, data, err := transport.ReadUvarint(data)
	if err != nil {
		return r.version, fmt.Errorf("appstate: delta count: %w", err)
	}
	for i := uint64(0); i < n; i++ {
		var k []byte
		var v int64
		if k, data, err = transport.ReadLenBytesInPlace(data); err != nil {
			return r.version, fmt.Errorf("appstate: delta key %d: %w", i, err)
		}
		if v, data, err = transport.ReadVarint(data); err != nil {
			return r.version, fmt.Errorf("appstate: delta value %d: %w", i, err)
		}
		// Existing cells — the steady state — mutate in place; only a
		// register name never seen before allocates.
		if c, ok := r.regs[string(k)]; ok {
			if c.dead {
				c.dead = false
				r.live++
			}
			c.val = v
			c.ver = to
		} else {
			c := r.setCell(k, v)
			c.ver = to
		}
	}
	if n, data, err = transport.ReadUvarint(data); err != nil {
		return r.version, fmt.Errorf("appstate: delta deleted count: %w", err)
	}
	for i := uint64(0); i < n; i++ {
		var k []byte
		if k, data, err = transport.ReadLenBytesInPlace(data); err != nil {
			return r.version, fmt.Errorf("appstate: delta deleted %d: %w", i, err)
		}
		r.tombstone(k, to)
	}
	r.adoptVersion(to)
	return r.version, nil
}

// tombstone marks key deleted at version ver. Callers hold r.mu.
func (r *Registers) tombstone(key []byte, ver uint64) {
	c, ok := r.regs[string(key)]
	if !ok {
		return
	}
	if !c.dead {
		c.dead = true
		r.live--
	}
	c.ver = ver
}

// adoptVersion moves the receiver to the sender's version after a delta
// apply. The receiving side's own history is useless below the adopted
// version: a future capture from here starts with a full checkpoint.
// Callers hold r.mu.
func (r *Registers) adoptVersion(to uint64) {
	r.version = to
	r.floor = to
}

// ApplyFull replaces the register file with a full capture and adopts
// the sender's version. Like RestoreState it diffs against the current
// contents, reusing cells, so repeated resyncs do not churn the heap.
func (r *Registers) ApplyFull(data []byte, version uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gen++
	gen := r.gen
	err := walkSnapshot(data, func(key []byte, val int64) error {
		c := r.setCell(key, val)
		c.ver = version
		c.gen = gen
		return nil
	})
	if err != nil {
		return fmt.Errorf("appstate: apply full: %w", err)
	}
	for _, c := range r.regs {
		if c.gen != gen && !c.dead {
			c.dead = true
			r.live--
			c.ver = version
		}
	}
	r.adoptVersion(version)
	return nil
}

// Opaque is a Manager over state the application refuses to expose: both
// operations fail with ErrNoAccess. Attaching a checkpointing FTM to such
// an application is the inconsistency Table 1 forbids, and tests use this
// to verify the consistency checker catches it.
type Opaque struct{}

var _ Manager = Opaque{}

// CaptureState always fails.
func (Opaque) CaptureState() ([]byte, error) { return nil, ErrNoAccess }

// RestoreState always fails.
func (Opaque) RestoreState([]byte) error { return ErrNoAccess }

// Checkpoint is what a passive-replication master ships to its slave: the
// application state paired with the reply-log snapshot that preserves
// at-most-once semantics across failover, and the sequence number of the
// last request folded into the state.
//
// StateVersion carries the sender's state version for delta-capable
// states (zero otherwise).
type Checkpoint struct {
	AppState     []byte
	ReplyLog     []byte
	LastSeq      uint64
	StateVersion uint64
}

// DeltaCheckpoint is the incremental counterpart of Checkpoint: the
// state write-set between two acknowledged versions plus the reply-log
// tail recorded since the last shipped checkpoint. It travels under its
// own message payload tag, so mixed-version replicas never confuse the
// two.
type DeltaCheckpoint struct {
	BaseVersion uint64
	ToVersion   uint64
	// Delta is the opaque write-set produced by DeltaCapturer.CaptureDelta.
	Delta []byte
	// ReplyTail is the encoded batch of responses recorded since the last
	// acknowledged checkpoint.
	ReplyTail []byte
	LastSeq   uint64
}

// EncodeCheckpoint serializes a checkpoint for transmission.
func EncodeCheckpoint(cp Checkpoint) ([]byte, error) { return transport.Encode(cp) }

// DecodeCheckpoint deserializes a checkpoint.
func DecodeCheckpoint(data []byte) (Checkpoint, error) {
	var cp Checkpoint
	err := transport.Decode(data, &cp)
	return cp, err
}

// EncodeDeltaCheckpoint serializes a delta checkpoint.
func EncodeDeltaCheckpoint(dc DeltaCheckpoint) ([]byte, error) { return transport.Encode(dc) }

// DecodeDeltaCheckpoint deserializes a delta checkpoint.
func DecodeDeltaCheckpoint(data []byte) (DeltaCheckpoint, error) {
	var dc DeltaCheckpoint
	err := transport.Decode(data, &dc)
	return dc, err
}
