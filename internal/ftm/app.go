// Package ftm implements the paper's component-based fault tolerance
// mechanisms on top of the reflective component runtime: the
// FaultToleranceProtocol/DuplexProtocol common parts, the variable-feature
// bricks of the Before-Proceed-After generic execution scheme (Table 2),
// the PBR/LFR/TR/Assertion strategies and their compositions, replica
// deployment (Figure 6) and role promotion on failover.
package ftm

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"

	"resilientft/internal/appstate"
	"resilientft/internal/faultinject"
)

// Application is the business logic an FTM protects: the base level of
// the two-layer architecture. The hooks (state manager, assertion) are
// the "application defined assertions" the paper externalizes to
// parameterize FTMs without breaking separation of concerns.
type Application interface {
	// Process executes one deterministic-or-not operation. before is the
	// pre-operation value of the touched register, used by assertions.
	Process(op string, arg int64) (result int64, before int64, err error)
	// Assert is the safety assertion derived from the application's
	// safety analysis (e.g. an FMECA): it checks a result against the
	// operation's invariant. It must be side-effect free.
	Assert(op string, arg, before, result int64) bool
	// StateManager exposes the application state for checkpointing, or
	// appstate.Opaque when the application refuses state access.
	StateManager() appstate.Manager
	// Deterministic reports behavioural determinism.
	Deterministic() bool
}

// ErrBadOp reports a malformed application operation.
var ErrBadOp = errors.New("ftm: malformed operation")

// Calculator is the reference application: a deterministic register
// machine. Operations are "verb:register" with an int64 argument:
//
//	add:x   — add arg to register x, return the new value
//	sub:x   — subtract arg, return the new value
//	set:x   — set register x to arg, return arg
//	get:x   — return register x (arg ignored)
//
// Its safety assertion inverts the operation: for add, result-arg must
// equal the pre-operation value — the kind of executable assertion a
// safety analysis derives.
type Calculator struct {
	regs *appstate.Registers
	// injector, when set, corrupts results on their way out — the fault
	// injection point modelling ALU/bus bit flips.
	injector *faultinject.ValueInjector
	// bugVerb, when set, makes the primary implementation return a
	// deterministically wrong result for that verb — a development fault
	// only the diversified alternate escapes (recovery blocks).
	bugVerb string
	// rng feeds the non-deterministic "rnd" verb; each calculator
	// instance draws its own sequence, so replicas computing
	// independently diverge — unless a semi-active leader's decisions
	// are replayed.
	rng *rand.Rand
	mu  sync.Mutex
}

// _calculatorInstances seeds each calculator's non-deterministic source
// distinctly, so independently computing replicas genuinely diverge on
// "rnd" operations.
var _calculatorInstances atomic.Int64

// NewCalculator returns an empty calculator.
func NewCalculator() *Calculator {
	return &Calculator{
		regs: appstate.NewRegisters(),
		rng:  rand.New(rand.NewSource(1000 + _calculatorInstances.Add(1))),
	}
}

var _ Application = (*Calculator)(nil)

// SetInjector attaches a value-fault injector (nil detaches).
func (c *Calculator) SetInjector(v *faultinject.ValueInjector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.injector = v
}

func (c *Calculator) corrupt(v int64) int64 {
	c.mu.Lock()
	inj := c.injector
	c.mu.Unlock()
	if inj == nil {
		return v
	}
	return inj.Apply(v)
}

func splitOp(op string) (verb, reg string, err error) {
	// Substring split, not strings.SplitN: this runs once per request and
	// the slice header SplitN returns is a heap allocation.
	i := strings.IndexByte(op, ':')
	if i <= 0 || i == len(op)-1 {
		return "", "", fmt.Errorf("%w: %q", ErrBadOp, op)
	}
	return op[:i], op[i+1:], nil
}

// SetBug plants a deterministic development fault in the primary
// implementation of the given verb ("" clears it). The diversified
// alternate is unaffected — the situation recovery blocks exist for.
func (c *Calculator) SetBug(verb string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bugVerb = verb
}

func (c *Calculator) buggy(verb string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bugVerb == verb
}

// Process executes one operation through the primary implementation.
func (c *Calculator) Process(op string, arg int64) (int64, int64, error) {
	verb, reg, err := splitOp(op)
	if err != nil {
		return 0, 0, err
	}
	before := c.regs.Get(reg)
	var result int64
	switch verb {
	case "add":
		result = c.regs.Add(reg, arg)
	case "sub":
		result = c.regs.Add(reg, -arg)
	case "set":
		c.regs.Set(reg, arg)
		result = arg
	case "get":
		result = before
	case "rnd":
		// Non-deterministic: draw a fresh value. Independently computing
		// replicas diverge here; semi-active replication exists to ship
		// this decision instead.
		c.mu.Lock()
		result = c.rng.Int63n(1 << 30)
		c.mu.Unlock()
		c.regs.Set(reg, result)
	default:
		return 0, 0, fmt.Errorf("%w: unknown verb %q", ErrBadOp, verb)
	}
	if c.buggy(verb) {
		// An off-by-one in the reply path: the stored state is right,
		// the reported result is deterministically wrong.
		result++
	}
	return c.corrupt(result), before, nil
}

// ProcessAlternate executes one operation through the diversified
// secondary implementation: the arithmetic is routed through negated
// operands so a design fault in the primary path does not recur, and the
// hardware-fault injection point of the primary path is not on this
// route (diversity).
func (c *Calculator) ProcessAlternate(op string, arg int64) (int64, int64, error) {
	verb, reg, err := splitOp(op)
	if err != nil {
		return 0, 0, err
	}
	before := c.regs.Get(reg)
	var result int64
	switch verb {
	case "add":
		// a + b computed as -((-a) - b).
		c.regs.Set(reg, -(-before - arg))
		result = c.regs.Get(reg)
	case "sub":
		c.regs.Set(reg, -(-before + arg))
		result = c.regs.Get(reg)
	case "set":
		c.regs.Set(reg, -(-arg))
		result = c.regs.Get(reg)
	case "get":
		result = -(-before)
	case "rnd":
		c.mu.Lock()
		result = c.rng.Int63n(1 << 30)
		c.mu.Unlock()
		c.regs.Set(reg, result)
	default:
		return 0, 0, fmt.Errorf("%w: unknown verb %q", ErrBadOp, verb)
	}
	return result, before, nil
}

var (
	_ AlternateProvider = (*Calculator)(nil)
	_ DecisionRecorder  = (*Calculator)(nil)
)

// Assert checks the operation's inverse invariant.
func (c *Calculator) Assert(op string, arg, before, result int64) bool {
	verb, _, err := splitOp(op)
	if err != nil {
		return false
	}
	switch verb {
	case "add":
		return result-arg == before
	case "sub":
		return result+arg == before
	case "set":
		return result == arg
	case "get":
		return result == before
	case "rnd":
		// A freshly drawn value has no invariant to check.
		return true
	default:
		return false
	}
}

// ProcessRecording executes op while capturing the non-deterministic
// decisions made along the way (semi-active leader side).
func (c *Calculator) ProcessRecording(op string, arg int64) (int64, int64, []int64, error) {
	verb, reg, err := splitOp(op)
	if err != nil {
		return 0, 0, nil, err
	}
	if verb != "rnd" {
		result, before, err := c.Process(op, arg)
		return result, before, nil, err
	}
	before := c.regs.Get(reg)
	c.mu.Lock()
	value := c.rng.Int63n(1 << 30)
	c.mu.Unlock()
	c.regs.Set(reg, value)
	return c.corrupt(value), before, []int64{value}, nil
}

// ProcessReplaying executes op consuming previously captured decisions
// instead of drawing fresh ones (semi-active follower side).
func (c *Calculator) ProcessReplaying(op string, arg int64, decisions []int64) (int64, int64, error) {
	verb, reg, err := splitOp(op)
	if err != nil {
		return 0, 0, err
	}
	if verb != "rnd" {
		return c.Process(op, arg)
	}
	if len(decisions) == 0 {
		return 0, 0, fmt.Errorf("%w: rnd replay without a decision", ErrBadOp)
	}
	before := c.regs.Get(reg)
	c.regs.Set(reg, decisions[0])
	return decisions[0], before, nil
}

// StateManager exposes the register file.
func (c *Calculator) StateManager() appstate.Manager { return c.regs }

// Deterministic reports true: the calculator is a pure register machine.
func (c *Calculator) Deterministic() bool { return true }

// Opaque wraps an application to hide its state — modelling a version
// that no longer provides state access (an A variation).
type Opaque struct {
	Application
}

// StateManager refuses access.
func (o Opaque) StateManager() appstate.Manager { return appstate.Opaque{} }

// NonDeterministic wraps an application to declare non-determinism —
// modelling a version whose outputs depend on local scheduling (an A
// variation). The computation itself is unchanged; what matters to the
// FTM layer is the declared characteristic.
type NonDeterministic struct {
	Application
}

// Deterministic reports false.
func (NonDeterministic) Deterministic() bool { return false }
