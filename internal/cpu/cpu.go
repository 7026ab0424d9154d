//go:build go1.23

// Package cpu models the paper's in-order, single-issue, 1 GHz core
// (Table I): one cycle per ALU instruction, blocking on memory accesses
// through the coherence hierarchy. Each core executes a workload program
// as a coroutine of the simulation kernel (iter.Pull, hence the go1.23
// constraint; see DESIGN.md): the kernel event that completes an operation
// resumes the program, which runs to its next operation and yields back,
// with no scheduler in between. Execution is fully deterministic: exactly
// one program runs at a time, and only while the kernel waits for its next
// operation.
package cpu

import (
	"fmt"
	"iter"
	"runtime/debug"

	"repro/internal/coherence"
	"repro/internal/sim"
)

// opKind enumerates operations a program can request of its core.
type opKind uint8

const (
	opLoad opKind = iota
	opStore
	opRMW
	opCompute
	opWaitUntil
)

type opReq struct {
	kind opKind
	addr uint64
	val  uint64
	n    int64
	f    func(uint64) uint64
	pred func(uint64) bool
}

// Program is the code a core executes. It runs as a coroutine of the
// kernel and may only interact with the simulation through the Proc. A
// panic in a Program surfaces from the kernel event that resumed it.
type Program func(p *Proc)

type abandoned struct{} // the panic value that unwinds a killed program

// Core is one simulated core.
type Core struct {
	ID  int
	K   *sim.Kernel
	Coh *coherence.System

	pull   func() (opReq, bool) // runs the program up to its next op
	stop   func()
	ret    uint64 // completion value of the op the program is suspended in
	killed bool
	// Completion callbacks, bound once so issuing an op allocates nothing.
	computeDone func()
	accessDone  func(uint64)

	// Instructions counts retired instructions (ALU + memory); each is
	// also an L1-I access for the energy model.
	Instructions uint64
	// FinishTime is when the program returned; valid once Finished.
	FinishTime sim.Time
	Finished   bool

	onFinish func(*Core)
}

// NewCore builds a core attached to the coherence system.
func NewCore(id int, k *sim.Kernel, coh *coherence.System) *Core {
	c := &Core{ID: id, K: k, Coh: coh}
	c.computeDone, c.accessDone = func() { c.next(0) }, c.next
	return c
}

// Start launches the program. onFinish (optional) is invoked in a kernel
// event when the program returns. Start must be called before the kernel
// runs past time zero.
func (c *Core) Start(prog Program, onFinish func(*Core)) {
	c.onFinish = onFinish
	c.pull, c.stop = iter.Pull(func(yield func(opReq) bool) {
		defer func() { // iter.Pull would re-raise a panic without its stack
			if r := recover(); r != nil && r != (abandoned{}) {
				panic(fmt.Sprintf("cpu: core %d: program panicked: %v\n%s", c.ID, r, debug.Stack()))
			}
		}()
		prog(&Proc{core: c, yield: yield})
	})
	c.K.Schedule(0, c.computeDone)
}

// Kill unwinds the program's coroutine (used when a run is abandoned) and
// drops its completions still in flight. Idempotent; safe on any core.
func (c *Core) Kill() {
	c.killed = true
	if c.stop != nil {
		c.stop()
	}
}

// next hands the completed value back to the program and executes its next
// operation. Runs inside a kernel event.
func (c *Core) next(v uint64) {
	if c.killed {
		return
	}
	c.ret = v
	op, ok := c.pull()
	if !ok { // the program returned
		c.Finished = true
		c.FinishTime = c.K.Now()
		if c.onFinish != nil {
			c.onFinish(c)
		}
		return
	}
	c.step(op)
}

// step dispatches one program operation.
func (c *Core) step(op opReq) {
	switch op.kind {
	case opCompute:
		if op.n < 1 {
			op.n = 1
		}
		c.Instructions += uint64(op.n)
		c.K.Schedule(sim.Time(op.n), c.computeDone)
	case opLoad:
		c.Instructions++
		c.Coh.Access(c.ID, coherence.OpLoad, op.addr, 0, nil, c.accessDone)
	case opStore:
		c.Instructions++
		c.Coh.Access(c.ID, coherence.OpStore, op.addr, op.val, nil, c.accessDone)
	case opRMW:
		c.Instructions++
		c.Coh.Access(c.ID, coherence.OpRMW, op.addr, 0, op.f, c.accessDone)
	case opWaitUntil:
		c.waitUntil(op.addr, op.pred)
	default:
		panic(fmt.Sprintf("cpu: core %d: unknown op %d", c.ID, op.kind))
	}
}

// waitUntil implements the local spin-wait: load the word; if the
// predicate fails, hold the line Shared and sleep until the coherence
// protocol invalidates it, then retry. Each retry costs one load
// instruction — exactly the traffic profile of a local spin loop.
func (c *Core) waitUntil(addr uint64, pred func(uint64) bool) {
	c.Instructions++
	c.Coh.Access(c.ID, coherence.OpLoad, addr, 0, nil, func(v uint64) {
		if pred(v) {
			c.next(v)
			return
		}
		c.Coh.WaitChange(c.ID, addr, func() { c.waitUntil(addr, pred) })
	})
}

// Proc is the program-facing handle. Every method that issues an
// operation suspends the program until the simulated operation completes.
type Proc struct {
	core  *Core
	yield func(opReq) bool
}

// ID returns this core's index.
func (p *Proc) ID() int { return p.core.ID }

// send issues one operation and waits for its completion value.
func (p *Proc) send(op opReq) uint64 {
	if !p.yield(op) {
		panic(abandoned{})
	}
	return p.core.ret
}

// Load reads the 8-byte word at addr through the cache hierarchy.
func (p *Proc) Load(addr uint64) uint64 { return p.send(opReq{kind: opLoad, addr: addr}) }

// Store writes the word at addr.
func (p *Proc) Store(addr, val uint64) { p.send(opReq{kind: opStore, addr: addr, val: val}) }

// FetchAdd atomically adds delta to the word at addr, returning the
// previous value.
func (p *Proc) FetchAdd(addr, delta uint64) uint64 {
	return p.send(opReq{kind: opRMW, addr: addr, f: func(v uint64) uint64 { return v + delta }})
}

// RMW applies f atomically to the word at addr, returning the old value.
func (p *Proc) RMW(addr uint64, f func(uint64) uint64) uint64 {
	return p.send(opReq{kind: opRMW, addr: addr, f: f})
}

// Compute retires n ALU instructions (n cycles).
func (p *Proc) Compute(n int64) { p.send(opReq{kind: opCompute, n: n}) }

// WaitUntil spins locally until pred holds for the word at addr and
// returns the satisfying value. The spin is cache-friendly: it sleeps on
// the Shared copy and retries only on invalidation.
func (p *Proc) WaitUntil(addr uint64, pred func(uint64) bool) uint64 {
	return p.send(opReq{kind: opWaitUntil, addr: addr, pred: pred})
}
