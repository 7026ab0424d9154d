package coherence

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/sim"
)

// Ctrl is one core's cache controller: private L1-D and L2 tag arrays, a
// single outstanding access (in-order blocking core), eviction tracking,
// and the receiver side of the sequence-number reordering protocol
// (Section IV-C1).
type Ctrl struct {
	s  *System
	id int
	k  *sim.Kernel // kernel of the shard owning this core (set by Partition)

	l1, l2 *cacheArray

	// pend is the outstanding coherence miss: &pendSlot while one is in
	// flight, else nil. A core has at most one access outstanding, so one
	// slot per controller holds every miss it will ever make.
	pend     *pending
	pendSlot pending

	// The access's completion, run by completeFn (bound once) after the hit
	// or fill latency: done is called with doneV. One slot suffices for the
	// same reason as pendSlot.
	done       func(uint64)
	doneV      uint64
	completeFn func()

	// grp is the holder mask of the core's group and bit the core's bit in
	// it (see holderGroup).
	grp *holderGroup
	bit uint64

	// evicting holds Shared lines whose EvictS is awaiting EvictAck
	// (ACKwise); broadcasts for these lines must still be acknowledged
	// if they were issued before the directory processed the eviction.
	evicting map[uint64]bool

	// lastSeq[slice] is the newest processed broadcast sequence number.
	lastSeq []uint16
	// uniBuf[slice] holds directory unicasts that arrived ahead of a
	// broadcast they must follow. Nil until the core first gates one:
	// most cores never do, and a slice per directory slice per core is
	// 1.5 MB at 1024 cores.
	uniBuf [][]*Msg
	// bcastBuf holds broadcasts buffered behind an outstanding shared
	// request or an in-flight eviction, per line.
	bcastBuf map[uint64][]*Msg
	// killSeq (DirkB only): grants applied with an older sequence number
	// than a broadcast that already arrived must self-invalidate.
	killSeq map[uint64]uint16
	// evictedAt[line] records the slice sequence number carried by the
	// line's EvictAck: a broadcast issued at or before that point counted
	// this core as a sharer and must be acknowledged even though the
	// line is long gone (ACKwise).
	evictedAt map[uint64]uint16

	waiters map[uint64][]func()
}

type pending struct {
	op     AccessOp
	addr   uint64
	line   uint64
	sval   uint64
	f      func(uint64) uint64
	done   func(uint64)
	wantEx bool
}

func newCtrl(s *System, id int) *Ctrl {
	cc := s.Cfg.Caches
	c := &Ctrl{
		s:  s,
		id: id,
		l1: newCacheArray(cc.L1DKB*1024, cc.LineBytes, cc.L1Assoc),
		l2: newCacheArray(cc.L2KB*1024, cc.LineBytes, cc.L2Assoc),

		evicting:  make(map[uint64]bool),
		lastSeq:   make([]uint16, cc.DirSlices),
		bcastBuf:  make(map[uint64][]*Msg),
		killSeq:   make(map[uint64]uint16),
		evictedAt: make(map[uint64]uint16),
		waiters:   make(map[uint64][]func()),
	}
	c.completeFn = c.complete
	return c
}

func (c *Ctrl) fillLatency() sim.Time {
	return sim.Time(c.s.Cfg.Caches.L1HitCycles + c.s.Cfg.Caches.L2HitCycles)
}

// access starts one memory operation (see System.Access).
func (c *Ctrl) access(op AccessOp, addr, sval uint64, f func(uint64) uint64, done func(uint64)) {
	if c.pend != nil || c.done != nil {
		panic(fmt.Sprintf("coherence: core %d issued a second outstanding access", c.id))
	}
	line := c.s.LineOf(addr)
	st := &c.s.stats
	l1h := sim.Time(c.s.Cfg.Caches.L1HitCycles)

	if op == OpLoad {
		st.L1DReads++
		if c.l1.lookup(line) != Invalid {
			c.finish(l1h, done, c.s.Vals.Read(addr))
			return
		}
	} else {
		st.L1DWrites++
		if c.l1.lookup(line) == Modified {
			c.finish(l1h, done, c.applyWrite(op, addr, sval, f))
			return
		}
	}

	// L1 miss: consult the L2.
	st.L1DMisses++
	st.L2Reads++
	s2 := c.l2.lookup(line)
	l2lat := c.fillLatency()

	if op == OpLoad && s2 != Invalid {
		c.l1fill(line, s2)
		c.finish(l2lat, done, c.s.Vals.Read(addr))
		return
	}
	if op != OpLoad && s2 == Modified {
		c.l1fill(line, Modified)
		c.finish(l2lat, done, c.applyWrite(op, addr, sval, f))
		return
	}

	// Coherence miss: ShReq for loads, ExReq for stores/RMW (an upgrade
	// if we hold the line Shared).
	st.L2Misses++
	c.pendSlot = pending{op: op, addr: addr, line: line, sval: sval, f: f, done: done, wantEx: op != OpLoad}
	c.pend = &c.pendSlot
	slice := c.s.SliceOf(line)
	t := MsgShReq
	if op != OpLoad {
		t = MsgExReq
	}
	c.s.send(c.id, c.s.Cfg.DirCore(slice), &Msg{
		Type: t, Line: line, From: c.id, Slice: slice,
		HadShared: op != OpLoad && s2 == Shared,
	})
}

// finish schedules the access's completion: done(v) after lat cycles.
func (c *Ctrl) finish(lat sim.Time, done func(uint64), v uint64) {
	c.done, c.doneV = done, v
	c.k.Schedule(lat, c.completeFn)
}

// complete runs the access's completion. The slot is free again before done
// runs, so done may issue the core's next access.
func (c *Ctrl) complete() {
	done := c.done
	c.done = nil
	done(c.doneV)
}

// applyWrite mutates the value store at rights-confirmation time and
// returns the value to deliver (previous value for RMW).
func (c *Ctrl) applyWrite(op AccessOp, addr, sval uint64, f func(uint64) uint64) uint64 {
	if op == OpRMW {
		old := c.s.Vals.Read(addr)
		c.s.Vals.Write(addr, f(old))
		return old
	}
	c.s.Vals.Write(addr, sval)
	return sval
}

// l1fill inserts a line into the L1 (victims are silent: the inclusive L2
// retains the coherence state; dirty L1 data drains into the L2).
func (c *Ctrl) l1fill(line uint64, st State) {
	_, vs, ev := c.l1.insert(line, st)
	if ev && vs == Modified {
		c.s.stats.L2Writes++
	}
}

// l2fill inserts a granted line into the L2, handling victim eviction.
func (c *Ctrl) l2fill(line uint64, st State) {
	c.s.stats.L2Writes++
	vline, vstate, ev := c.l2.insert(line, st)
	c.grp.set(line, c.bit)
	if !ev {
		return
	}
	c.l1.invalidate(vline)
	c.fireWaiters(vline)
	slice := c.s.SliceOf(vline)
	switch vstate {
	case Shared:
		if c.s.Cfg.Coherence.Kind == config.ACKwise {
			// ACKwise forbids silent evictions.
			c.evicting[vline] = true
			c.s.send(c.id, c.s.Cfg.DirCore(slice), &Msg{Type: MsgEvictS, Line: vline, From: c.id, Slice: slice})
		}
	case Modified:
		c.s.send(c.id, c.s.Cfg.DirCore(slice), &Msg{Type: MsgEvictM, Line: vline, From: c.id, Slice: slice})
	}
	c.dropHolder(vline)
}

// handleUnicast receives a directory->core unicast, enforcing the
// broadcast/unicast ordering: a unicast stamped with a newer sequence
// number than the last processed broadcast waits until the missing
// broadcasts arrive. EvictAck is exempt (it resolves eviction races and
// ordering it behind a buffered broadcast would deadlock).
func (c *Ctrl) handleUnicast(m *Msg) {
	if m.Type != MsgEvictAck && !seqLE(m.Seq, c.lastSeq[m.Slice]) {
		if c.s.Tracer != nil {
			c.s.trace("reorder", "core %d gates %v behind seq %d", c.id, m, c.lastSeq[m.Slice])
		}
		c.s.stats.ReorderBufferedUni++
		if c.uniBuf == nil {
			c.uniBuf = make([][]*Msg, len(c.lastSeq))
		}
		c.uniBuf[m.Slice] = append(c.uniBuf[m.Slice], m)
		return
	}
	c.processUnicast(m)
}

func (c *Ctrl) processUnicast(m *Msg) {
	line := m.Line
	switch m.Type {
	case MsgInv:
		c.s.stats.L2TagProbes++
		switch c.l2.peek(line) {
		case Shared:
			c.invalidateLocal(line)
			t := MsgInvAck
			if m.HadShared { // data requested (piggy-back)
				t = MsgInvAckData
			}
			c.s.send(c.id, m.From, &Msg{Type: t, Line: line, From: c.id, Slice: m.Slice})
		case Invalid:
			// Absent (concurrent eviction): plain ack; the directory
			// falls back to memory if it wanted data from us.
			c.s.send(c.id, m.From, &Msg{Type: MsgInvAck, Line: line, From: c.id, Slice: m.Slice})
		case Modified:
			panic(fmt.Sprintf("coherence: core %d got Inv for Modified line %#x", c.id, line))
		}
	case MsgWBReq:
		c.s.stats.L2TagProbes++
		if c.l2.peek(line) == Modified {
			c.l2.setState(line, Shared)
			c.l1.setState(line, Shared)
			c.s.send(c.id, m.From, &Msg{Type: MsgWBRep, Line: line, From: c.id, Slice: m.Slice})
		} else {
			c.s.send(c.id, m.From, &Msg{Type: MsgWBRep, Line: line, From: c.id, Slice: m.Slice, Stale: true})
		}
	case MsgFlushReq:
		c.s.stats.L2TagProbes++
		if c.l2.peek(line) == Modified {
			c.invalidateLocal(line)
			c.s.send(c.id, m.From, &Msg{Type: MsgFlushRep, Line: line, From: c.id, Slice: m.Slice})
		} else {
			c.s.send(c.id, m.From, &Msg{Type: MsgFlushRep, Line: line, From: c.id, Slice: m.Slice, Stale: true})
		}
	case MsgShRep, MsgExRep, MsgUpgRep:
		c.applyGrant(m)
	case MsgEvictAck:
		delete(c.evicting, line)
		c.evictedAt[line] = m.Seq
		c.grp.set(line, c.bit)
		c.resolveEvictBuffered(line, m.Seq)
	default:
		panic(fmt.Sprintf("coherence: core %d: unexpected unicast %v", c.id, m))
	}
}

// applyGrant completes the pending access.
func (c *Ctrl) applyGrant(m *Msg) {
	if c.pend == nil || c.pend.line != m.Line {
		panic(fmt.Sprintf("coherence: core %d: grant %v without matching pending access", c.id, m))
	}
	p := *c.pend
	if (m.Type == MsgShRep) == p.wantEx {
		panic(fmt.Sprintf("coherence: core %d: grant %v mismatches pending %v", c.id, m, p.op))
	}
	c.pend = nil
	st := Shared
	if p.wantEx {
		st = Modified
	}
	c.l2fill(p.line, st)
	c.l1fill(p.line, st)
	var v uint64
	if p.op == OpLoad {
		v = c.s.Vals.Read(p.addr)
	} else {
		v = c.applyWrite(p.op, p.addr, p.sval, p.f)
	}
	c.finish(c.fillLatency(), p.done, v)

	// DirkB: a broadcast that overtook this grant already invalidated us
	// at the directory; catch up by self-invalidating.
	if kill, ok := c.killSeq[p.line]; ok {
		delete(c.killSeq, p.line)
		if !seqLE(kill, m.Seq) && st == Shared {
			c.k.Schedule(1, func() { c.invalidateLocal(m.Line) })
		}
	}

	// ACKwise: broadcasts buffered behind this shared request are now
	// comparable (paper: drop if not out-of-order, else process one
	// cycle after the response).
	if m.Type == MsgShRep {
		c.resolveGrantBuffered(m.Line, m.Seq)
	}
}

// handleBcast receives a broadcast invalidation. The per-slice sequence
// horizon advances at *arrival* — even for broadcasts buffered for later
// comparison — because the gating of unicasts only needs to restore the
// directory's send order, while a buffered broadcast's state effects are
// resolved against the grant or eviction ack it races with.
func (c *Ctrl) handleBcast(m *Msg) {
	line := m.Line
	kind := c.s.Cfg.Coherence.Kind
	pendSh := c.pend != nil && c.pend.line == line && !c.pend.wantEx

	if kind == config.ACKwise {
		switch {
		case pendSh || c.evicting[line]:
			// Cannot yet tell whether we were counted as a sharer;
			// buffer until the ShRep or EvictAck arrives. Deadlock-free:
			// ACKwise awaits acks only from actual sharers.
			if c.s.Tracer != nil {
				c.s.trace("reorder", "core %d buffers %v (pendSh=%v evicting=%v)", c.id, m, pendSh, c.evicting[line])
			}
			c.s.stats.ReorderBufferedBcast++
			c.bcastBuf[line] = append(c.bcastBuf[line], m)
		default:
			// The probe is the modelled tag access, counted either way;
			// a clear holder bit means the peek would find the line
			// Invalid with no evictedAt record, which does nothing.
			c.s.stats.L2TagProbes++
			if !c.mayHold(line) {
				break
			}
			switch c.l2.peek(line) {
			case Shared:
				c.invalidateLocal(line)
				c.ack(m)
			case Invalid:
				// A broadcast issued before the directory processed
				// our eviction counted us; acknowledge it.
				if e, ok := c.evictedAt[line]; ok && seqLE(m.Seq, e) {
					c.ack(m)
				}
			case Modified:
				panic(fmt.Sprintf("coherence: core %d: broadcast inv for Modified line %#x", c.id, line))
			}
		}
		c.markBcastArrived(m.Slice, m.Seq)
		return
	}

	// DirkB: every core acknowledges every broadcast; no buffering (the
	// directory awaits all cores, so withholding acks would deadlock).
	c.s.stats.L2TagProbes++
	if c.mayHold(line) && c.l2.peek(line) == Shared {
		c.invalidateLocal(line)
	} else if pendSh {
		// A grant sent before this broadcast may still arrive; mark it
		// for self-invalidation on application.
		c.killSeq[line] = m.Seq
	}
	c.ack(m)
	c.markBcastArrived(m.Slice, m.Seq)
}

func (c *Ctrl) ack(m *Msg) {
	c.s.send(c.id, m.From, &Msg{Type: MsgInvAck, Line: m.Line, From: c.id, Slice: m.Slice})
}

// resolveGrantBuffered applies Section IV-C1: buffered broadcasts that were
// issued before the shared response are dropped (we were not a sharer
// yet); newer ones are processed one cycle after the response.
func (c *Ctrl) resolveGrantBuffered(line uint64, grantSeq uint16) {
	buf := c.bcastBuf[line]
	if len(buf) == 0 {
		return
	}
	delete(c.bcastBuf, line)
	for _, b := range buf {
		if seqLE(b.Seq, grantSeq) {
			// Issued before our grant: not addressed to us.
			continue
		}
		c.k.Schedule(1, func() {
			c.s.stats.L2TagProbes++
			if c.l2.peek(line) == Shared {
				c.invalidateLocal(line)
			}
			c.ack(b)
		})
	}
}

// resolveEvictBuffered decides buffered broadcasts once the eviction
// acknowledgement tells us when the directory processed our EvictS:
// broadcasts issued before it counted us (ack); later ones did not.
func (c *Ctrl) resolveEvictBuffered(line uint64, evictSeq uint16) {
	buf := c.bcastBuf[line]
	if len(buf) == 0 {
		return
	}
	var keep []*Msg
	for _, b := range buf {
		switch {
		case seqLE(b.Seq, evictSeq):
			c.ack(b)
		case c.pend != nil && c.pend.line == line && !c.pend.wantEx:
			// Re-requested the line: resolution defers to the ShRep.
			keep = append(keep, b)
		default:
			// Issued after our eviction: not addressed to us.
		}
	}
	if len(keep) > 0 {
		c.bcastBuf[line] = keep
	} else {
		delete(c.bcastBuf, line)
	}
}

// markBcastArrived advances the per-slice broadcast horizon and releases
// any unicasts that were waiting behind it, in arrival order.
func (c *Ctrl) markBcastArrived(slice int, seq uint16) {
	if seqLE(c.lastSeq[slice], seq) {
		c.lastSeq[slice] = seq
	}
	if c.uniBuf == nil {
		return
	}
	for len(c.uniBuf[slice]) > 0 && seqLE(c.uniBuf[slice][0].Seq, c.lastSeq[slice]) {
		m := c.uniBuf[slice][0]
		c.uniBuf[slice] = c.uniBuf[slice][1:]
		c.processUnicast(m)
	}
}

func (c *Ctrl) invalidateLocal(line uint64) {
	c.l2.invalidate(line)
	c.l1.invalidate(line)
	c.fireWaiters(line)
	c.dropHolder(line)
}

// mayHold reads the core's holder bit for line: false means the core holds
// no L2 copy of it and keeps no eviction record for it.
func (c *Ctrl) mayHold(line uint64) bool { return c.grp.get(line)&c.bit != 0 }

// dropHolder clears the core's holder bit for a line that has just left
// its L2, unless an eviction entry (in flight, or acknowledged and
// recorded) still makes a broadcast for the line the core's business.
func (c *Ctrl) dropHolder(line uint64) {
	if c.evicting[line] {
		return
	}
	if _, ok := c.evictedAt[line]; ok {
		return
	}
	c.grp.clear(line, c.bit)
}

// waitChange registers a wake-up for the next invalidation of addr's line.
func (c *Ctrl) waitChange(addr uint64, done func()) {
	line := c.s.LineOf(addr)
	if c.l2.peek(line) == Invalid {
		c.k.Schedule(1, done)
		return
	}
	c.waiters[line] = append(c.waiters[line], done)
}

func (c *Ctrl) fireWaiters(line uint64) {
	ws := c.waiters[line]
	if len(ws) == 0 {
		return
	}
	delete(c.waiters, line)
	for _, w := range ws {
		c.k.Schedule(1, w)
	}
}
