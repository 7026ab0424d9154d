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

	// pendSlot is the core's one access (an in-order blocking core has at
	// most one outstanding) from its issue until completeFn, bound once,
	// completes it. pend is &pendSlot while the access's coherence miss is
	// in flight, else nil.
	pend       *pending
	pendSlot   pending
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

// pending is one access. val is the value a store writes until perform
// sets it to the value the access delivers; done is nil while no access
// is outstanding.
type pending struct {
	op   AccessOp
	addr uint64
	line uint64
	val  uint64
	f    func(uint64) uint64
	done func(uint64)
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

// hit is the one hit rule, for the L1 and the L2 alike: a load hits any
// valid copy, a store or RMW only a Modified one.
func hit(op AccessOp, st State) bool { return st == Modified || st == Shared && op == OpLoad }

// access starts one memory operation (see System.Access).
func (c *Ctrl) access(op AccessOp, addr, sval uint64, f func(uint64) uint64, done func(uint64)) {
	if c.pendSlot.done != nil {
		panic(fmt.Sprintf("coherence: core %d issued a second outstanding access", c.id))
	}
	line := c.s.LineOf(addr)
	c.pendSlot = pending{op: op, addr: addr, line: line, val: sval, f: f, done: done}
	st := &c.s.stats
	if op == OpLoad {
		st.L1DReads++
	} else {
		st.L1DWrites++
	}
	if hit(op, c.l1.lookup(line)) {
		c.perform(sim.Time(c.s.Cfg.Caches.L1HitCycles))
		return
	}

	// L1 miss: consult the L2.
	st.L1DMisses++
	st.L2Reads++
	s2 := c.l2.lookup(line)
	if hit(op, s2) {
		c.l1fill(line, s2)
		c.perform(c.fillLatency())
		return
	}

	// Coherence miss: ShReq for loads, ExReq for stores/RMW (an upgrade
	// if we hold the line Shared).
	st.L2Misses++
	c.pend = &c.pendSlot
	if op == OpLoad {
		c.request(MsgShReq, line, false)
	} else {
		c.request(MsgExReq, line, s2 == Shared)
	}
}

// request sends a request for line to its directory slice.
func (c *Ctrl) request(t MsgType, line uint64, hadShared bool) {
	d := c.s.dirs[c.s.SliceOf(line)]
	c.s.send(c.id, d.core, &Msg{Type: t, Line: line, From: c.id, Slice: d.slice, HadShared: hadShared})
}

// perform reads or writes the access's word now, as its rights are
// confirmed, and completes the access after lat cycles with the loaded
// value, the stored one, or the RMW's previous one.
func (c *Ctrl) perform(lat sim.Time) {
	p := &c.pendSlot
	switch p.op {
	case OpLoad:
		p.val = c.s.Vals.Read(p.addr)
	case OpStore:
		c.s.Vals.Write(p.addr, p.val)
	case OpRMW:
		p.val = c.s.Vals.Read(p.addr)
		c.s.Vals.Write(p.addr, p.f(p.val))
	}
	c.k.Schedule(lat, c.completeFn)
}

// complete runs the access's completion. The slot is free again before done
// runs, so done may issue the core's next access.
func (c *Ctrl) complete() {
	p := &c.pendSlot
	done := p.done
	p.done = nil
	done(p.val)
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
	switch {
	case vstate == Modified:
		c.request(MsgEvictM, vline, false)
	case c.s.Cfg.Coherence.Kind == config.ACKwise:
		// ACKwise forbids silent evictions.
		c.evicting[vline] = true
		c.request(MsgEvictS, vline, false)
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
	switch m.Type {
	case MsgInv, MsgWBReq, MsgFlushReq:
		c.probe(m)
	case MsgShRep, MsgExRep, MsgUpgRep:
		c.applyGrant(m)
	case MsgEvictAck:
		delete(c.evicting, m.Line)
		c.evictedAt[m.Line] = m.Seq
		c.grp.set(m.Line, c.bit)
		c.resolveEvictBuffered(m.Line, m.Seq)
	default:
		panic(fmt.Sprintf("coherence: core %d: unexpected unicast %v", c.id, m))
	}
}

// probe answers the directory's request for the core's copy of a line: Inv
// invalidates a Shared copy (with its data if HadShared asks), WBReq
// demotes a Modified copy to Shared, FlushReq invalidates it. A copy
// already gone gets a plain InvAck or a Stale reply, and the directory
// falls back to memory.
func (c *Ctrl) probe(m *Msg) {
	c.s.stats.L2TagProbes++
	line, st := m.Line, c.l2.peek(m.Line)
	// Each reply type follows its request type by the same distance.
	r := &Msg{Type: m.Type + MsgInvAck - MsgInv, Line: line, From: c.id, Slice: m.Slice}
	switch {
	case m.Type != MsgInv && st != Modified:
		r.Stale = true
	case m.Type == MsgWBReq:
		c.l2.setState(line, Shared)
		c.l1.setState(line, Shared)
	case m.Type == MsgFlushReq:
		c.invalidateLocal(line)
	case st == Modified:
		panic(fmt.Sprintf("coherence: core %d got Inv for Modified line %#x", c.id, line))
	case st == Shared:
		c.invalidateLocal(line)
		if m.HadShared { // data requested (piggy-back)
			r.Type = MsgInvAckData
		}
	}
	c.s.send(c.id, m.From, r)
}

// applyGrant completes the pending access.
func (c *Ctrl) applyGrant(m *Msg) {
	p := c.pend
	if p == nil || p.line != m.Line {
		panic(fmt.Sprintf("coherence: core %d: grant %v without matching pending access", c.id, m))
	}
	if (m.Type == MsgShRep) != (p.op == OpLoad) {
		panic(fmt.Sprintf("coherence: core %d: grant %v mismatches pending %v", c.id, m, p.op))
	}
	c.pend = nil
	st := Modified
	if m.Type == MsgShRep {
		st = Shared
	}
	c.l2fill(p.line, st)
	c.l1fill(p.line, st)
	c.perform(c.fillLatency())
	if m.Type == MsgShRep {
		c.resolveGrantBuffered(m.Line, m.Seq)
	}
}

// resolveGrantBuffered settles the broadcasts that overtook a shared grant.
// DirkB: one that already invalidated us at the directory is caught up by
// self-invalidating. ACKwise applies Section IV-C1: buffered broadcasts
// issued before the grant are dropped (we were not a sharer yet); newer
// ones are processed one cycle after the response.
func (c *Ctrl) resolveGrantBuffered(line uint64, grantSeq uint16) {
	if kill, ok := c.killSeq[line]; ok {
		delete(c.killSeq, line)
		if !seqLE(kill, grantSeq) {
			c.k.Schedule(1, func() { c.invalidateLocal(line) })
		}
	}
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

// pendingShared reports whether a shared request for line is outstanding.
func (c *Ctrl) pendingShared(line uint64) bool {
	return c.pend != nil && c.pend.line == line && c.pend.op == OpLoad
}

// handleBcast receives a broadcast invalidation. The per-slice sequence
// horizon advances at *arrival* — even for broadcasts buffered for later
// comparison — because the gating of unicasts only needs to restore the
// directory's send order, while a buffered broadcast's state effects are
// resolved against the grant or eviction ack it races with.
func (c *Ctrl) handleBcast(m *Msg) {
	line := m.Line
	dirKB := c.s.Cfg.Coherence.Kind == config.DirKB
	pendSh := c.pendingShared(line)
	// ACKwise cannot yet tell whether we were counted as a sharer while a
	// shared request or an eviction of the line is in flight; it buffers
	// the broadcast until the ShRep or EvictAck arrives. That deadlocks
	// if the EvictS waits at the directory behind the broadcasting
	// transaction (TestCtrlCells' Bcast/evicting row).
	buffer := !dirKB && (pendSh || c.evicting[line])
	// Otherwise the probe is the modelled tag access, counted either way;
	// a clear holder bit means the peek would find the line Invalid with
	// no evictedAt record.
	held, st := false, Invalid
	if !buffer {
		c.s.stats.L2TagProbes++
		if held = c.mayHold(line); held {
			st = c.l2.peek(line)
		}
	}
	switch {
	case buffer:
		if c.s.Tracer != nil {
			c.s.trace("reorder", "core %d buffers %v (pendSh=%v evicting=%v)", c.id, m, pendSh, c.evicting[line])
		}
		c.s.stats.ReorderBufferedBcast++
		c.bcastBuf[line] = append(c.bcastBuf[line], m)
	case st == Shared:
		c.invalidateLocal(line)
		c.ack(m)
	case dirKB:
		// Every core acknowledges every broadcast; no buffering (the
		// directory awaits all cores, so withholding acks would
		// deadlock). A grant sent before this broadcast may still
		// arrive: mark it for self-invalidation on application.
		if pendSh {
			c.killSeq[line] = m.Seq
		}
		c.ack(m)
	case st == Modified:
		panic(fmt.Sprintf("coherence: core %d: broadcast inv for Modified line %#x", c.id, line))
	case held:
		// A broadcast issued before the directory processed our
		// eviction counted us; acknowledge it.
		if e, ok := c.evictedAt[line]; ok && seqLE(m.Seq, e) {
			c.ack(m)
		}
	}
	c.markBcastArrived(m.Slice, m.Seq)
}

func (c *Ctrl) ack(m *Msg) {
	c.s.send(c.id, m.From, &Msg{Type: MsgInvAck, Line: m.Line, From: c.id, Slice: m.Slice})
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
		case c.pendingShared(line):
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
