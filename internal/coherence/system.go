package coherence

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// pageWords is the length of a ValueStore page: 512 words, 4 KB.
const pageWords = 512

// page is one run of pageWords words, allocated whole on its first write.
type page [pageWords]uint64

// ValueStore is the single authoritative backing store for all simulated
// memory words (8-byte granularity). Absent words read as zero. Words live
// in 4 KB pages, so a run's arrays cost their own size plus one map entry
// per page rather than one map entry per word; a read never creates a
// page.
type ValueStore struct {
	pages map[uint64]*page // by word address / pageWords
}

// NewValueStore returns an empty store.
func NewValueStore() *ValueStore {
	return &ValueStore{pages: make(map[uint64]*page)}
}

// Read returns the word at byte address addr (aligned down to 8 bytes).
func (v *ValueStore) Read(addr uint64) uint64 {
	w := addr >> 3
	if p := v.pages[w/pageWords]; p != nil {
		return p[w%pageWords]
	}
	return 0
}

// Write stores the word at byte address addr, allocating its page on
// first use.
func (v *ValueStore) Write(addr, val uint64) {
	w := addr >> 3
	p := v.pages[w/pageWords]
	if p == nil {
		p = new(page)
		v.pages[w/pageWords] = p
	}
	p[w%pageWords] = val
}

// System wires per-core cache controllers, directory slices and memory
// controllers over a network, and exposes the core-facing Access API.
type System struct {
	K    *sim.Kernel
	Cfg  *config.Config
	Net  noc.Network
	Vals *ValueStore
	// Tracer, when non-nil, records protocol events (debugging aid;
	// nil costs nothing).
	Tracer *trace.Ring

	ctrls  []*Ctrl
	dirs   []*DirSlice
	mems   []*mem.Controller
	dirAt  []*DirSlice // per core: the slice located there, or nil
	memAt  []*memPort  // per core: the controller located there, or nil
	stats  Stats
	lineSz uint64
}

// NewSystem builds the coherence layer on the given network. The network's
// deliver callback is claimed by the System.
func NewSystem(k *sim.Kernel, cfg *config.Config, net noc.Network) *System {
	s := &System{
		K: k, Cfg: cfg, Net: net, Vals: NewValueStore(),
		dirAt:  make([]*DirSlice, cfg.Cores),
		memAt:  make([]*memPort, cfg.Cores),
		lineSz: uint64(cfg.Caches.LineBytes),
	}
	s.ctrls = make([]*Ctrl, cfg.Cores)
	for i := range s.ctrls {
		s.ctrls[i] = newCtrl(s, i)
	}
	for cl := 0; cl < cfg.Clusters(); cl++ {
		ids := cfg.ClusterCoreIDs(cl)
		for len(ids) > 0 {
			n := min(len(ids), 64)
			g := newHolderGroup()
			for i, core := range ids[:n] {
				s.ctrls[core].grp, s.ctrls[core].bit = g, 1<<i
			}
			ids = ids[n:]
		}
	}
	s.dirs = make([]*DirSlice, cfg.Caches.DirSlices)
	for i := range s.dirs {
		core := cfg.DirCore(i)
		s.dirs[i] = newDirSlice(s, i, core)
		s.dirAt[core] = s.dirs[i]
	}
	s.mems = make([]*mem.Controller, cfg.Memory.Controllers)
	for i := range s.mems {
		core := cfg.MemCore(i)
		s.mems[i] = mem.NewController(k, core, cfg.Memory.LatencyCycles, cfg.Caches.LineBytes, cfg.Memory.GBPerSec)
		s.memAt[core] = newMemPort(s, s.mems[i])
	}
	net.SetDeliver(s.onDeliver)
	s.Partition(sim.SerialDomain(k, cfg.Cores))
	return s
}

// Partition (re)binds the coherence layer onto a shard domain: each cache
// controller and memory controller schedules on the shard owning its host
// core. The network must already be partitioned onto the same domain.
func (s *System) Partition(d *sim.Domain) {
	s.K = d.ShardK(0)
	for i, c := range s.ctrls {
		c.k = d.K(i)
	}
	for _, mc := range s.mems {
		mc.K = d.K(mc.Core)
	}
}

// Stats returns the live protocol counter block.
func (s *System) Stats() *Stats { return &s.stats }

// LineOf returns the cache line index of a byte address.
func (s *System) LineOf(addr uint64) uint64 { return addr / s.lineSz }

// SliceOf returns the directory slice owning a line (static interleave).
func (s *System) SliceOf(line uint64) int { return int(line % uint64(s.Cfg.Caches.DirSlices)) }

// MemCtrlFor returns the controller serving a line.
func (s *System) MemCtrlFor(line uint64) *mem.Controller {
	return s.mems[int(line%uint64(len(s.mems)))]
}

// Access performs one memory operation for core. Exactly one access may be
// outstanding per core (in-order blocking core model); done is called with
// the loaded value (loads), the previous value (RMW), or the stored value.
// For OpRMW, f maps the old value to the new one. Access must be invoked
// from within a kernel event.
func (s *System) Access(core int, op AccessOp, addr uint64, storeVal uint64, f func(uint64) uint64, done func(uint64)) {
	s.ctrls[core].access(op, addr, storeVal, f, done)
}

// WaitChange invokes done the next time the line holding addr is
// invalidated or downgraded at this core (local spin-wait modelling: a
// waiting core holds the line Shared and sleeps; the coherence
// invalidation is the wake-up). If the core does not currently hold the
// line, done fires immediately — the value may already have changed.
func (s *System) WaitChange(core int, addr uint64, done func()) {
	s.ctrls[core].waitChange(addr, done)
}

// CoreState summarizes a core controller's blocked state for diagnostics
// (the watchdog's stall dump): the pending access, spin-wait registrations,
// and any reorder/eviction bookkeeping that could be holding progress.
// Returns "idle" when nothing is outstanding.
func (s *System) CoreState(core int) string {
	c := s.ctrls[core]
	var parts []string
	if p := c.pend; p != nil {
		parts = append(parts, fmt.Sprintf("pending %v @%#x", p.op, p.addr))
	}
	if n := len(c.waiters); n > 0 {
		lines := make([]uint64, 0, n)
		for ln := range c.waiters {
			lines = append(lines, ln)
		}
		sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
		parts = append(parts, fmt.Sprintf("waiting on %d line(s) %#x", n, lines[0]))
	}
	if n := len(c.evicting); n > 0 {
		parts = append(parts, fmt.Sprintf("%d eviction(s) in flight", n))
	}
	held := 0
	for _, q := range c.uniBuf {
		held += len(q)
	}
	if held > 0 {
		parts = append(parts, fmt.Sprintf("%d reordered unicast(s) held", held))
	}
	if n := len(c.bcastBuf); n > 0 {
		parts = append(parts, fmt.Sprintf("%d line(s) with buffered broadcasts", n))
	}
	if len(parts) == 0 {
		return "idle"
	}
	return strings.Join(parts, ", ")
}

// Quiesced reports whether no coherence transaction is in flight anywhere
// (test hook; cores may still hold pending accesses if the caller manages
// them).
func (s *System) Quiesced() bool {
	for _, d := range s.dirs {
		if !d.quiesced() {
			return false
		}
	}
	return true
}

// trace records one protocol event. The ring is stamped from the kernel
// clock it binds on first use, the same sim.Time source the metrics layer
// samples — so trace entries and metric epochs can never disagree on
// ordering. (Tracing binds shard 0's clock, which is only globally
// meaningful on a serial engine; the system layer falls back to serial
// execution whenever a tracer is attached.) Every call site checks
// s.Tracer first: unguarded, the variadic call boxes its arguments, and an
// integer of 256 or more costs an allocation, tracing on or off.
func (s *System) trace(kind, format string, args ...any) {
	s.Tracer.BindClock(s.K)
	s.Tracer.Recordf(kind, format, args...)
}

// send injects a protocol message into the network in its own envelope.
func (s *System) send(src, dst int, m *Msg) {
	if s.Tracer != nil {
		s.trace("msg", "%d->%d %v", src, dst, m)
	}
	s.Net.Send(m.envelope(src, dst))
}

// onDeliver dispatches network deliveries to the component at dst.
func (s *System) onDeliver(dst int, nm *noc.Message) {
	m, ok := nm.Payload.(*Msg)
	if !ok {
		panic(fmt.Sprintf("coherence: foreign payload %T delivered to core %d", nm.Payload, dst))
	}
	switch m.Type {
	case MsgShReq, MsgExReq, MsgEvictS, MsgEvictM, MsgInvAck, MsgInvAckData, MsgWBRep, MsgFlushRep:
		d := s.dirAt[dst]
		if d == nil || d.slice != m.Slice {
			panic(fmt.Sprintf("coherence: %v delivered to core %d which hosts no slice %d", m, dst, m.Slice))
		}
		d.handle(m)
	case MsgMemRsp:
		s.dirAt[dst].handle(m)
	case MsgMemRead:
		s.memAt[dst].read(m)
	case MsgMemWrite:
		s.memAt[dst].Write()
		s.stats.MemWrites++
	case MsgInvBcast:
		s.ctrls[dst].handleBcast(m)
	default:
		// Directory -> core unicasts, subject to sequence-number
		// ordering (Section IV-C1).
		s.ctrls[dst].handleUnicast(m)
	}
}

// memPort is one memory controller as the coherence layer drives it: the
// line fetches it is serving, oldest first, in a ring, and the one
// completion event they share (readFn, bound once). A controller finishes
// its fetches in the order it took them — each starts after the one
// before and pays the same latency — so every completion answers the
// oldest fetch.
type memPort struct {
	*mem.Controller
	s       *System
	reads   []*Msg // ring of power-of-two length, reads[head] oldest
	head, n int
	readFn  func()
}

func newMemPort(s *System, mc *mem.Controller) *memPort {
	p := &memPort{Controller: mc, s: s, reads: make([]*Msg, 1)}
	p.readFn = p.readDone
	return p
}

// read queues the fetch MsgMemRead m asks for.
func (p *memPort) read(m *Msg) {
	if p.n == len(p.reads) {
		// Two copies of a full ring: the len(reads) slots from head on
		// hold the queue in order, so head stays where it is.
		p.reads = append(p.reads, p.reads...)
	}
	p.reads[(p.head+p.n)&(len(p.reads)-1)] = m
	p.n++
	p.Read(p.readFn)
}

// readDone answers the oldest fetch with the line.
func (p *memPort) readDone() {
	m := p.reads[p.head]
	p.reads[p.head] = nil
	p.head = (p.head + 1) & (len(p.reads) - 1)
	p.n--
	p.s.stats.MemReads++
	p.s.send(p.Core, m.From, &Msg{Type: MsgMemRsp, Line: m.Line, From: p.Core, Slice: m.Slice})
}

// seqLE reports a <= b in wraparound (serial-number) arithmetic.
func seqLE(a, b uint16) bool { return int16(b-a) >= 0 }
