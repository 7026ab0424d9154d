package coherence

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// vstripes is the lock-striping factor of the ValueStore. Word accesses
// hash to stripes, so shards touching disjoint words contend only on
// 1/vstripes of the keyspace.
const vstripes = 64

// ValueStore is the single authoritative backing store for all simulated
// memory words (8-byte granularity). Absent words read as zero.
//
// Under a partitioned simulation the coherence protocol still serializes
// conflicting accesses to a *word* (single-writer at the directory), but
// different shards may concurrently touch different words, which would
// race on map internals. The store therefore stripes its words across
// locked maps; the locks are elided entirely (a plain branch) while the
// simulation runs on a single shard.
type ValueStore struct {
	shared  bool // take stripe locks (more than one shard may access)
	stripes [vstripes]vstripe
}

type vstripe struct {
	mu    sync.Mutex
	words map[uint64]uint64
}

// NewValueStore returns an empty store.
func NewValueStore() *ValueStore {
	v := &ValueStore{}
	for i := range v.stripes {
		v.stripes[i].words = make(map[uint64]uint64)
	}
	return v
}

// SetShared switches stripe locking on or off. Must not be called while a
// simulation is running.
func (v *ValueStore) SetShared(shared bool) { v.shared = shared }

// Read returns the word at byte address addr (aligned down to 8 bytes).
func (v *ValueStore) Read(addr uint64) uint64 {
	w := addr >> 3
	s := &v.stripes[w%vstripes]
	if !v.shared {
		return s.words[w]
	}
	s.mu.Lock()
	val := s.words[w]
	s.mu.Unlock()
	return val
}

// Write stores the word at byte address addr.
func (v *ValueStore) Write(addr, val uint64) {
	w := addr >> 3
	s := &v.stripes[w%vstripes]
	if !v.shared {
		s.words[w] = val
		return
	}
	s.mu.Lock()
	s.words[w] = val
	s.mu.Unlock()
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
	dirAt  map[int]*DirSlice       // core -> slice located there
	memAt  map[int]*mem.Controller // core -> controller located there
	d      *sim.Domain
	stats  []Stats // one block per shard; Stats() merges
	snap   Stats
	lineSz uint64
}

// NewSystem builds the coherence layer on the given network. The network's
// deliver callback is claimed by the System.
func NewSystem(k *sim.Kernel, cfg *config.Config, net noc.Network) *System {
	s := &System{
		K: k, Cfg: cfg, Net: net, Vals: NewValueStore(),
		dirAt:  make(map[int]*DirSlice),
		memAt:  make(map[int]*mem.Controller),
		lineSz: uint64(cfg.Caches.LineBytes),
	}
	s.ctrls = make([]*Ctrl, cfg.Cores)
	for i := range s.ctrls {
		s.ctrls[i] = newCtrl(s, i)
	}
	s.dirs = make([]*DirSlice, cfg.Caches.DirSlices)
	for i := range s.dirs {
		core := s.DirCore(i)
		s.dirs[i] = newDirSlice(s, i, core)
		s.dirAt[core] = s.dirs[i]
	}
	s.mems = make([]*mem.Controller, cfg.Memory.Controllers)
	for i := range s.mems {
		core := s.MemCore(i)
		s.mems[i] = mem.NewController(k, core, cfg.Memory.LatencyCycles, cfg.Caches.LineBytes, cfg.Memory.GBPerSec)
		s.memAt[core] = s.mems[i]
	}
	net.SetDeliver(s.onDeliver)
	s.Partition(sim.SerialDomain(k, cfg.Cores))
	return s
}

// Partition (re)binds the coherence layer onto a shard domain: each cache
// controller, directory slice, and memory controller schedules on (and
// counts into) the shard owning its host core, and the value store turns
// on stripe locking when more than one shard may touch it. The network
// must already be partitioned onto the same domain.
func (s *System) Partition(d *sim.Domain) {
	s.d = d
	s.K = d.ShardK(0)
	s.stats = make([]Stats, d.NumShards())
	s.Vals.SetShared(d.NumShards() > 1)
	for i, c := range s.ctrls {
		c.k = d.K(i)
		c.st = &s.stats[d.Shard(i)]
	}
	for _, dir := range s.dirs {
		dir.st = &s.stats[d.Shard(dir.core)]
	}
	for _, mc := range s.mems {
		mc.K = d.K(mc.Core)
	}
}

// Stats returns the protocol counter block. With one shard the live block
// is returned; with several, a merged snapshot — valid at window barriers
// and after the run.
func (s *System) Stats() *Stats {
	if len(s.stats) == 1 {
		return &s.stats[0]
	}
	s.snap = Stats{}
	for i := range s.stats {
		s.snap.MergeFrom(&s.stats[i])
	}
	return &s.snap
}

// statsAt returns the statistics block of the shard owning core c.
func (s *System) statsAt(c int) *Stats { return &s.stats[s.d.Shard(c)] }

// LineOf returns the cache line index of a byte address.
func (s *System) LineOf(addr uint64) uint64 { return addr / s.lineSz }

// SliceOf returns the directory slice owning a line (static interleave).
func (s *System) SliceOf(line uint64) int { return int(line % uint64(s.Cfg.Caches.DirSlices)) }

// DirCore returns the core hosting directory slice i: the top-left core of
// cluster i (mod cluster count), spreading slices across the die.
func (s *System) DirCore(i int) int {
	cfg := s.Cfg
	dim := cfg.MeshDim()
	cw := dim / cfg.ClusterDim
	cl := i % cfg.Clusters()
	cx, cy := cl%cw, cl/cw
	return (cy * cfg.ClusterDim * dim) + cx*cfg.ClusterDim
}

// MemCore returns the core hosting memory controller i: the bottom-right
// core of cluster i (mod cluster count).
func (s *System) MemCore(i int) int {
	cfg := s.Cfg
	dim := cfg.MeshDim()
	cw := dim / cfg.ClusterDim
	cl := i % cfg.Clusters()
	cx, cy := cl%cw, cl/cw
	x := cx*cfg.ClusterDim + cfg.ClusterDim - 1
	y := cy*cfg.ClusterDim + cfg.ClusterDim - 1
	return y*dim + x
}

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

// trace records one protocol event when tracing is enabled. The ring is
// stamped from the kernel clock it binds on first use, the same sim.Time
// source the metrics layer samples — so trace entries and metric epochs
// can never disagree on ordering. (Tracing binds shard 0's clock, which is
// only globally meaningful on a serial engine; the system layer falls back
// to serial execution whenever a tracer is attached.)
func (s *System) trace(kind, format string, args ...any) {
	if s.Tracer != nil {
		s.Tracer.BindClock(s.K)
		s.Tracer.Recordf(kind, format, args...)
	}
}

// send wraps a protocol message and injects it into the network.
func (s *System) send(src, dst int, m *Msg) {
	if s.Tracer != nil { // unguarded, the variadic call boxes src and dst per message
		s.trace("msg", "%d->%d %v", src, dst, m)
	}
	s.Net.Send(&noc.Message{
		Src: src, Dst: dst,
		Bits:    m.Type.Bits(),
		Payload: m,
	})
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
		mc := s.memAt[dst]
		line, slice, from := m.Line, m.Slice, m.From
		mc.Read(func() {
			s.statsAt(dst).MemReads++
			s.send(mc.Core, from, &Msg{Type: MsgMemRsp, Line: line, From: mc.Core, Slice: slice})
		})
	case MsgMemWrite:
		s.memAt[dst].Write()
		s.statsAt(dst).MemWrites++
	case MsgInvBcast:
		s.ctrls[dst].handleBcast(m)
	default:
		// Directory -> core unicasts, subject to sequence-number
		// ordering (Section IV-C1).
		s.ctrls[dst].handleUnicast(m)
	}
}

// seqLE reports a <= b in wraparound (serial-number) arithmetic.
func seqLE(a, b uint16) bool { return int16(b-a) >= 0 }
