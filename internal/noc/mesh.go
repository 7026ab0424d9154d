package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Port indices. Inputs 0-3 receive from the neighbour in that direction;
// input 4 is the local injection queue. Outputs 0-3 drive the link toward
// that neighbour; output 4 is the ejection port.
const (
	portN = iota
	portS
	portE
	portW
	portLocal
	numPorts
)

// opposite returns the input port a link out of direction p (0-3) enters
// downstream, and vice versa: N<->S and E<->W are adjacent indices.
func opposite(p int) int { return p ^ 1 }

// Multicast worm phases for the EMesh-BCast XY replication tree: a
// broadcast spawns row worms east/west from the source; every router a row
// worm visits spawns column worms north/south, so each core is delivered
// exactly once.
type mcPhase uint8

const (
	phaseNone mcPhase = iota
	phaseRowE
	phaseRowW
	phaseColN
	phaseColS
)

type flit struct {
	msg  *Message
	worm uint64 // unique per worm; wormhole locks are per-worm, not per-message

	// vis is the first cycle the switch allocator may consider this flit
	// (input-register staging): a flit landing off a link — or injected
	// locally — at cycle c is arbitrable from c+1, never the same cycle.
	// This kills every arrival/tick and Send/tick same-cycle ordering
	// dependence the serial kernel's global FIFO used to resolve and a
	// partitioned engine cannot reproduce — and is what real registered
	// router pipelines do anyway. (Local injections must be staged too:
	// although Send runs on the owning shard, whether the router's tick
	// event lands before or after the Send in the same cycle's bucket
	// depends on event push positions, which drift between engines.)
	vis sim.Time

	// Link-level retry state (fault injection). attempts counts failed
	// crossings of the current hop; retryAt gates the flit until its
	// backoff expires. Both reset when the flit advances a hop.
	retryAt  sim.Time
	attempts uint8

	phase mcPhase
	out   uint8 // output port at the router whose input holds the flit (route, once per hop)
	idx   int32 // flit index within the worm
	n     int32 // total flits in the worm
	dst   int32 // core a unicast worm is routed to (msg.Dst, or the hub of a sendVia leg)
}

func (f *flit) head() bool { return f.idx == 0 }
func (f *flit) tail() bool { return f.idx == f.n-1 }

// ready reports whether the switch allocator may consider the flit at now.
func (f *flit) ready(now sim.Time) bool { return f.vis <= now && f.retryAt <= now }

// Mesh is a dim x dim wormhole-routed electrical mesh with XY dimension-
// order routing, credit flow control and a single virtual channel. With
// Multicast enabled it is the EMesh-BCast network; without, broadcasts are
// serialized into unicasts at the source (EMesh-Pure).
type Mesh struct {
	K           *sim.Kernel
	Dim         int
	FlitBits    int
	BufFlits    int
	RouterDelay int
	LinkDelay   int
	Multicast   bool
	// Transport marks this mesh as an internal leg of a composed fabric
	// (the ATAC ENet): message-level statistics (send counts, latency,
	// injection) are left to the owner; only flit-level transport
	// counters are maintained here.
	Transport bool

	routers []*router
	deliver DeliverFunc
	d       *sim.Domain
	stats   []Stats // one block per shard; Stats() merges
	snap    Stats   // last merged snapshot (Stats() return target)
	wormSeq []uint64
	inj     *fault.Injector    // nil = perfect links
	lat     *metrics.Histogram // nil = latency histogram disabled
}

// NewMesh builds the mesh on a single kernel (a one-shard domain). It
// panics on a non-positive geometry: meshes are constructed from
// validated configs.
func NewMesh(k *sim.Kernel, dim, flitBits, bufFlits, routerDelay, linkDelay int, multicast bool) *Mesh {
	if dim <= 0 || flitBits <= 0 || bufFlits <= 0 || routerDelay <= 0 || linkDelay <= 0 {
		panic(fmt.Sprintf("noc: bad mesh geometry dim=%d flit=%d buf=%d", dim, flitBits, bufFlits))
	}
	m := &Mesh{
		K: k, Dim: dim, FlitBits: flitBits, BufFlits: bufFlits,
		RouterDelay: routerDelay, LinkDelay: linkDelay, Multicast: multicast,
	}
	m.routers = make([]*router, dim*dim)
	for i := range m.routers {
		r := &router{m: m, id: i, x: i % dim, y: i / dim}
		r.tickFn = r.tick
		r.landFn = func() { r.landed++; r.wake() }
		for o := range r.outCredit {
			r.outCredit[o] = bufFlits
		}
		m.routers[i] = r
	}
	for _, r := range m.routers {
		if r.y > 0 {
			r.nbr[portN] = m.routers[r.id-dim]
		}
		if r.y < dim-1 {
			r.nbr[portS] = m.routers[r.id+dim]
		}
		if r.x < dim-1 {
			r.nbr[portE] = m.routers[r.id+1]
		}
		if r.x > 0 {
			r.nbr[portW] = m.routers[r.id-1]
		}
	}
	m.Partition(sim.SerialDomain(k, dim*dim))
	return m
}

// Partition (re)binds the mesh onto a shard domain mapping every tile to
// its owning shard kernel: per-router kernels, per-shard statistics
// blocks and worm-id counters. Must be called before the first Send;
// NewMesh installs a serial one-shard domain, so only partitioned
// systems call this explicitly. Cross-shard flit handoff and credit
// return go through the domain's Post channel; everything else a router
// touches is shard-local.
func (m *Mesh) Partition(d *sim.Domain) {
	if d.Tiles() != len(m.routers) {
		panic(fmt.Sprintf("noc: domain maps %d tiles, mesh has %d routers", d.Tiles(), len(m.routers)))
	}
	m.d = d
	m.K = d.ShardK(0)
	m.stats = make([]Stats, d.NumShards())
	m.wormSeq = make([]uint64, d.NumShards())
	for _, r := range m.routers {
		r.k = d.K(r.id)
		r.sh = d.Shard(r.id)
		r.st = &m.stats[r.sh]
	}
}

// SetDeliver installs the ejection callback.
func (m *Mesh) SetDeliver(fn DeliverFunc) { m.deliver = fn }

// SetFaults arms link-level fault injection: every link crossing may be
// corrupted per the injector's mesh BER, detected at the downstream
// router and NACKed back, and the flit retransmitted from the upstream
// buffer after exponential backoff (hop-by-hop retry, so flit and message
// ordering are preserved). Must be set before the first Send; a nil
// injector leaves the mesh perfect.
func (m *Mesh) SetFaults(inj *fault.Injector) { m.inj = inj }

// Stats returns the counters. On a serial (one-shard) mesh this is the
// live block, exactly as before sharding existed; on a partitioned mesh
// it is a merged snapshot of the per-shard blocks, refreshed on every
// call — read it at a barrier (between Run windows) for a consistent
// view.
func (m *Mesh) Stats() *Stats {
	if len(m.stats) == 1 {
		return &m.stats[0]
	}
	m.snap = m.stats[0]
	for i := 1; i < len(m.stats); i++ {
		m.snap.MergeFrom(&m.stats[i])
	}
	return &m.snap
}

// SetLatencyHist attaches a per-delivery latency histogram (nil disables
// it again). The delivery path pays one nil check when unobserved.
func (m *Mesh) SetLatencyHist(h *metrics.Histogram) { m.lat = h }

// Send implements Network. It runs on the source tile's shard kernel —
// senders (cores, directories, hubs) always inject from their own tile's
// events, so everything Send touches is shard-local.
func (m *Mesh) Send(msg *Message) {
	src := m.routers[msg.Src]
	if !m.Transport {
		msg.Inject = src.k.Now()
	}
	n := FlitsFor(msg.Bits, m.FlitBits)
	if msg.Dst == BroadcastDst {
		if !m.Transport {
			src.st.BroadcastSent++
			src.st.InjectedFlits += uint64(n)
		}
		// Local copy to the source core.
		src.k.Schedule(1, func() { m.eject(msg.Src, msg) })
		if m.Multicast {
			src.spawnRowAndCols(msg, n)
		} else {
			// EMesh-Pure: one serialized unicast per other core. Each
			// clone shares the payload but carries a concrete
			// destination so XY routing works; origBcast keeps the
			// receiver-side traffic-mix statistics honest.
			for d := 0; d < m.Dim*m.Dim; d++ {
				if d != msg.Src {
					c := *msg
					c.Dst = d
					c.origBcast = true
					src.enqueueWorm(&c, phaseNone, d, n)
				}
			}
		}
		return
	}
	if !m.Transport {
		src.st.UnicastSent++
		src.st.InjectedFlits += uint64(n)
	}
	if msg.Dst == msg.Src {
		src.k.Schedule(1, func() { m.eject(msg.Dst, msg) })
		return
	}
	src.enqueueWorm(msg, phaseNone, msg.Dst, n)
}

// sendVia carries msg from core 'from' to core 'via' as a unicast worm,
// whatever msg's own endpoints are, and ejects it there: the electrical leg
// of a composed fabric's route, taken without a wrapper message. Transport
// meshes only (no message-level statistics are kept for the leg).
func (m *Mesh) sendVia(msg *Message, from, via int) {
	m.routers[from].enqueueWorm(msg, phaseNone, via, FlitsFor(msg.Bits, m.FlitBits))
}

// RouterFlits returns the per-router forwarded-flit counts (row-major),
// the spatial traffic distribution used for congestion heatmaps.
func (m *Mesh) RouterFlits() []uint64 {
	out := make([]uint64, len(m.routers))
	for i, r := range m.routers {
		out[i] = r.fwdFlits
	}
	return out
}

// Drained reports whether no flits remain anywhere in the mesh, including
// flits in flight on a link (test hook).
func (m *Mesh) Drained() bool {
	for _, r := range m.routers {
		if r.occ != 0 {
			return false
		}
	}
	return true
}

func (m *Mesh) eject(dst int, msg *Message) {
	r := m.routers[dst]
	if !m.Transport {
		now := r.k.Now()
		r.st.Delivered++
		if msg.Dst == BroadcastDst || msg.origBcast {
			r.st.BroadcastRecv++
		} else {
			r.st.UnicastRecv++
		}
		r.st.RecordLatency(now - msg.Inject)
		m.lat.Observe(uint64(now - msg.Inject))
	}
	if m.deliver != nil {
		m.deliver(dst, msg)
	}
}

// router is one mesh node. All state is touched only from kernel events.
//
// Input queues are ring-free FIFOs: a head index advances on pop, and the
// backing array is reused (reset to [:0]) whenever the queue drains, so
// steady-state flit traffic allocates nothing. A flit sent over a link is
// appended to the downstream input queue at send time, stamped with the
// cycle it becomes arbitrable (flit.vis); the link crossing itself is one
// pre-allocated event (landFn) that only counts the flit as landed and
// wakes the router, so a crossing copies the flit once and schedules no
// per-flit closure.
type router struct {
	m      *Mesh
	k      *sim.Kernel // owning shard's kernel (== m.K when serial)
	st     *Stats      // owning shard's statistics block
	sh     int         // owning shard
	id     int
	x, y   int
	nbr    [4]*router // neighbour in each direction; nil at the mesh edge
	tickFn func()
	landFn func()

	in     [numPorts][]flit
	inHead [numPorts]int
	occ    uint8 // bit p set <=> input p holds a flit, landed or still on its link
	// landed counts queued flits whose landing event (or local injection)
	// has run. The end-of-tick re-arm asks this, not occ: a tick scheduled
	// for a flit still on its link would be pushed into its cycle's bucket
	// ahead of where the landing event puts it, and same-bucket order is
	// observable (the fault injector draws from one RNG stream).
	landed int

	fwdFlits  uint64 // flits this router moved (heatmap observability)
	outCredit [4]int // credits spendable now (downstream buffer slots)
	// credQ stages credits returning on each output's reverse wire: the
	// downstream router frees a slot at cycle c, and the credit becomes
	// spendable here at c + LinkDelay (registered credit return — the
	// wire is symmetric). Entries are (free-cycle) stamps in
	// nondecreasing order; foldCredits moves the mature ones into
	// outCredit when the output is about to spend one. Same staging
	// discipline as flit arrival: no same-cycle cross-tile visibility, so
	// credit-return ordering inside a cycle cannot matter — serial and
	// sharded engines agree bit for bit.
	credQ     [4][]sim.Time
	credHead  [4]int
	outLock   [numPorts]uint64 // worm holding each output; 0 = free
	lockedIn  [numPorts]int    // input the locked worm streams from
	rr        [numPorts]int    // round-robin arbitration pointer
	scheduled bool
}

// qfront returns the head flit of input port p (callers check occ).
func (r *router) qfront(p int) *flit { return &r.in[p][r.inHead[p]] }

// qpush appends a flit to input port p. The caller accounts for landing.
func (r *router) qpush(p int, f flit) {
	r.in[p] = append(r.in[p], f)
	r.occ |= 1 << p
}

// qpop removes and returns the head flit of input port p, recycling the
// backing array once the queue drains.
func (r *router) qpop(p int) flit {
	q, h := r.in[p], r.inHead[p]
	f := q[h]
	q[h].msg = nil // drop the *Message reference for GC
	if h++; h == len(q) {
		r.in[p], h = q[:0], 0
		r.occ &^= 1 << p
	}
	r.inHead[p] = h
	r.landed--
	return f
}

// spawnRowAndCols seeds the multicast tree at the source router.
func (r *router) spawnRowAndCols(msg *Message, n int) {
	if r.x < r.m.Dim-1 {
		r.enqueueWorm(msg, phaseRowE, msg.Dst, n)
	}
	if r.x > 0 {
		r.enqueueWorm(msg, phaseRowW, msg.Dst, n)
	}
	r.spawnCols(msg, n)
}

func (r *router) spawnCols(msg *Message, n int) {
	if r.y > 0 {
		r.enqueueWorm(msg, phaseColN, msg.Dst, n)
	}
	if r.y < r.m.Dim-1 {
		r.enqueueWorm(msg, phaseColS, msg.Dst, n)
	}
}

// enqueueWorm constructs a worm's flits directly in the local injection
// queue (no intermediate worm slice). Worm ids are drawn from the owning
// shard's counter with a stride making them globally unique and nonzero
// (shard s issues s+1, n+s+1, 2n+s+1, ...; the one-shard sequence is
// exactly the old serial 1, 2, 3, ...). Ids are only compared for
// equality, so the numbering scheme is unobservable.
func (r *router) enqueueWorm(msg *Message, ph mcPhase, dst, n int) {
	nsh := uint64(len(r.m.wormSeq))
	id := r.m.wormSeq[r.sh]*nsh + uint64(r.sh) + 1
	r.m.wormSeq[r.sh]++
	f := flit{msg: msg, worm: id, phase: ph, n: int32(n), dst: int32(dst), out: r.route(ph, dst)}
	f.vis = r.k.Now() + 1 // input-register staging, same as link arrival
	for ; f.idx < f.n; f.idx++ {
		r.qpush(portLocal, f)
	}
	r.landed += n
	r.wake()
}

// pushCredit stages one returning credit for output out, freed downstream
// at cycle freed. No wake: a router with landed flits waiting on credit
// re-arms its own tick every cycle (the end-of-tick wake), and a router
// with none has nothing a credit could move — so a wake-on-credit would
// be behaviorally a no-op, and not having one is what lets credits cross
// shard boundaries without an event.
func (r *router) pushCredit(out int, freed sim.Time) {
	r.credQ[out] = append(r.credQ[out], freed)
}

// foldCredits moves output out's credits that have completed the
// reverse-wire crossing (freed + LinkDelay <= now) into the spendable
// pool. Only the credit check of the output about to send reads
// outCredit, so folding there — not on every tick, for every output —
// leaves every check's value unchanged.
func (r *router) foldCredits(out int, now sim.Time) {
	q, h := r.credQ[out], r.credHead[out]
	if h == len(q) {
		return
	}
	for ld := sim.Time(r.m.LinkDelay); h < len(q) && q[h]+ld <= now; h++ {
		r.outCredit[out]++
	}
	if h == len(q) {
		r.credQ[out], h = q[:0], 0
	}
	r.credHead[out] = h
}

func (r *router) wake() {
	if r.scheduled {
		return
	}
	r.scheduled = true
	r.k.Schedule(sim.Time(r.m.RouterDelay), r.tickFn)
}

// route returns the output port at this router for a worm in multicast
// phase ph, or — phaseNone — a unicast toward core dst. It runs once per
// hop, when a flit is appended to one of this router's inputs.
func (r *router) route(ph mcPhase, dst int) uint8 {
	switch ph {
	case phaseRowE:
		if r.x < r.m.Dim-1 {
			return portE
		}
		return portLocal
	case phaseRowW:
		if r.x > 0 {
			return portW
		}
		return portLocal
	case phaseColN:
		if r.y > 0 {
			return portN
		}
		return portLocal
	case phaseColS:
		if r.y < r.m.Dim-1 {
			return portS
		}
		return portLocal
	}
	// XY dimension order toward dst.
	dx, dy := dst%r.m.Dim, dst/r.m.Dim
	switch {
	case dx > r.x:
		return portE
	case dx < r.x:
		return portW
	case dy > r.y:
		return portS
	case dy < r.y:
		return portN
	default:
		return portLocal
	}
}

// tick advances the router by one cycle: at most one flit per output port.
// Its cost follows the flits present, not the port count — at 1024 cores
// 96.5 % of ticks find exactly one occupied input (DESIGN.md, Mesh router
// hot path).
func (r *router) tick() {
	r.scheduled = false
	now := r.k.Now()
	// cand[out] is the set of inputs whose front flit is arbitrable now
	// and wants out; outs the set of outputs with a candidate.
	var cand [numPorts]uint8
	var outs uint8
	for occ := r.occ; occ != 0; occ &= occ - 1 {
		p := bits.TrailingZeros8(occ)
		if f := r.qfront(p); f.ready(now) {
			cand[f.out] |= 1 << p
			outs |= 1 << f.out
		}
	}
	// Outputs in ascending order; the loop's post statement retires the
	// one just visited (the lowest bit), leaving any exposed meanwhile.
	for ; outs != 0; outs &= outs - 1 {
		out := bits.TrailingZeros8(outs)
		inp := -1
		if w := r.outLock[out]; w != 0 {
			if l := r.lockedIn[out]; cand[out]&(1<<l) != 0 && r.qfront(l).worm == w {
				inp = l
			}
		} else {
			// Round-robin over inputs with an eligible head flit.
			for k := 0; k < numPorts; k++ {
				p := (r.rr[out] + k) % numPorts
				if cand[out]&(1<<p) != 0 && r.qfront(p).head() {
					inp = p
					r.rr[out] = (p + 1) % numPorts
					break
				}
			}
		}
		if inp < 0 {
			continue
		}
		if out != portLocal {
			if r.foldCredits(out, now); r.outCredit[out] <= 0 {
				continue
			}
			// Link-level fault handling: the flit crosses the link, the
			// downstream router's error detection rejects it and NACKs, and
			// the flit retries from this buffer after exponential backoff.
			// The corrupted crossing still burned wire and crossbar energy,
			// so it is charged like a delivered one. Hop-by-hop retry keeps
			// every worm, and therefore every message pair, in FIFO order —
			// the coherence protocol's ordering assumptions are unaffected.
			if r.m.inj != nil && r.m.inj.MeshFlitError() {
				st := r.st
				st.MeshNacks++
				st.MeshLinkFlits++
				st.MeshRouterFlits++
				h := r.qfront(inp)
				if int(h.attempts) < r.m.inj.MaxRetries() {
					h.attempts++
					h.retryAt = now + r.m.inj.Backoff(int(h.attempts))
					st.MeshRetxFlits++
					continue
				}
				// Retry budget spent: force the flit through (modelling
				// end-to-end FEC recovering the residual error) so the
				// protocol layer always makes progress.
				st.MeshRetriesExhausted++
			}
		}
		f := r.qpop(inp)
		f.attempts, f.retryAt = 0, 0 // retry state is per hop
		r.fwdFlits++
		if f.head() {
			r.outLock[out] = f.worm
			r.lockedIn[out] = inp
		}
		if f.tail() {
			r.outLock[out] = 0
		}
		// One input can feed two outputs in one cycle: the flit behind the
		// one just popped may be a ready head for a later output, which
		// this same tick grants (a head for an earlier one waits a cycle).
		if r.occ&(1<<inp) != 0 {
			if nf := r.qfront(inp); nf.ready(now) && int(nf.out) > out {
				cand[nf.out] |= 1 << inp
				outs |= 1 << nf.out
			}
		}
		// Return a credit upstream for the buffer slot we freed. The
		// credit is staged on the reverse wire (pushCredit) and becomes
		// spendable upstream LinkDelay cycles after this tick — the same
		// registered-return timing on both engines, crossing shard
		// boundaries through the domain's Post channel when needed.
		if inp < portLocal {
			up, o := r.nbr[inp], opposite(inp)
			if up.sh == r.sh {
				up.pushCredit(o, now)
			} else {
				r.m.d.Post(r.sh, up.sh, func() { up.pushCredit(o, now) })
			}
		}
		// Multicast worms deliver a local copy and spawn column worms as
		// their tail passes through each router they arrive at. Worms do
		// not fire side effects at their origin router (inp == portLocal):
		// the source's delivery and spawning happened at Send time.
		arrived := inp != portLocal
		if out == portLocal {
			r.ejectFlit(f, arrived)
			continue
		}
		r.outCredit[out]--
		r.st.MeshLinkFlits++
		r.st.MeshRouterFlits++
		// The flit goes straight into the downstream input queue, routed
		// there and invisible to its allocator until the cycle after the
		// link crossing completes; landFn at the crossing's end counts it.
		nbr, inPort := r.nbr[out], opposite(out)
		f.out = nbr.route(f.phase, int(f.dst))
		f.vis = now + sim.Time(r.m.LinkDelay) + 1
		if nbr.sh == r.sh {
			nbr.qpush(inPort, f)
			r.k.Schedule(sim.Time(r.m.LinkDelay), nbr.landFn)
		} else {
			// Cross-shard hop: hand the flit to the neighbour's shard at
			// the barrier; it lands with the same arrival cycle as a
			// local hop.
			fl := f // captured copy: f itself must not escape on the local path
			r.m.d.Post(r.sh, nbr.sh, func() {
				nbr.qpush(inPort, fl)
				nbr.k.At(fl.vis-1, nbr.landFn)
			})
		}
		if f.tail() && f.phase != phaseNone && arrived {
			r.mcastTailSideEffects(f)
		}
	}
	if r.landed > 0 {
		r.wake()
	}
}

func (r *router) ejectFlit(f flit, arrived bool) {
	r.st.MeshRouterFlits++
	if !f.tail() {
		return
	}
	if f.phase != phaseNone {
		if arrived {
			r.mcastTailSideEffects(f)
		}
		return
	}
	r.m.eject(r.id, f.msg)
}

func (r *router) mcastTailSideEffects(f flit) {
	// Deliver the local copy at this router.
	r.m.eject(r.id, f.msg)
	if f.phase == phaseRowE || f.phase == phaseRowW {
		r.spawnCols(f.msg, int(f.n))
	}
}
