package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/config"
	"repro/internal/fault"
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
// exactly once. A worm's destination, the mesh-edge core it runs to, sets
// its direction.
type mcPhase uint8

const (
	phaseNone mcPhase = iota
	phaseRow
	phaseCol
)

// flit.bits layout: the output port in the low three bits, then the head
// and tail marks, then the multicast phase. With one virtual channel a
// worm's flits are contiguous in every input ring
// (TestWormsStayContiguous), so a flit carries no worm id, index or
// length: only whether it opens or closes its worm (a one-flit worm does
// both).
const (
	portMask   uint8 = 1<<3 - 1
	markHead   uint8 = 1 << 3
	markTail   uint8 = 1 << 4
	phaseShift       = 5
)

// flit is 16 bytes (TestFlitAndRouterSizes): every hop copies one into the
// downstream ring, so its size is the hot path's memory traffic. Its
// worm's length is its message's one flit count (Message.flits).
type flit struct {
	msg *Message

	// vis is the low 32 bits of the first cycle the switch allocator may
	// consider this flit, compared with the clock in serial-number
	// arithmetic (ready), as seqLE compares broadcast sequence numbers:
	// a flit is never 2^31 cycles from visibility, since config bounds a
	// link delay and a retry backoff at 2^30 cycles (config.Validate).
	//
	// Staging (input registers): a flit landing off a link — or injected
	// locally — at cycle c is arbitrable from c+1, never the same cycle.
	// This kills every arrival/tick and Send/tick same-cycle ordering
	// dependence the serial kernel's global FIFO used to resolve and a
	// partitioned engine cannot reproduce — and is what real registered
	// router pipelines do anyway. (Local injections must be staged too:
	// although Send runs on the owning shard, whether the router's tick
	// event lands before or after the Send in the same cycle's bucket
	// depends on event push positions, which drift between engines.)
	//
	// A NACKed flit (fault injection) is at the front of its input and
	// already visible, so its retry backoff moves vis forward: ready then
	// also says the backoff has expired.
	vis uint32

	// Column and row of the core the worm is routed to, computed once per
	// worm: a unicast's destination (msg.Dst, the hub of a sendVia leg,
	// or one core of an EMesh-Pure broadcast), or the mesh-edge core a
	// multicast row or column worm runs to.
	// A mesh is at most config.MaxMeshDim wide (newMesh, Validate).
	dx, dy uint8

	attempts uint8 // failed crossings of the current hop (fault injection); reset per hop
	// bits packs the output port at the router whose input holds the flit
	// (route, once per hop), the head and tail marks and the multicast
	// phase; see portMask.
	bits uint8
}

func (f *flit) head() bool      { return f.bits&markHead != 0 }
func (f *flit) tail() bool      { return f.bits&markTail != 0 }
func (f *flit) port() int       { return int(f.bits & portMask) }
func (f *flit) setPort(p uint8) { f.bits = f.bits&^portMask | p }
func (f *flit) phase() mcPhase  { return mcPhase(f.bits >> phaseShift) }

// ready reports whether the switch allocator may consider the flit at now.
func (f *flit) ready(now sim.Time) bool { return int32(f.vis-uint32(now)) <= 0 }

// EMesh is the electrical-only fabric: the shared base around a mesh and
// no optical endpoint. With Multicast it is EMesh-BCast; without,
// broadcasts are serialized into unicasts at the source (EMesh-Pure). It
// admits, counts and delivers messages exactly as every other fabric
// does; the mesh under it only moves flits.
type EMesh struct {
	fabric // mesh, shard domain, statistics, delivery — no reorder CAM
}

// NewMesh builds the EMesh fabric on a single kernel (a one-shard domain).
// It panics on a non-positive geometry: meshes are constructed from
// validated configs.
func NewMesh(k *sim.Kernel, dim, flitBits, bufFlits, routerDelay, linkDelay int, multicast bool) *EMesh {
	e := &EMesh{}
	e.enet = newMesh(dim, flitBits, bufFlits, routerDelay, linkDelay, multicast)
	e.enet.deliver = e.enetDeliver
	e.Partition(sim.SerialDomain(k, dim*dim))
	return e
}

// Partition (re)binds the fabric and its mesh onto a shard domain; mesh
// links and credits are the only cross-shard edges.
func (e *EMesh) Partition(d *sim.Domain) { e.bind(d) }

// Send implements Network. It runs on the shard owning m.Src.
func (e *EMesh) Send(m *Message) {
	e.admit(m)
	e.sendOnMesh(m)
}

// Mesh is a dim x dim wormhole-routed electrical mesh with XY dimension-
// order routing, credit flow control and a single virtual channel: the
// flit transport under every fabric. With Multicast enabled it replicates
// broadcasts along an XY tree; without, it serializes them into unicasts
// at the source. It keeps flit counters only, in its owner's statistics
// block; messages are admitted, counted and delivered by the
// owning fabric.
type Mesh struct {
	Dim       int
	FlitBits  int
	BufFlits  int
	Multicast bool

	// The router and link delays, read on every hop.
	routerDelay, linkDelay sim.Time

	routers []*router
	deliver DeliverFunc // the owning fabric's ejection handler
	d       *sim.Domain
	// inj, when set, corrupts link crossings per its mesh BER: the
	// downstream router NACKs and the flit retries from the upstream
	// buffer after exponential backoff (hop-by-hop, so flit and message
	// order are kept). nil = perfect links.
	inj *fault.Injector
}

// newMesh builds the mesh's routers and rings; the owning fabric installs
// deliver and partitions it before the first Send. It panics on a
// non-positive geometry, or on a mesh wider than a flit's column and row
// bytes can address.
func newMesh(dim, flitBits, bufFlits, routerDelay, linkDelay int, multicast bool) *Mesh {
	if dim <= 0 || dim > config.MaxMeshDim || flitBits <= 0 || bufFlits <= 0 || routerDelay <= 0 || linkDelay <= 0 {
		panic(fmt.Sprintf("noc: bad mesh geometry dim=%d flit=%d buf=%d", dim, flitBits, bufFlits))
	}
	m := &Mesh{
		Dim: dim, FlitBits: flitBits, BufFlits: bufFlits, Multicast: multicast,
		routerDelay: sim.Time(routerDelay), linkDelay: sim.Time(linkDelay),
	}
	// Credit flow control holds every link input to bufFlits flits and
	// every credit queue to bufFlits stamps, so the rings are carved at
	// full size from one block per type, next to contiguous routers. The
	// local injection ring starts at the same size and grows with bursts.
	n := dim * dim
	depth := 1 << bits.Len(uint(bufFlits-1)) // bufFlits rounded up to a power of two
	rs := make([]router, n)
	flits := make([]flit, n*numPorts*depth)
	creds := make([]sim.Time, n*4*bufFlits)
	m.routers = make([]*router, n)
	for i := range rs {
		r := &rs[i]
		r.m, r.id, r.x, r.y = m, i, i%dim, i/dim
		r.tickFn = r.tick
		r.landFn = func() { r.landed++; r.wake() }
		for p := range r.in {
			j := (i*numPorts + p) * depth
			r.in[p].buf = flits[j : j+depth : j+depth]
		}
		for o := range r.outCredit {
			r.outCredit[o] = int32(bufFlits)
			j := (i*4 + o) * bufFlits
			r.credQ[o].buf = creds[j : j+bufFlits : j+bufFlits]
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
	return m
}

// Partition (re)binds the mesh onto a shard domain mapping every tile to
// its owning shard kernel, with the routers counting flits into the
// owner's statistics block st. Must be called before the first Send.
// Cross-shard flit handoff and credit return go through the domain's Post
// channel; everything else a router touches is shard-local.
func (m *Mesh) Partition(d *sim.Domain, st *Stats) {
	if d.Tiles() != len(m.routers) {
		panic(fmt.Sprintf("noc: domain maps %d tiles, mesh has %d routers", d.Tiles(), len(m.routers)))
	}
	m.d = d
	for _, r := range m.routers {
		r.k = d.K(r.id)
		r.sh = d.Shard(r.id)
		r.st = st
	}
}

// Send carries msg from msg.Src to every core it is addressed to but its
// source, and hands it to the owner's deliver there: a unicast as one worm,
// a broadcast as the multicast tree or one serialized unicast worm per
// other core. The owner hands a self-addressed message and a broadcast's
// copy for its source core over itself (fabric.sendOnMesh). It runs on the
// source tile's shard kernel — senders (cores, directories, hubs) always
// inject from their own tile's events, so everything Send touches is
// shard-local. msg arrives admitted: its flit count is set.
func (m *Mesh) Send(msg *Message) {
	src := m.routers[msg.Src]
	switch {
	case msg.Dst != BroadcastDst:
		src.enqueueWorm(msg, phaseNone, msg.Dst)
	case m.Multicast:
		src.spawnRowAndCols(msg)
	default:
		// EMesh-Pure: each worm carries the broadcast itself, since a worm
		// routes on its flits' dx/dy, never on msg.Dst.
		for d := range m.routers {
			if d != msg.Src {
				src.enqueueWorm(msg, phaseNone, d)
			}
		}
	}
}

// sendVia carries msg from core 'from' to core 'via' as a unicast worm,
// whatever msg's own endpoints are, and ejects it there: the electrical leg
// of a composed fabric's route, taken without a wrapper message.
func (m *Mesh) sendVia(msg *Message, from, via int) {
	m.routers[from].enqueueWorm(msg, phaseNone, via)
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

// flitRing is a FIFO of flits in a non-empty power-of-two array. A push
// to a full ring doubles it; credit flow control keeps a link input from
// ever being full, so only the local injection queue grows.
type flitRing struct {
	buf  []flit
	head int32 // index of the front flit, < len(buf)
	n    int32
}

func (q *flitRing) front() *flit { return &q.buf[q.head] }

func (q *flitRing) push(f flit) {
	if int(q.n) == len(q.buf) {
		// Two copies of a full ring: the len(buf) slots from head on
		// hold the queue in order, so head stays where it is.
		q.buf = append(q.buf, q.buf...)
	}
	q.buf[(q.head+q.n)&int32(len(q.buf)-1)] = f
	q.n++
}

// pop removes and returns the front flit. A ring that empties restarts at
// slot 0, so a lightly loaded queue keeps reusing the same cache line.
func (q *flitRing) pop() flit {
	f := q.buf[q.head]
	q.buf[q.head].msg = nil // drop the *Message reference for GC
	if q.n--; q.n == 0 {
		q.head = 0
	} else {
		q.head = (q.head + 1) & int32(len(q.buf)-1)
	}
	return f
}

// creditRing stages returning credit stamps, oldest first, in a fixed ring
// of BufFlits: an output's staged credits and its spendable ones never
// exceed the downstream buffer they stand for.
type creditRing struct {
	buf  []sim.Time
	head int32
	n    int32
}

// router is one mesh node. All state is touched only from kernel events.
//
// Input queues are rings (flitRing): a link input is carved at BufFlits
// rounded up to a power of two and never grows, because credit flow
// control bounds it; the local injection queue starts at the same size
// and doubles when a burst fills it. So steady-state flit traffic allocates nothing
// and a link that never goes idle holds no more than its buffer. A flit
// sent over a link is pushed onto the downstream input ring at send time,
// stamped with the cycle it becomes arbitrable (flit.vis); the link
// crossing itself is one pre-allocated event (landFn) that only counts
// the flit as landed and wakes the router, so a crossing copies the flit
// once and schedules no per-flit closure.
//
// Counters, ring indices and port numbers are held at the width they need,
// which keeps a router at 440 bytes (TestFlitAndRouterSizes). An output
// lock is a bit and the input the worm streams from, whose front flit is
// the lock holder's (worms are contiguous); no worm id or length is kept,
// since the message holds the one flit count.
type router struct {
	m      *Mesh
	k      *sim.Kernel // owning shard's kernel
	st     *Stats      // the owner's statistics block
	sh     int         // owning shard
	id     int
	x, y   int
	nbr    [4]*router // neighbour in each direction; nil at the mesh edge
	tickFn func()
	landFn func()

	in  [numPorts]flitRing
	occ uint8 // bit p set <=> input p holds a flit, landed or still on its link
	// landed counts queued flits whose landing event (or local injection)
	// has run. The end-of-tick re-arm asks this, not occ: a tick scheduled
	// for a flit still on its link would be pushed into its cycle's bucket
	// ahead of where the landing event puts it, and same-bucket order is
	// observable (the fault injector draws from one RNG stream).
	landed int32

	fwdFlits  uint64   // flits this router moved (heatmap observability)
	outCredit [4]int32 // credits spendable now (downstream buffer slots)
	// credQ stages credits returning on each output's reverse wire: the
	// downstream router frees a slot at cycle c, and the credit becomes
	// spendable here at c + LinkDelay (registered credit return — the
	// wire is symmetric). Entries are (free-cycle) stamps in
	// nondecreasing order; foldCredits moves the mature ones into
	// outCredit when the output is about to send and finds none
	// spendable. Same staging discipline as flit arrival: no same-cycle
	// cross-tile visibility, so credit-return ordering inside a cycle
	// cannot matter — serial and sharded engines agree bit for bit.
	credQ     [4]creditRing
	locked    uint8           // bit o set <=> a worm holds output o, from its head to its tail
	lockedIn  [numPorts]uint8 // input the locked worm streams from
	rr        [numPorts]uint8 // round-robin arbitration pointer: the input tried first
	scheduled bool
}

// qfront returns the head flit of input port p (callers check occ).
func (r *router) qfront(p int) *flit { return r.in[p].front() }

// qpush appends a flit to input port p. The caller accounts for landing.
func (r *router) qpush(p int, f flit) {
	r.in[p].push(f)
	r.occ |= 1 << p
}

// qpop removes and returns the head flit of input port p.
func (r *router) qpop(p int) flit {
	f := r.in[p].pop()
	if r.in[p].n == 0 {
		r.occ &^= 1 << p
	}
	r.landed--
	return f
}

// spawnRowAndCols seeds the multicast tree at the source router.
func (r *router) spawnRowAndCols(msg *Message) {
	row, edge := r.y*r.m.Dim, r.m.Dim-1
	if r.x < edge {
		r.enqueueWorm(msg, phaseRow, row+edge)
	}
	if r.x > 0 {
		r.enqueueWorm(msg, phaseRow, row)
	}
	r.spawnCols(msg)
}

func (r *router) spawnCols(msg *Message) {
	if r.y > 0 {
		r.enqueueWorm(msg, phaseCol, r.x)
	}
	if edge := r.m.Dim - 1; r.y < edge {
		r.enqueueWorm(msg, phaseCol, edge*r.m.Dim+r.x)
	}
}

// enqueueWorm constructs a worm toward core dst (a unicast's destination,
// or the mesh-edge core a multicast row or column worm runs to) directly
// in the local injection queue (no intermediate worm slice). The message
// holds the one flit count; its flits hold only head and tail marks.
func (r *router) enqueueWorm(msg *Message, ph mcPhase, dst int) {
	f := flit{msg: msg, bits: uint8(ph)<<phaseShift | markHead}
	f.dx, f.dy = uint8(dst%r.m.Dim), uint8(dst/r.m.Dim)
	f.setPort(r.route(f.dx, f.dy))
	f.vis = uint32(r.k.Now() + 1) // input-register staging, same as link arrival
	for i := int32(1); i < msg.flits; i++ {
		r.qpush(portLocal, f)
		f.bits &^= markHead
	}
	f.bits |= markTail
	r.qpush(portLocal, f)
	r.landed += msg.flits
	r.wake()
}

// pushCredit stages one returning credit for output out, freed downstream
// at cycle freed. No wake: a router with landed flits waiting on credit
// re-arms its own tick every cycle (the end-of-tick wake), and a router
// with none has nothing a credit could move — so a wake-on-credit would
// be behaviorally a no-op, and not having one is what lets credits cross
// shard boundaries without an event.
func (r *router) pushCredit(out int, freed sim.Time) {
	q := &r.credQ[out]
	i := int(q.head + q.n)
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = freed
	q.n++
}

// foldCredits moves output out's credits that have completed the
// reverse-wire crossing (freed + LinkDelay <= now) into the spendable
// pool. Only the credit check of the output about to send reads
// outCredit, and only whether it is positive, so folding there when it is
// not — not on every tick, for every output — leaves every check's
// outcome unchanged: folding never lowers the count, and a later fold
// moves every credit an earlier one would have.
func (r *router) foldCredits(out int, now sim.Time) {
	q := &r.credQ[out]
	for q.n > 0 && q.buf[q.head]+r.m.linkDelay <= now {
		r.outCredit[out]++
		q.n--
		if q.head++; int(q.head) == len(q.buf) {
			q.head = 0
		}
	}
}

func (r *router) wake() {
	if r.scheduled {
		return
	}
	r.scheduled = true
	r.k.Schedule(r.m.routerDelay, r.tickFn)
}

// route returns the output port at this router toward the core at column
// dx, row dy, in XY dimension order. It runs once per hop, when a flit is
// appended to one of this router's inputs. A multicast worm is routed the
// same way, toward the mesh-edge core at the end of its row or column:
// it leaves on its direction of travel until that edge, then ejects. The
// port is looked up rather than branched on: under uniform traffic the
// direction is close to random from one hop to the next, which a branch
// predicts badly.
func (r *router) route(dx, dy uint8) uint8 {
	return xyPort[sign(int(dx)-r.x)+1][sign(int(dy)-r.y)+1]
}

// xyPort[sx+1][sy+1] is the XY output toward a core whose column and row
// differ from this router's by signs sx and sy: the column first.
var xyPort = [3][3]uint8{
	{portW, portW, portW},
	{portN, portLocal, portS},
	{portE, portE, portE},
}

// sign returns -1, 0 or 1 as v is negative, zero or positive.
func sign(v int) int { return v>>(bits.UintSize-1) | int(uint(-v)>>(bits.UintSize-1)) }

// tick advances the router by one cycle: at most one flit per output port.
// Its cost follows the flits present, not the port count — at 1024 cores
// 96.5 % of ticks find exactly one occupied input (DESIGN.md, Mesh router
// hot path).
func (r *router) tick() {
	r.scheduled = false
	now := r.k.Now()
	// cand[out] is the set of inputs whose front flit is arbitrable now
	// and wants out; outs the set of outputs with a candidate; heads the
	// inputs whose front flit is a worm head (what a free output grants).
	var cand [numPorts]uint8
	var outs, heads uint8
	for occ := r.occ; occ != 0; occ &= occ - 1 {
		p := bits.TrailingZeros8(occ)
		if f := r.qfront(p); f.ready(now) {
			cand[f.port()] |= 1 << p
			outs |= 1 << f.port()
			if f.head() {
				heads |= 1 << p
			}
		}
	}
	// Outputs in ascending order; the loop's post statement retires the
	// one just visited (the lowest bit), leaving any exposed meanwhile.
	for ; outs != 0; outs &= outs - 1 {
		out := bits.TrailingZeros8(outs)
		inp := -1
		if r.locked&(1<<out) != 0 {
			// Worms are contiguous: the locked input's front is the holder's.
			if l := int(r.lockedIn[out]); cand[out]&(1<<l) != 0 {
				inp = l
			}
		} else if e := cand[out] & heads; e != 0 {
			inp, r.rr[out] = rrPick(e, r.rr[out])
		}
		if inp < 0 {
			continue
		}
		if out != portLocal {
			if r.outCredit[out] <= 0 {
				if r.foldCredits(out, now); r.outCredit[out] <= 0 {
					continue
				}
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
					h.vis = uint32(now + r.m.inj.Backoff(int(h.attempts)))
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
		f.attempts = 0 // retry state is per hop
		r.fwdFlits++
		if f.head() {
			r.locked |= 1 << out
			r.lockedIn[out] = uint8(inp)
		}
		if f.tail() {
			r.locked &^= 1 << out
		}
		// One input can feed two outputs in one cycle: the flit behind the
		// one just popped may be a ready head for a later output, which
		// this same tick grants (a head for an earlier one waits a cycle).
		if r.occ&(1<<inp) != 0 {
			if nf := r.qfront(inp); nf.ready(now) && nf.port() > out {
				cand[nf.port()] |= 1 << inp
				outs |= 1 << nf.port()
				if heads &^= 1 << inp; nf.head() {
					heads |= 1 << inp
				}
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
		// the source spawned its worms at Send time, and its owner hands
		// the source core's copy over itself.
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
		f.setPort(nbr.route(f.dx, f.dy))
		f.vis = uint32(now + r.m.linkDelay + 1)
		if nbr.sh == r.sh {
			nbr.qpush(inPort, f)
			r.k.Schedule(r.m.linkDelay, nbr.landFn)
		} else {
			// Cross-shard hop: hand the flit to the neighbour's shard at
			// the barrier; it lands with the same arrival cycle as a
			// local hop, kept whole here (vis holds only its low bits).
			fl, at := f, now+r.m.linkDelay // captured copies: f itself must not escape on the local path
			r.m.d.Post(r.sh, nbr.sh, func() {
				nbr.qpush(inPort, fl)
				nbr.k.At(at, nbr.landFn)
			})
		}
		if f.tail() && f.phase() != phaseNone && arrived {
			r.mcastTailSideEffects(f)
		}
	}
	if r.landed > 0 {
		r.wake()
	}
}

// rrPick grants a free output to one of the inputs in e (non-empty: the
// output's candidates with a worm head in front): the first at or after
// the round-robin pointer rr, wrapping around, as a scan of the inputs
// from rr would find. It returns that input and the pointer's next value,
// the input after it.
func rrPick(e, rr uint8) (int, uint8) {
	if hi := e >> rr << rr; hi != 0 {
		e = hi
	}
	p := bits.TrailingZeros8(e)
	return p, uint8((p + 1) % numPorts)
}

func (r *router) ejectFlit(f flit, arrived bool) {
	r.st.MeshRouterFlits++
	if !f.tail() {
		return
	}
	if f.phase() != phaseNone {
		if arrived {
			r.mcastTailSideEffects(f)
		}
		return
	}
	r.m.deliver(r.id, f.msg)
}

func (r *router) mcastTailSideEffects(f flit) {
	// Deliver the local copy at this router.
	r.m.deliver(r.id, f.msg)
	if f.phase() == phaseRow {
		r.spawnCols(f.msg)
	}
}
