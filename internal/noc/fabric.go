package noc

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// This file is the base every fabric shares (DESIGN.md, "Shared fabric
// base"): the mesh-plus-endpoints base that admits, counts and delivers
// every message of all six network kinds, and, for the optical ones, the
// stop-and-wait transmitter with its fault half and degradation window,
// and the receive side. Nothing here asks which fabric it serves: a fabric
// takes part in a piece by holding it and calling it, never through a flag.
//
// Two orders are observable and must survive any edit here or in a caller:
// the order of Schedule/At/Post calls inside one event (same-cycle events
// run in schedule order) and the order and count of fault-RNG draws (one
// global stream). TestOpticalFaultStatsGolden pins both.

// fabric is the composite base: the electrical mesh every fabric embeds,
// the shard domain, the statistics block, the per-pair reorder CAM and the
// final delivery path. Cfg is nil on an EMesh built by NewMesh.
type fabric struct {
	K   *sim.Kernel
	Cfg *config.Config

	enet    *Mesh
	deliver DeliverFunc
	// clusterOf[core] is Cfg.ClusterOf(core), built once by setup: the
	// optical fabrics read a message's clusters on every send.
	clusterOf []int
	// atHub is what the fabric does with a message that has reached an
	// optical endpoint's core on the hub leg (sendViaHub) — enqueue it for
	// transmission, split it into channel requests — the one step of that
	// leg the fabrics do not share. Bound once by the constructor, the way
	// a mesh's owner installs its ejection handler.
	atHub func(core int, m *Message)
	d     *sim.Domain
	stats Stats

	// Per-pair FIFO restoration: once the path of a (src,dst) pair can
	// vary per message (adaptive routing, or degradation flipping optical
	// unicasts onto the mesh mid-run), the coherence protocol's same-pair
	// ordering assumption must be enforced at the receiving NIC (a small
	// reorder CAM in hardware). Unused (nil) for fabrics and policies whose
	// paths are fixed per pair, which are FIFO by construction. pairNext is
	// consulted at the sender, pairWant/pairHeld at the receiving NIC.
	pairFIFO bool
	pairNext map[pairKey]uint64
	pairWant map[pairKey]uint64
	pairHeld map[pairKey]map[uint64]*Message

	// outstanding counts busy transmitters and in-flight optical/receive-net
	// jobs (test hook for Drained).
	outstanding int

	// landings is the free list of the fabric's pooled hand-off events
	// (landing). Shards run one after another on one goroutine, so one
	// list serves every shard.
	landings *landing

	// health holds one degradation window per optical channel of a fabric
	// that can fall back to the mesh (ATAC clusters, hybrid gateways).
	health []channelHealth

	inj *fault.Injector    // nil = perfect interconnect
	lat *metrics.Histogram // nil = latency histogram disabled
}

type pairKey struct{ src, dst int }

// setup builds the base of an optical fabric in place (the mesh keeps a
// handler on it) around its ENet. The caller sets atHub and binds a domain.
func (f *fabric) setup(cfg *config.Config, multicast, pairFIFO bool) {
	n := &cfg.Network
	f.Cfg, f.pairFIFO = cfg, pairFIFO
	f.enet = newMesh(cfg.MeshDim(), n.FlitBits, n.BufFlits, n.RouterDelay, n.LinkDelay, multicast)
	f.enet.deliver = f.enetDeliver
	f.clusterOf = make([]int, cfg.Cores)
	for core := range f.clusterOf {
		f.clusterOf[core] = cfg.ClusterOf(core)
	}
}

// bind (re)binds the base onto a shard domain, before the first Send:
// the mesh is partitioned tile by tile, its routers counting into the
// fabric's statistics block, and the reorder CAM starts empty. Callers
// re-bind their ports afterwards.
func (f *fabric) bind(d *sim.Domain) {
	f.d = d
	f.K = d.ShardK(0)
	f.enet.Partition(d, &f.stats)
	if f.pairFIFO {
		f.pairNext = make(map[pairKey]uint64)
		f.pairWant = make(map[pairKey]uint64)
		f.pairHeld = make(map[pairKey]map[uint64]*Message)
	}
}

// OpticalHop is the fewest cycles from an optical transmission to its
// landing at the receiving endpoint: the select-link lead, one cycle, and
// the flight. Endpoint-to-endpoint optical deliveries are cross-shard
// edges, so a partitioned fabric needs OpticalHop at least the engine's
// lookahead.
func OpticalHop(n *config.Network) sim.Time {
	return sim.Time(n.SelectDataLag + 1 + n.ONetLinkDelay)
}

// bindOptical is bind for a partitionable fabric with optical endpoints
// (ATAC, the hybrid): it also refuses a domain whose lookahead exceeds
// OpticalHop, whose deliveries would land inside the window that sent them.
func (f *fabric) bindOptical(d *sim.Domain) {
	f.bind(d)
	if sh := d.Sharded(); sh != nil && d.NumShards() > 1 {
		if hop := OpticalHop(&f.Cfg.Network); hop < sh.Lookahead() {
			panic(fmt.Sprintf("noc: optical hop latency %d below engine lookahead %d", hop, sh.Lookahead()))
		}
	}
}

// SetDeliver implements Network.
func (f *fabric) SetDeliver(fn DeliverFunc) { f.deliver = fn }

// SetFaults arms fault injection on the whole fabric: link-level retry on
// the ENet, and per-reception corruption with stop-and-wait retransmission
// on the optical channels (plus, where the fabric has a mesh fallback,
// degradation-based rerouting). Must be set before the first Send; nil
// leaves the fabric perfect.
func (f *fabric) SetFaults(inj *fault.Injector) {
	f.inj, f.enet.inj = inj, inj
}

// SetLatencyHist attaches a per-delivery latency histogram (nil disables
// it again). The delivery path pays one nil check when unobserved.
func (f *fabric) SetLatencyHist(h *metrics.Histogram) { f.lat = h }

// ENet exposes the underlying electrical mesh (for congestion heatmaps).
func (f *fabric) ENet() *Mesh { return f.enet }

// Stats implements Network: the live block (counters keep moving through
// the pointer).
func (f *fabric) Stats() *Stats { return &f.stats }

// DegradedChannels lists the optical channels (ATAC clusters, hybrid
// gateways) declared degraded; always empty on a fabric with no electrical
// fallback (observability hook).
func (f *fabric) DegradedChannels() []int {
	var out []int
	for i := range f.health {
		if f.health[i].degraded {
			out = append(out, i)
		}
	}
	return out
}

// Drained reports whether no traffic remains anywhere in the fabric: the
// ENet is drained, every transmitter is idle and no optical or receive-net
// job is in flight.
func (f *fabric) Drained() bool {
	return f.enet.Drained() && f.outstanding == 0
}

// admit is the head of every Send: it stamps the injection time, sets
// the message's flit count (the one every later leg reads), counts the
// message and its flits and, with the reorder CAM armed, sequences a
// unicast within its pair. It runs on the shard owning m.Src (senders
// inject from their own tile's events).
func (f *fabric) admit(m *Message) {
	st := &f.stats
	m.Inject = f.d.K(m.Src).Now()
	m.flits = int32(FlitsFor(m.Bits, f.enet.FlitBits))
	st.InjectedFlits += uint64(m.flits)
	if m.Dst == BroadcastDst {
		st.BroadcastSent++
		return
	}
	st.UnicastSent++
	if f.pairFIFO {
		k := pairKey{m.Src, m.Dst}
		m.pairSeq = f.pairNext[k] + 1 // 1-based; 0 means unsequenced
		f.pairNext[k] = m.pairSeq
	}
}

// rerouted reports whether optical channel ch, which unicast m would ride,
// is degraded (its observed error rate crossed the threshold), and if so
// counts m as rerouted onto the electrical mesh fallback.
func (f *fabric) rerouted(ch int, m *Message) bool {
	if !f.health[ch].degraded {
		return false
	}
	f.stats.ReroutedMsgs++
	f.stats.ReroutedFlits += uint64(m.flits)
	return true
}

// sendOnMesh is the one ENet send from m's source core. A self-addressed
// unicast, and a broadcast's copy for its source core, land there on the
// next cycle (landAtSource), booked before the broadcast's worms; the mesh
// carries everything else.
func (f *fabric) sendOnMesh(m *Message) {
	switch m.Dst {
	case m.Src:
		f.landAtSource(m)
		return
	case BroadcastDst:
		f.landAtSource(m)
	}
	f.enet.Send(m)
}

// landAtSource hands m over at its source core on the next cycle, where
// enetDeliver ends it: in atHub on a hub leg, else in a core delivery.
func (f *fabric) landAtSource(m *Message) {
	k := f.d.K(m.Src)
	f.landAt(k, k.Now()+1, nil, m, false)
}

// sendViaHub starts m's hub leg to the optical endpoint hosted at core hub:
// over the ENet (sendVia), or — when the source core hosts the
// endpoint itself — by handing it over next cycle. Either way the leg ends
// in atHub, on the shard owning hub.
func (f *fabric) sendViaHub(m *Message, hub int) {
	if m.Src == hub {
		m.viaHub = true
		f.landAtSource(m)
		return
	}
	f.sendVia(m, m.Src, hub)
}

// sendVia ENet-routes m itself from core 'from' to core 'via', marked
// viaHub for the duration of the leg so that enetDeliver ends it in atHub.
// A message is on one leg at a time, so the mark needs no wrapper.
func (f *fabric) sendVia(m *Message, from, via int) {
	m.viaHub = true
	f.enet.sendVia(m, from, via)
}

// enetDeliver handles ENet ejections: a hub leg ends in atHub; everything
// else is a final core delivery.
func (f *fabric) enetDeliver(dst int, m *Message) {
	if m.viaHub {
		m.viaHub = false
		f.atHub(dst, m)
		return
	}
	f.deliverCore(dst, m)
}

// deliverCore runs on the shard owning dst (every path that reaches it —
// a landing at the source core, ENet ejection, receive-network fan-out —
// executes there).
func (f *fabric) deliverCore(dst int, m *Message) {
	if f.pairFIFO && m.pairSeq != 0 {
		k := pairKey{m.Src, m.Dst}
		want := f.pairWant[k] + 1
		if m.pairSeq != want {
			held := f.pairHeld[k]
			if held == nil {
				held = make(map[uint64]*Message)
				f.pairHeld[k] = held
			}
			held[m.pairSeq] = m
			return
		}
		f.pairWant[k] = want
		f.deliverNow(dst, m)
		// Drain any consecutively held successors.
		for {
			held := f.pairHeld[k]
			next, ok := held[f.pairWant[k]+1]
			if !ok {
				return
			}
			delete(held, f.pairWant[k]+1)
			f.pairWant[k]++
			f.deliverNow(dst, next)
		}
	}
	f.deliverNow(dst, m)
}

func (f *fabric) deliverNow(dst int, m *Message) {
	st := &f.stats
	now := f.d.K(dst).Now()
	st.Delivered++
	if m.IsBroadcast() {
		st.BroadcastRecv++
	} else {
		st.UnicastRecv++
	}
	st.RecordLatency(now - m.Inject)
	f.lat.Observe(uint64(now - m.Inject))
	if f.deliver != nil {
		f.deliver(dst, m)
	}
}

// port is one optical endpoint (cluster hub or gateway) as the base sees
// it: its place in the shard domain, and the fault half of the
// stop-and-wait channels it transmits on.
type port struct {
	f    *fabric
	id   int         // cluster or gateway index; the canonical drain key at receivers
	core int         // the core whose tile hosts the endpoint
	k    *sim.Kernel // kernel of the shard owning that core
	sh   int
}

// bind joins the port to the shard owning its core under the fabric's
// current domain.
func (p *port) bind() {
	d := p.f.d
	p.k = d.K(p.core)
	p.sh = d.Shard(p.core)
}

// reception is the whole fault half of one receiver's copy of an n-flit
// optical transfer sent from port p, evaluated sender-side at transmit
// time (modelling the receiver's CRC check and select-link NACK). It draws
// the per-flit errors, accounts them, counts a retransmitted copy (retx
// retransmissions spent before this attempt), feeds the errors into p's
// degradation window where the fabric keeps one (Corona keeps none), and
// reports whether the reception is NACKed. A transfer that has already
// spent its retry budget is forced: residual errors are modelled as
// recovered by end-to-end FEC, so it records them but never fails. With
// no injector armed it draws nothing.
func (p *port) reception(n int, retx uint8) (nack bool) {
	f := p.f
	inj := f.inj
	if inj == nil {
		return false
	}
	errs := 0
	for i := 0; i < n; i++ {
		if inj.OpticalFlitError() {
			errs++
		}
	}
	f.stats.OpticalFlitErrors += uint64(errs)
	switch {
	case errs == 0:
	case int(retx) >= inj.MaxRetries():
		f.stats.OpticalRetriesExhausted++
	default:
		f.stats.OpticalNacks++
		nack = true
	}
	if retx > 0 {
		f.stats.OpticalRetxPkts++
		f.stats.OpticalRetxFlits += uint64(n)
	}
	if len(f.health) > 0 {
		f.health[p.id].observe(p, n, errs)
	}
	return nack
}

// transfer is one message queued on a transmitter; its flit count is the
// message's.
type transfer struct {
	m    *Message
	from int      // writing endpoint (a Corona home channel has several)
	at   sim.Time // request time, for Corona's token-wait accounting
	retx uint8    // retransmissions spent (bounded by the injector's MaxRetries)
}

// tx is one stop-and-wait optical transmitter: a FIFO of transfers and the
// one holding the channel. The holder keeps the channel through every
// NACKed attempt and its exponential backoff — so channel order survives
// faults — until an attempt is clean or forced through. The fabric
// supplies attempt, which books and counts one transmission of the holder
// and returns the channel's busy time and whether a receiver NACKed. begin,
// if set, runs as a transfer takes the channel and returns the delay to
// its first attempt; release, if set, runs as it gives the channel up,
// before the next transfer's begin.
type tx struct {
	p *port // kernel and shard the channel runs on
	// q is a ring of the waiting transfers, q[head] first, of power-of-two
	// length: a drained ring keeps its slots, so pushing onto an idle
	// channel allocates nothing.
	q       []transfer
	head, n int
	cur     transfer // the holder
	busy    bool     // a holder exists; counted in f.outstanding meanwhile
	nacked  bool     // the holder's last attempt was NACKed
	attempt func(r *transfer) (busy sim.Time, nacked bool)
	begin   func(r *transfer) sim.Time
	release func(r *transfer)
	// Bound once: no closure per transfer or attempt.
	sendFn, doneFn func()
}

// init binds the transmitter to the port it runs on (in place: the bound
// events refer to t).
func (t *tx) init(p *port, attempt func(r *transfer) (sim.Time, bool)) {
	t.p, t.attempt, t.sendFn, t.doneFn = p, attempt, t.send, t.done
	t.q = make([]transfer, 1)
}

// push queues a transfer of m from endpoint 'from'. On an idle channel
// it takes the channel within the current event.
func (t *tx) push(m *Message, from int) {
	if t.n == len(t.q) {
		// Two copies of a full ring: the len(q) slots from head on hold
		// the queue in order, so head stays where it is.
		t.q = append(t.q, t.q...)
	}
	t.q[(t.head+t.n)&(len(t.q)-1)] = transfer{m: m, from: from, at: t.p.k.Now()}
	t.n++
	if !t.busy {
		t.busy = true
		t.p.f.outstanding++
		t.next()
	}
}

// next hands the channel to the head of the queue.
func (t *tx) next() {
	t.cur = t.q[t.head]
	t.q[t.head].m = nil // drop the *Message reference for GC
	t.head = (t.head + 1) & (len(t.q) - 1)
	t.n--
	if t.begin != nil {
		t.p.k.Schedule(t.begin(&t.cur), t.sendFn)
		return
	}
	t.send()
}

// send makes one attempt of the holder; done ends its busy period.
func (t *tx) send() {
	var busy sim.Time
	busy, t.nacked = t.attempt(&t.cur)
	t.p.k.Schedule(busy, t.doneFn)
}

// done spends one retransmission on a NACKed holder, or releases the
// channel to the next transfer.
func (t *tx) done() {
	if t.nacked {
		t.cur.retx++
		t.p.k.Schedule(t.p.f.inj.Backoff(int(t.cur.retx)), t.sendFn)
		return
	}
	if t.release != nil {
		t.release(&t.cur)
	}
	if t.n > 0 {
		t.next()
		return
	}
	t.cur, t.busy = transfer{}, false
	t.p.f.outstanding--
}

// channelHealth is one optical channel's degradation window: observed flits
// and errors in the current window, and the sticky degraded flag that
// reroutes the channel's future unicasts onto the mesh.
type channelHealth struct {
	winFlits, winErrs uint64
	degraded          bool
}

// observe feeds one reception's flit/error counts into the window of port
// p's channel; when the window fills with an observed error rate above the
// threshold, the channel is declared degraded (sticky).
func (c *channelHealth) observe(p *port, flits, errs int) {
	inj := p.f.inj
	if inj == nil || c.degraded || inj.DegradeThreshold() <= 0 {
		return
	}
	c.winFlits += uint64(flits)
	c.winErrs += uint64(errs)
	if c.winFlits < uint64(inj.DegradeWindow()) {
		return
	}
	if float64(c.winErrs)/float64(c.winFlits) > inj.DegradeThreshold() {
		c.degraded = true
		p.f.stats.DegradedChannels++
	}
	c.winFlits, c.winErrs = 0, 0
}

// rxJob is one staged optical arrival: its landing cycle, the sending
// endpoint's index (the canonical drain key — a serializing sender lands at
// most one arrival per receiver per cycle) and the message it carries.
type rxJob struct {
	at   sim.Time
	from int
	m    *Message
}

// inbox stages the optical arrivals of one partitionable receiving
// endpoint until their head flit lands. Same-cycle arrivals from several
// senders are collected and drained in one event in sender order: what the
// receiver does with them (greedy earliest-free receive-network
// assignment, mesh injection) depends on processing order, and the order
// same-cycle events execute in is the one schedule-order artifact a
// partitioned engine cannot reproduce — a canonical drain makes it
// irrelevant on both engines. Every booking strictly precedes its arrival
// cycle (arrive ≥ now+2 locally, and cross-shard posts apply at the barrier
// before the window containing the arrival), so the stage is always
// complete when the drain runs.
type inbox struct {
	p *port // the receiving endpoint
	// staged is kept ordered by (landing cycle, sender, booking order): a
	// handful of entries, so insertion is a short shift and the drain pops
	// a prefix — no map, sort or closure per arrival.
	staged []rxJob
	// arrive is what the endpoint does with one landed arrival (a hub
	// books its receive networks, a gateway starts the final mesh leg).
	arrive  func(m *Message)
	drainFn func() // in.drain, bound once like arrive
}

// init binds the inbox to its endpoint (in place: drainFn refers to in).
func (in *inbox) init(p *port, arrive func(m *Message)) {
	in.p, in.arrive, in.drainFn = p, arrive, in.drain
}

// book books an arrival from endpoint 'from' at absolute time 'at'. A
// same-shard receiver is staged directly; a remote one through a
// cross-shard post, which is safe because 'at' (≥ OpticalHop ahead,
// validated by bindOptical) lands beyond the engine's current
// synchronization window.
func (in *inbox) book(from *port, at sim.Time, m *Message) {
	if in.p.sh == from.sh {
		in.stage(at, m, from.id)
		return
	}
	id := from.id
	from.f.d.Post(from.sh, in.p.sh, func() { in.stage(at, m, id) })
}

// stage runs on the receiving endpoint's shard; the first booking for a
// landing cycle schedules that cycle's drain.
func (in *inbox) stage(at sim.Time, m *Message, from int) {
	p := in.p
	p.f.outstanding++
	q := append(in.staged, rxJob{})
	i := len(q) - 1
	for ; i > 0 && (q[i-1].at > at || q[i-1].at == at && q[i-1].from > from); i-- {
		q[i] = q[i-1]
	}
	q[i] = rxJob{at, from, m}
	in.staged = q
	if (i == 0 || q[i-1].at != at) && (i == len(q)-1 || q[i+1].at != at) {
		p.k.At(at, in.drainFn)
	}
}

// drain lands the current cycle's arrivals in sender order. Earlier
// cycles' drains have already run, so they are a prefix of staged.
func (in *inbox) drain() {
	now := in.p.k.Now()
	for len(in.staged) > 0 && in.staged[0].at == now {
		j := in.staged[0]
		in.staged = in.staged[:copy(in.staged, in.staged[1:])]
		in.p.f.outstanding--
		in.arrive(j.m)
	}
}

// clusterPort is a cluster hub's ejection side: the port plus the
// receive-network servers (StarNet demux or BNet fan-out trees)
// distributing optical arrivals to the cluster's cores. Each transfer
// reaches the cores as a pooled landing event, so a port allocates
// nothing per arrival.
type clusterPort struct {
	port
	cores []int // the cluster's core IDs, the fan-out of a broadcast arrival
	// rxFree[i] is the time receive network i is next available.
	rxFree []sim.Time
	// rxLastDone enforces in-order delivery completion across the parallel
	// receive networks: the coherence protocol's sequence-number scheme
	// assumes broadcasts and unicasts each stay FIFO among themselves
	// (Section IV-C1), so two receive networks must not reorder messages
	// arriving at the same cluster.
	rxLastDone sim.Time
}

func newClusterPort(f *fabric, cluster int) clusterPort {
	return clusterPort{
		port:   port{f: f, id: cluster, core: f.Cfg.HubCore(cluster)},
		cores:  f.Cfg.ClusterCoreIDs(cluster),
		rxFree: make([]sim.Time, f.Cfg.Network.StarNetsPerCl),
	}
}

// landing is one pooled hand-off event of the fabric: a message reaching
// its source core on the next cycle (no port: a self-send, a broadcast's
// source copy or a hub leg that starts at the hub's own core), an optical
// arrival reaching a cluster hub (rx set: Corona's home channels), or a
// receive-network transfer reaching the cluster's cores (receive). A
// record comes off its fabric's free list with its event, run, bound
// once, and goes back on it as the event starts, so a hand-off allocates
// nothing; the At call that schedules it is the one a closure would have
// taken.
type landing struct {
	f    *fabric
	p    *clusterPort // nil: a hand-off at the message's source core
	m    *Message
	rx   bool
	run  func() // l.land, bound once
	next *landing
}

// landAt books m's landing at port p (nil: at its source core) for
// absolute time at on kernel k, with a record off the free list, counted
// in flight until it lands.
func (f *fabric) landAt(k *sim.Kernel, at sim.Time, p *clusterPort, m *Message, rx bool) {
	l := f.landings
	if l == nil {
		l = &landing{f: f}
		l.run = l.land
	} else {
		f.landings = l.next
	}
	l.p, l.m, l.rx = p, m, rx
	f.outstanding++
	k.At(at, l.run)
}

// land puts the record back on the free list and lands its message: at
// its source core through enetDeliver (no port), at the hub's receive
// networks (rx), or at every core of the cluster for a broadcast and at
// its destination for a unicast.
func (l *landing) land() {
	f, p, m, rx := l.f, l.p, l.m, l.rx
	l.p, l.m, l.next = nil, nil, f.landings
	f.landings = l
	f.outstanding--
	switch {
	case p == nil:
		f.enetDeliver(m.Src, m)
	case rx:
		p.receive(m)
	case m.Dst == BroadcastDst:
		for _, c := range p.cores {
			f.deliverCore(c, m)
		}
	default:
		f.deliverCore(m.Dst, m)
	}
}

// receive distributes an optical arrival over the receive network; the
// transfer reaches the cores as a landing at its completion cycle.
func (p *clusterPort) receive(m *Message) {
	f := p.f
	cfg := f.Cfg
	n := int(m.flits)
	p.f.stats.HubFlits += uint64(n)

	// Pick the earliest-free receive network (FIFO service).
	best := 0
	for i, free := range p.rxFree {
		if free < p.rxFree[best] {
			best = i
		}
	}
	start := p.rxFree[best]
	if now := p.k.Now(); start < now {
		start = now
	}
	p.rxFree[best] = start + sim.Time(n)
	done := start + sim.Time(n) + sim.Time(cfg.Network.LinkDelay)
	if done < p.rxLastDone {
		done = p.rxLastDone
	}
	p.rxLastDone = done

	if cfg.Network.ReceiveNet == config.BNet {
		// The fan-out tree always drives every core.
		p.f.stats.BNetFlits += uint64(n)
	} else if m.Dst == BroadcastDst {
		p.f.stats.StarBcastFlits += uint64(n)
	} else {
		p.f.stats.StarUniFlits += uint64(n)
	}

	f.landAt(p.k, done, p, m, false)
}
