package noc

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// This file is the skeleton Atac, Crossbar and Hybrid share (DESIGN.md,
// "Shared optical skeleton"): the ENet-plus-endpoints base, the fault half
// of a stop-and-wait optical channel with its degradation window, and the
// receive side. Nothing here asks which fabric it serves: a fabric takes
// part in a piece by holding it and calling it, never through a flag.
//
// Two orders are observable and must survive any edit here or in a caller:
// the order of Schedule/At/Post calls inside one event (same-cycle events
// run in schedule order) and the order and count of fault-RNG draws (one
// global stream). TestOpticalFaultStatsGolden pins both.

// fabric is the composite base: the electrical mesh every optical fabric
// embeds, the shard domain, per-shard statistics, the per-pair reorder CAM
// and the final delivery path.
type fabric struct {
	K   *sim.Kernel
	Cfg *config.Config

	enet    *Mesh
	deliver DeliverFunc
	// atHub is what the fabric does with a message that has reached an
	// optical endpoint's core on the hub leg (sendViaHub) — enqueue it for
	// transmission, split it into channel requests — the one step of that
	// leg the fabrics do not share. Bound once by the constructor, the way
	// a mesh's owner installs its ejection handler.
	atHub func(core int, m *Message)
	d     *sim.Domain
	stats []Stats // one block per shard; Stats() merges
	snap  Stats

	// Per-pair FIFO restoration: once the path of a (src,dst) pair can
	// vary per message (adaptive routing, or degradation flipping optical
	// unicasts onto the mesh mid-run), the coherence protocol's same-pair
	// ordering assumption must be enforced at the receiving NIC (a small
	// reorder CAM in hardware). Unused (nil) for fabrics and policies whose
	// paths are fixed per pair, which are FIFO by construction. pairNext is
	// consulted at the sender (indexed by the source's shard);
	// pairWant/pairHeld at the receiving NIC (indexed by the destination's
	// shard) — each map is touched by exactly one shard.
	pairFIFO bool
	pairNext []map[pairKey]uint64
	pairWant []map[pairKey]uint64
	pairHeld []map[pairKey]map[uint64]*Message

	// outstanding counts in-flight optical/receive-net jobs per shard
	// (test hook; Drained sums).
	outstanding []int

	// health holds one degradation window per optical channel of a fabric
	// that can fall back to the mesh (ATAC clusters, hybrid gateways).
	health []channelHealth

	inj *fault.Injector    // nil = perfect interconnect
	lat *metrics.Histogram // nil = latency histogram disabled
}

type pairKey struct{ src, dst int }

// setup builds the base in place (the mesh keeps a handler on it) around a
// transport-mode ENet. The caller sets atHub and binds a domain.
func (f *fabric) setup(k *sim.Kernel, cfg *config.Config, multicast, pairFIFO bool) {
	n := &cfg.Network
	f.Cfg, f.pairFIFO = cfg, pairFIFO
	f.enet = NewMesh(k, cfg.MeshDim(), n.FlitBits, n.BufFlits, n.RouterDelay, n.LinkDelay, multicast)
	f.enet.Transport = true
	f.enet.SetDeliver(f.enetDeliver)
}

// bind (re)binds the base onto a shard domain: the mesh is partitioned tile
// by tile and the statistics / FIFO-restoration / outstanding state is
// split per shard. Endpoint-to-endpoint optical deliveries are the only
// cross-shard edges and must be no faster than the engine's lookahead,
// which bind validates. Callers re-bind their ports afterwards.
func (f *fabric) bind(d *sim.Domain) {
	f.d = d
	f.K = d.ShardK(0)
	f.enet.Partition(d)
	f.stats = make([]Stats, d.NumShards())
	f.outstanding = make([]int, d.NumShards())
	if f.pairFIFO {
		f.pairNext = make([]map[pairKey]uint64, d.NumShards())
		f.pairWant = make([]map[pairKey]uint64, d.NumShards())
		f.pairHeld = make([]map[pairKey]map[uint64]*Message, d.NumShards())
		for i := 0; i < d.NumShards(); i++ {
			f.pairNext[i] = make(map[pairKey]uint64)
			f.pairWant[i] = make(map[pairKey]uint64)
			f.pairHeld[i] = make(map[pairKey]map[uint64]*Message)
		}
	}
	if sh := d.Sharded(); sh != nil && d.NumShards() > 1 {
		minHop := sim.Time(f.Cfg.Network.SelectDataLag + 1 + f.Cfg.Network.ONetLinkDelay)
		if minHop < sh.Lookahead() {
			panic(fmt.Sprintf("noc: optical hop latency %d below engine lookahead %d", minHop, sh.Lookahead()))
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
	f.inj = inj
	f.enet.SetFaults(inj)
}

// SetLatencyHist attaches a per-delivery latency histogram (nil disables
// it again). The delivery path pays one nil check when unobserved.
func (f *fabric) SetLatencyHist(h *metrics.Histogram) { f.lat = h }

// ENet exposes the underlying electrical mesh (for area/static accounting
// and congestion heatmaps).
func (f *fabric) ENet() *Mesh { return f.enet }

// Stats implements Network; ENet flit counters are folded in on read.
// With one shard the live block is returned (counters keep moving through
// the pointer); with several, a merged snapshot — valid at window barriers
// and after the run, where the engine orders all shard writes before us.
func (f *fabric) Stats() *Stats {
	ms := f.enet.Stats()
	s := &f.stats[0]
	if len(f.stats) > 1 {
		f.snap = Stats{}
		for i := range f.stats {
			f.snap.MergeFrom(&f.stats[i])
		}
		s = &f.snap
	}
	s.MeshLinkFlits = ms.MeshLinkFlits
	s.MeshRouterFlits = ms.MeshRouterFlits
	s.MeshNacks = ms.MeshNacks
	s.MeshRetxFlits = ms.MeshRetxFlits
	s.MeshRetriesExhausted = ms.MeshRetriesExhausted
	return s
}

// statsAt returns the statistics block of the shard owning core c.
func (f *fabric) statsAt(c int) *Stats { return &f.stats[f.d.Shard(c)] }

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

// idle reports whether the ENet is drained and no optical or receive-net
// job is in flight; a fabric's Drained adds its own transmit queues.
func (f *fabric) idle() bool {
	if !f.enet.Drained() {
		return false
	}
	for _, o := range f.outstanding {
		if o != 0 {
			return false
		}
	}
	return true
}

// admit is the head of every Send: it stamps the injection time, counts
// the message and its flits and, with the reorder CAM armed, sequences a
// unicast within its pair. It runs on the shard owning m.Src (senders
// inject from their own tile's events), so all of it is shard-local.
// Returns that shard's statistics block and the flit count.
func (f *fabric) admit(m *Message) (st *Stats, n int) {
	st = f.statsAt(m.Src)
	m.Inject = f.d.K(m.Src).Now()
	n = FlitsFor(m.Bits, f.Cfg.Network.FlitBits)
	st.InjectedFlits += uint64(n)
	if m.Dst == BroadcastDst {
		st.BroadcastSent++
		return st, n
	}
	st.UnicastSent++
	if f.pairFIFO {
		next := f.pairNext[f.d.Shard(m.Src)]
		k := pairKey{m.Src, m.Dst}
		m.pairSeq = next[k] + 1 // 1-based; 0 means unsequenced
		next[k] = m.pairSeq
	}
	return st, n
}

// sendSelf delivers a self-addressed unicast on the next cycle.
func (f *fabric) sendSelf(m *Message) {
	f.d.K(m.Src).Schedule(1, func() { f.deliverCore(m.Dst, m) })
}

// sendViaHub starts m's hub leg to the optical endpoint hosted at core hub:
// over the ENet (sendVia), or — when the source core hosts the
// endpoint itself — by handing it over next cycle. Either way the leg ends
// in atHub, on the shard owning hub.
func (f *fabric) sendViaHub(m *Message, hub int) {
	if m.Src == hub {
		f.d.K(hub).Schedule(1, func() { f.atHub(hub, m) })
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
// self-delivery, ENet ejection, receive-network fan-out — executes there),
// so the reorder CAM state is indexed by dst's shard without
// synchronization.
func (f *fabric) deliverCore(dst int, m *Message) {
	if f.pairFIFO && m.pairSeq != 0 {
		sh := f.d.Shard(dst)
		pairWant, pairHeld := f.pairWant[sh], f.pairHeld[sh]
		k := pairKey{m.Src, m.Dst}
		want := pairWant[k] + 1
		if m.pairSeq != want {
			held := pairHeld[k]
			if held == nil {
				held = make(map[uint64]*Message)
				pairHeld[k] = held
			}
			held[m.pairSeq] = m
			return
		}
		pairWant[k] = want
		f.deliverNow(dst, m)
		// Drain any consecutively held successors.
		for {
			held := pairHeld[k]
			next, ok := held[pairWant[k]+1]
			if !ok {
				return
			}
			delete(held, pairWant[k]+1)
			pairWant[k]++
			f.deliverNow(dst, next)
		}
	}
	f.deliverNow(dst, m)
}

func (f *fabric) deliverNow(dst int, m *Message) {
	st := f.statsAt(dst)
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
// stop-and-wait channel it transmits on.
type port struct {
	f    *fabric
	id   int         // cluster or gateway index; the canonical drain key at receivers
	core int         // the core whose tile hosts the endpoint
	k    *sim.Kernel // kernel of the shard owning that core
	sh   int
	st   *Stats // that shard's statistics block
}

// bind joins the port to the shard owning its core under the fabric's
// current domain.
func (p *port) bind() {
	d := p.f.d
	p.k = d.K(p.core)
	p.sh = d.Shard(p.core)
	p.st = &p.f.stats[p.sh]
}

// reception draws the per-flit errors one receiver sees on an n-flit
// optical transfer (evaluated sender-side at transmit time, modelling the
// receiver's CRC check and select-link NACK) and accounts them. It returns
// the error count, for the sender's channel-health window, and whether the
// reception is NACKed. A transfer that has already spent its retry budget
// (retx retransmissions) is forced: residual errors are modelled as
// recovered by end-to-end FEC, so it records them but never fails. With no
// injector armed it draws nothing.
func (p *port) reception(n int, retx uint8) (errs int, nack bool) {
	inj := p.f.inj
	if inj == nil {
		return 0, false
	}
	for i := 0; i < n; i++ {
		if inj.OpticalFlitError() {
			errs++
		}
	}
	p.st.OpticalFlitErrors += uint64(errs)
	switch {
	case errs == 0:
	case int(retx) >= inj.MaxRetries():
		p.st.OpticalRetriesExhausted++
	default:
		p.st.OpticalNacks++
		nack = true
	}
	return errs, nack
}

// retry spends one retransmission on a NACKed transfer: the writer keeps
// the channel through the exponential backoff — stop-and-wait, so channel
// order survives faults — and then runs again.
func (p *port) retry(retx *uint8, again func()) {
	*retx++
	p.k.Schedule(p.f.inj.Backoff(int(*retx)), again)
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
		p.st.DegradedChannels++
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
	n    int
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
	arrive  func(m *Message, n int)
	drainFn func() // in.drain, bound once like arrive
}

// init binds the inbox to its endpoint (in place: drainFn refers to in).
func (in *inbox) init(p *port, arrive func(m *Message, n int)) {
	in.p, in.arrive, in.drainFn = p, arrive, in.drain
}

// book books an arrival from endpoint 'from' at absolute time 'at'. A
// same-shard receiver is staged directly; a remote one through a
// cross-shard post, which is safe because 'at' (≥ SelectDataLag + 1 +
// ONetLinkDelay ahead, validated by bind) lands beyond the engine's current
// synchronization window.
func (in *inbox) book(from *port, at sim.Time, m *Message, n int) {
	if in.p.sh == from.sh {
		in.stage(at, m, n, from.id)
		return
	}
	id := from.id
	from.f.d.Post(from.sh, in.p.sh, func() { in.stage(at, m, n, id) })
}

// stage runs on the receiving endpoint's shard; the first booking for a
// landing cycle schedules that cycle's drain.
func (in *inbox) stage(at sim.Time, m *Message, n int, from int) {
	p := in.p
	p.f.outstanding[p.sh]++
	q := append(in.staged, rxJob{})
	i := len(q) - 1
	for ; i > 0 && (q[i-1].at > at || q[i-1].at == at && q[i-1].from > from); i-- {
		q[i] = q[i-1]
	}
	q[i] = rxJob{at, from, m, n}
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
		in.p.f.outstanding[in.p.sh]--
		in.arrive(j.m, j.n)
	}
}

// clusterPort is a cluster hub's ejection side: the port plus the
// receive-network servers (StarNet demux or BNet fan-out trees)
// distributing optical arrivals to the cluster's cores.
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
		cores:  clusterBaseCores(f.Cfg, cluster),
		rxFree: make([]sim.Time, f.Cfg.Network.StarNetsPerCl),
	}
}

// receive distributes an optical arrival over the receive network.
func (p *clusterPort) receive(m *Message, n int) {
	f := p.f
	cfg := f.Cfg
	p.st.HubFlits += uint64(n)

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

	bcast := m.Dst == BroadcastDst
	if cfg.Network.ReceiveNet == config.BNet {
		// The fan-out tree always drives every core.
		p.st.BNetFlits += uint64(n)
	} else if bcast {
		p.st.StarBcastFlits += uint64(n)
	} else {
		p.st.StarUniFlits += uint64(n)
	}

	f.outstanding[p.sh]++
	p.k.At(done, func() {
		f := p.f
		f.outstanding[p.sh]--
		if bcast {
			for _, c := range p.cores {
				f.deliverCore(c, m)
			}
		} else {
			f.deliverCore(m.Dst, m)
		}
	})
}

// clusterBaseCores lists the core IDs in a cluster.
func clusterBaseCores(cfg *config.Config, cluster int) []int {
	dim := cfg.MeshDim()
	cw := dim / cfg.ClusterDim
	cx, cy := cluster%cw, cluster/cw
	cores := make([]int, 0, cfg.ClusterCores())
	for y := 0; y < cfg.ClusterDim; y++ {
		for x := 0; x < cfg.ClusterDim; x++ {
			cores = append(cores, (cy*cfg.ClusterDim+y)*dim+cx*cfg.ClusterDim+x)
		}
	}
	return cores
}
