package noc

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/sim"
)

// Atac is the composed ATAC/ATAC+ fabric (Section III/IV of the paper):
//
//   - an ENet: the full-chip electrical wormhole mesh, a flit transport
//     under the shared fabric base, used core->hub, for intra-cluster
//     unicasts, and for short-distance unicasts under distance-based
//     routing (with RThres beyond the mesh span ATAC+ is EMesh-Pure);
//   - one hub per cluster with an adaptive SWMR optical channel (ONet):
//     each hub owns a dedicated wavelength set, so there is no optical
//     arbitration; a select link notifies receivers one cycle before data;
//   - per-cluster receive networks (StarNet demux or BNet fan-out trees)
//     carrying data from the hub to the cores.
//
// The routing policy (cluster-based, distance-based with RThres, or
// ENet-only) decides which unicasts ride the ONet. Broadcasts always ride
// the ONet.
type Atac struct {
	fabric // ENet, shard domain, statistics, reorder CAM, delivery

	hubs []*hub
	// pendingTX[cluster] counts messages committed to that cluster's
	// optical channel but not yet transmitted (the token counter the
	// adaptive routing policy consults). Sharding keeps this unsynchro-
	// nized: shards are unions of whole clusters, so a cluster's cores,
	// its hub, and therefore every reader and writer of its counter live
	// on one shard.
	pendingTX []int
}

// NewAtac builds the fabric from a validated config with an optical
// network kind, on a single kernel (a one-shard domain).
func NewAtac(k *sim.Kernel, cfg *config.Config) *Atac {
	if !cfg.Network.Kind.IsOptical() {
		panic(fmt.Sprintf("noc: NewAtac called for %v", cfg.Network.Kind))
	}
	// Per-pair FIFO restoration is needed whenever a pair's path can vary
	// per message: under adaptive routing, and under fault injection,
	// where channel degradation reroutes optical unicasts onto the ENet
	// mid-run (optical retransmission itself is stop-and-wait and cannot
	// reorder, but the optical->electrical switch can).
	pairFIFO := cfg.Network.Routing == config.AdaptiveRouting || cfg.Fault.Enabled
	a := &Atac{}
	a.setup(cfg, false, pairFIFO)
	a.atHub = func(core int, m *Message) {
		h := a.hubs[a.clusterOf[core]]
		h.f.stats.HubFlits += uint64(m.flits)
		h.tx.push(m, h.id)
	}
	a.pendingTX = make([]int, cfg.Clusters())
	a.health = make([]channelHealth, cfg.Clusters())
	a.hubs = make([]*hub, cfg.Clusters())
	for i := range a.hubs {
		a.hubs[i] = newHub(a, i)
	}
	a.Partition(sim.SerialDomain(k, cfg.MeshDim()*cfg.MeshDim()))
	return a
}

// Partition (re)binds the fabric onto a shard domain: the base and its
// ENet, then each hub joins the shard owning its cluster's cores. The
// domain must keep every cluster within one shard (the system layer's
// cluster-row slabs do); hub->hub optical deliveries are the only
// cross-shard edges.
func (a *Atac) Partition(d *sim.Domain) {
	a.bindOptical(d)
	for _, h := range a.hubs {
		h.bind()
		for _, c := range h.cores {
			if d.Shard(c) != h.sh {
				panic(fmt.Sprintf("noc: cluster %d split across shards (core %d on %d, hub on %d)",
					h.id, c, d.Shard(c), h.sh))
			}
		}
	}
}

// BusyCycles returns the summed optical-transmitter busy cycles across
// every cluster hub — the cumulative counter behind Table V's link
// utilization, exposed so the metrics layer can sample it per epoch.
func (a *Atac) BusyCycles() uint64 {
	var busy uint64
	for _, h := range a.hubs {
		busy += h.busyCycles
	}
	return busy
}

// Send implements Network. It runs on the shard owning m.Src, so the
// source-side bookkeeping — admit's, and the pendingTX token — is
// shard-local.
func (a *Atac) Send(m *Message) {
	a.admit(m)
	if m.Dst == BroadcastDst {
		a.sendViaHub(m)
		return
	}
	srcCl, dstCl := a.clusterOf[m.Src], a.clusterOf[m.Dst]
	useONet := false
	if srcCl != dstCl {
		switch a.Cfg.Network.Routing {
		case config.ClusterRouting:
			useONet = true
		case config.DistanceRouting:
			useONet = a.Cfg.Distance(m.Src, m.Dst) >= a.Cfg.Network.RThres
		case config.ENetOnlyRouting:
			useONet = false
		case config.AdaptiveRouting:
			// Distance-based, but divert to the ENet when the cluster's
			// optical transmitter is backed up (load-aware extension of
			// Section IV-C's analysis).
			useONet = a.Cfg.Distance(m.Src, m.Dst) >= a.Cfg.Network.RThres &&
				a.pendingTX[srcCl] < a.Cfg.Network.AdaptiveQueueMax
		}
	}
	// A degraded cluster channel reroutes its unicasts onto the ENet.
	// Broadcasts stay on the ONet (protected by retransmission): diverting
	// them would break the per-slice broadcast FIFO the coherence
	// protocol's sequence numbers assume.
	if useONet && !a.rerouted(srcCl, m) {
		a.sendViaHub(m)
	} else {
		a.sendOnMesh(m)
	}
}

// sendViaHub commits m to its cluster's optical channel and starts its leg
// to the hub. The hub shares the source core's shard (clusters are never
// split), so the pendingTX increment stays shard-local.
func (a *Atac) sendViaHub(m *Message) {
	cl := a.clusterOf[m.Src]
	a.pendingTX[cl]++
	a.fabric.sendViaHub(m, a.Cfg.HubCore(cl))
}

// hub is one cluster's ONet endpoint: a serializing optical transmitter
// (the cluster's dedicated SWMR channel) plus the receive-network servers
// distributing arrivals to the cluster's cores.
type hub struct {
	clusterPort
	a *Atac

	tx tx
	// failed lists the hubs that NACKed the holder's last attempt, the
	// receivers of its retransmission.
	failed []*hub

	// in stages optical arrivals for receive-network booking.
	in inbox

	busyCycles uint64 // Table V link utilization
}

func newHub(a *Atac, cluster int) *hub {
	h := &hub{clusterPort: newClusterPort(&a.fabric, cluster), a: a}
	h.in.init(&h.port, h.receive)
	h.tx.init(&h.port, h.transmit)
	h.tx.release = func(*transfer) { a.pendingTX[cluster]-- }
	return h
}

// transmit is the hub transmitter's attempt: one optical transmission of
// r.m to its receiving hubs, each slot a select-link notification then the
// data flits on the hub's wavelength set. The laser runs only for the
// duration of the transfer (power gating; the Cons flavor's always-on
// laser is an energy-model concern, not a timing one).
//
// The receivers are the hubs that NACKed the last attempt on a
// retransmission, the destination hub for a unicast, and every hub for a
// broadcast. A first-attempt broadcast is one broadcast-mode slot, unless
// the Section V-D ablation (no native broadcast on the SWMR link)
// serializes it; everything else is one unicast-mode slot per receiver,
// back to back. Receiving hubs fan a broadcast copy out to their whole
// cluster either way; the sending hub forwards its own copy onto its
// receive network, bypassing the optical loop, so that copy cannot be
// corrupted and draws nothing. The transmitter is stop-and-wait, so hub
// transmission order (and with it the per-slice broadcast FIFO the
// coherence sequence numbers assume) survives faults.
func (h *hub) transmit(r *transfer) (sim.Time, bool) {
	cfg := h.a.Cfg
	m, n := r.m, int(r.m.flits)
	to := h.failed // a retransmission's receivers
	bcast := false
	switch {
	case r.retx > 0:
	case m.Dst != BroadcastDst:
		cl := h.a.clusterOf[m.Dst]
		to = h.a.hubs[cl : cl+1]
	default:
		to = h.a.hubs
		bcast = !cfg.Network.BcastAsUnicast
	}
	slots := len(to)
	if bcast {
		slots = 1
		h.f.stats.ONetBcastPkts++
		h.f.stats.ONetBcastFlits += uint64(n)
	} else {
		h.f.stats.ONetUniPkts += uint64(slots)
		h.f.stats.ONetUniFlits += uint64(slots * n)
	}
	h.f.stats.SelectEvents += uint64(slots)
	lag := cfg.Network.SelectDataLag
	per := sim.Time(lag + n)
	busy := per * sim.Time(slots)
	h.busyCycles += uint64(busy)

	// Filtered in place when to is h.failed: slot i writes at most entry i.
	failed := h.failed[:0]
	for i, rx := range to {
		arrive := h.k.Now() + sim.Time(lag+1)
		if !bcast {
			arrive += sim.Time(i) * per
		}
		if rx != h { // the sending hub's own copy skips the optical loop
			if h.reception(n, r.retx) {
				failed = append(failed, rx)
				continue
			}
			arrive += sim.Time(cfg.Network.ONetLinkDelay)
		}
		rx.in.book(&h.port, arrive, m)
	}
	h.failed = failed
	return busy, len(failed) > 0
}

// LinkUtilization returns the fraction of cycles the average hub's
// adaptive SWMR link spent transmitting (Table V), over runtime cycles.
func (a *Atac) LinkUtilization(runtime sim.Time) float64 {
	if runtime == 0 || len(a.hubs) == 0 {
		return 0
	}
	return float64(a.BusyCycles()) / (float64(runtime) * float64(len(a.hubs)))
}

// UnicastsPerBroadcast returns the average number of unicast packets sent
// on the ONet between successive broadcasts (Table V).
func (a *Atac) UnicastsPerBroadcast() float64 {
	s := a.Stats()
	if s.ONetBcastPkts == 0 {
		return float64(s.ONetUniPkts)
	}
	return float64(s.ONetUniPkts) / float64(s.ONetBcastPkts)
}
