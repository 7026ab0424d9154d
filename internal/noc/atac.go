package noc

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/sim"
)

// Atac is the composed ATAC/ATAC+ fabric (Section III/IV of the paper):
//
//   - an ENet: the full-chip electrical wormhole mesh (transport mode),
//     used core->hub, for intra-cluster unicasts, and for short-distance
//     unicasts under distance-based routing;
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
	a.setup(k, cfg, false, pairFIFO)
	a.atHub = func(core int, m *Message) { a.hubs[cfg.ClusterOf(core)].enqueueTX(m) }
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
	a.bind(d)
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

// Drained reports whether no traffic remains anywhere in the fabric.
func (a *Atac) Drained() bool {
	for _, h := range a.hubs {
		if h.txBusy || len(h.txq) > 0 {
			return false
		}
	}
	return a.idle()
}

// Send implements Network. It runs on the shard owning m.Src, so the
// source-side bookkeeping — admit's, and the pendingTX token — is
// shard-local.
func (a *Atac) Send(m *Message) {
	st, n := a.admit(m)
	if m.Dst == BroadcastDst {
		a.sendViaHub(m)
		return
	}
	if m.Dst == m.Src {
		a.sendSelf(m)
		return
	}
	srcCl, dstCl := a.Cfg.ClusterOf(m.Src), a.Cfg.ClusterOf(m.Dst)
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
	// Graceful degradation: a cluster whose optical channel crossed the
	// observed-error threshold routes its unicasts over the electrical
	// mesh fallback. Broadcasts stay on the ONet (protected by
	// retransmission): diverting them would break the per-slice broadcast
	// FIFO the coherence protocol's sequence numbers assume.
	if useONet && a.health[srcCl].degraded {
		useONet = false
		st.ReroutedMsgs++
		st.ReroutedFlits += uint64(n)
	}
	if useONet {
		a.sendViaHub(m)
	} else {
		a.enet.Send(m)
	}
}

// sendViaHub commits m to its cluster's optical channel and starts its leg
// to the hub. The hub shares the source core's shard (clusters are never
// split), so the pendingTX increment stays shard-local.
func (a *Atac) sendViaHub(m *Message) {
	cl := a.Cfg.ClusterOf(m.Src)
	a.pendingTX[cl]++
	a.fabric.sendViaHub(m, a.Cfg.HubCore(cl))
}

// hub is one cluster's ONet endpoint: a serializing optical transmitter
// (the cluster's dedicated SWMR channel) plus the receive-network servers
// distributing arrivals to the cluster's cores.
type hub struct {
	clusterPort
	a *Atac

	txq    []*Message
	txBusy bool
	// The channel is stop-and-wait, so one transfer's completion state —
	// the message and the receivers that NACKed it — lives here and
	// txDoneFn is bound once: no closure per transmission.
	txMsg    *Message
	txFailed []int
	txDoneFn func()

	// in stages optical arrivals for receive-network booking.
	in inbox

	busyCycles uint64 // Table V link utilization
}

func newHub(a *Atac, cluster int) *hub {
	h := &hub{clusterPort: newClusterPort(&a.fabric, cluster), a: a}
	h.in.init(&h.port, h.receive)
	h.txDoneFn = h.txDone
	return h
}

func (h *hub) enqueueTX(m *Message) {
	n := FlitsFor(m.Bits, h.a.Cfg.Network.FlitBits)
	h.st.HubFlits += uint64(n)
	h.txq = append(h.txq, m)
	if !h.txBusy {
		h.startTX()
	}
}

// startTX dequeues the head of the queue and launches its first optical
// transmission attempt.
func (h *hub) startTX() {
	m := h.txq[0]
	h.txq = h.txq[1:]
	h.txBusy = true
	h.transmit(m, nil)
}

// transmit performs one optical transmission attempt of m: a select-link
// notification, then the data flits on the hub's wavelength set. The laser
// runs only for the duration of the transfer (power gating; the Cons
// flavor's always-on laser is an energy-model concern, not a timing one).
//
// retxTo is nil for a first attempt (normal mode selection); for
// retransmissions it lists the clusters whose previous reception was
// corrupted, which are re-sent as serialized unicast-mode slots. The
// channel is stop-and-wait: it stays busy — including the backoff gap —
// until every receiver holds a clean copy or the retry budget forces the
// residue through, so hub transmission order (and with it the per-slice
// broadcast FIFO the coherence sequence numbers assume) survives faults.
func (h *hub) transmit(m *Message, retxTo []int) {
	cfg := h.a.Cfg
	n := FlitsFor(m.Bits, cfg.Network.FlitBits)
	lag := cfg.Network.SelectDataLag
	oDelay := cfg.Network.ONetLinkDelay
	var failed []int

	var busy sim.Time
	switch {
	case retxTo != nil:
		// Retransmission attempt: serialized unicast-mode slots to the
		// failed receivers only, each with its own select notification.
		per := sim.Time(lag + n)
		busy = per * sim.Time(len(retxTo))
		h.busyCycles += uint64(busy)
		h.st.SelectEvents += uint64(len(retxTo))
		h.st.ONetUniPkts += uint64(len(retxTo))
		h.st.ONetUniFlits += uint64(len(retxTo) * n)
		h.st.OpticalRetxPkts += uint64(len(retxTo))
		h.st.OpticalRetxFlits += uint64(len(retxTo) * n)
		for i, cl := range retxTo {
			rx := h.a.hubs[cl]
			arrive := sim.Time(i)*per + sim.Time(lag+1+oDelay)
			if h.corrupted(rx, n, m.retx) {
				failed = append(failed, cl)
				continue
			}
			rx.in.book(&h.port, h.k.Now()+arrive, m, n)
		}
	case m.Dst == BroadcastDst && cfg.Network.BcastAsUnicast:
		// Section V-D ablation: no native broadcast support on the
		// SWMR link. The broadcast is serialized as one unicast-mode
		// transmission per hub, each with its own select notification;
		// receiving hubs still fan the copy out to their whole cluster.
		hubs := len(h.a.hubs)
		h.st.SelectEvents += uint64(hubs)
		h.st.ONetUniPkts += uint64(hubs)
		h.st.ONetUniFlits += uint64(hubs * n)
		per := sim.Time(lag + n)
		busy = per * sim.Time(hubs)
		h.busyCycles += uint64(busy)
		for i, rx := range h.a.hubs {
			arrive := sim.Time(i)*per + sim.Time(lag+1+oDelay)
			if rx == h {
				arrive = sim.Time(i)*per + sim.Time(lag+1)
			}
			if h.corrupted(rx, n, m.retx) {
				failed = append(failed, rx.id)
				continue
			}
			rx.in.book(&h.port, h.k.Now()+arrive, m, n)
		}
	case m.Dst == BroadcastDst:
		h.st.SelectEvents++
		h.st.ONetBcastPkts++
		h.st.ONetBcastFlits += uint64(n)
		busy = sim.Time(lag + n)
		h.busyCycles += uint64(busy)
		// Every other hub receives via the ONet loop; the sending
		// hub forwards directly onto its own receive network.
		for _, rx := range h.a.hubs {
			arrive := sim.Time(lag + 1 + oDelay)
			if rx == h {
				arrive = sim.Time(lag + 1)
			}
			if h.corrupted(rx, n, m.retx) {
				failed = append(failed, rx.id)
				continue
			}
			rx.in.book(&h.port, h.k.Now()+arrive, m, n)
		}
	default:
		h.st.SelectEvents++
		h.st.ONetUniPkts++
		h.st.ONetUniFlits += uint64(n)
		busy = sim.Time(lag + n)
		h.busyCycles += uint64(busy)
		rx := h.a.hubs[cfg.ClusterOf(m.Dst)]
		if h.corrupted(rx, n, m.retx) {
			failed = append(failed, rx.id)
		} else {
			rx.in.book(&h.port, h.k.Now()+sim.Time(lag+1+oDelay), m, n)
		}
	}

	h.txMsg, h.txFailed = m, failed
	h.k.Schedule(busy, h.txDoneFn)
}

// txDone ends a transmission attempt's busy period.
func (h *hub) txDone() {
	if m, failed := h.txMsg, h.txFailed; len(failed) > 0 {
		// NACKed receivers remain: retransmit to the failed subset only.
		h.retry(&m.retx, func() { h.transmit(m, failed) })
		return
	}
	h.txMsg = nil
	h.a.pendingTX[h.id]--
	h.txBusy = false
	if len(h.txq) > 0 {
		h.startTX()
	}
}

// corrupted reports whether receiving hub rx NACKs this n-flit transfer,
// and feeds what it saw into the cluster's channel-health window. The
// sending hub's own copy bypasses the optical loop: it cannot be corrupted
// and draws nothing.
func (h *hub) corrupted(rx *hub, n int, retx uint8) bool {
	if h.f.inj == nil || rx == h {
		return false
	}
	errs, nack := h.reception(n, retx)
	h.f.health[h.id].observe(&h.port, n, errs)
	return nack
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
