package noc

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/sim"
)

// Crossbar is a Corona-style optical crossbar (Vantrease et al.): one MWSR
// serpentine waveguide "home channel" per destination cluster, written by
// every other cluster's hub and read only by the home cluster. Because a
// channel has many writers, access is arbitrated by a channel token that
// circulates the serpentine ring: a hub holds its request until the token
// reaches it, transmits, and releases the token at its own position.
//
//   - the ENet electrical mesh (transport mode) carries core->hub legs and
//     intra-cluster unicasts, exactly as in the ATAC fabric;
//   - each inter-cluster packet is one optical transfer on the destination
//     cluster's home channel; there is no broadcast medium, so a broadcast
//     becomes one home-channel packet per remote cluster (the source
//     cluster's copy takes the local receive network directly);
//   - ejection at the home hub uses the same receive-network model
//     (StarNet demux) as the ATAC hub.
//
// Token handling is flit-accurate: TokenWaitCycles accumulates, per
// packet, the cycles between the channel request and the first data flit
// on the waveguide (queueing behind other writers plus the token's
// serpentine travel), and every granted token is counted returned once the
// transfer — including any fault-injected retransmissions — completes.
//
// The crossbar always runs on the serial kernel: a home channel is one
// token-ordered resource shared by every cluster, which no conservative
// spatial partition can cut. system.NewSharded falls back accordingly.
type Crossbar struct {
	fabric // ENet, statistics, delivery — on a one-shard domain, no reorder CAM

	hubs  []*xhub
	chans []*xchan
}

// NewCrossbar builds the fabric from a validated Corona config on a single
// kernel. Corona paths are fixed — a packet's channel is determined by its
// destination — so under fault injection there is no rerouting, no
// degradation window and no reorder CAM; the token holder simply retries
// until clean or forced.
func NewCrossbar(k *sim.Kernel, cfg *config.Config) *Crossbar {
	if cfg.Network.Kind != config.Corona {
		panic(fmt.Sprintf("noc: NewCrossbar called for %v", cfg.Network.Kind))
	}
	x := &Crossbar{}
	x.setup(k, cfg, false, false)
	x.atHub = func(core int, m *Message) { x.hubs[cfg.ClusterOf(core)].request(m) }
	x.bind(sim.SerialDomain(k, cfg.MeshDim()*cfg.MeshDim()))
	x.hubs = make([]*xhub, cfg.Clusters())
	x.chans = make([]*xchan, cfg.Clusters())
	for i := range x.hubs {
		x.hubs[i] = &xhub{clusterPort: newClusterPort(&x.fabric, i), x: x}
		x.hubs[i].bind()
		// The home channel's token starts parked at its home hub.
		x.chans[i] = &xchan{x: x, home: i, tokenAt: i}
	}
	return x
}

// Drained reports whether no traffic remains anywhere in the fabric.
func (x *Crossbar) Drained() bool {
	for _, c := range x.chans {
		if c.busy || len(c.q) > 0 {
			return false
		}
	}
	return x.idle()
}

// Send implements Network.
func (x *Crossbar) Send(m *Message) {
	x.admit(m)
	srcCl := x.Cfg.ClusterOf(m.Src)
	switch {
	case m.Dst == BroadcastDst:
		x.sendViaHub(m, x.Cfg.HubCore(srcCl))
	case m.Dst == m.Src:
		x.sendSelf(m)
	case srcCl == x.Cfg.ClusterOf(m.Dst):
		x.enet.Send(m)
	default:
		x.sendViaHub(m, x.Cfg.HubCore(srcCl))
	}
}

// xhub is one cluster's crossbar endpoint: modulator banks on every other
// cluster's home channel (the hub can write several channels concurrently;
// serialization happens per channel, at the token) plus the receive
// networks draining its own home channel into the cluster's cores.
type xhub struct {
	clusterPort
	x *Crossbar
}

// request splits a packet arriving at the source hub into home-channel
// requests: one for a unicast, one per cluster for a broadcast. The source
// cluster's own broadcast copy bypasses the optics onto the local receive
// network (the hub already holds the data).
func (h *xhub) request(m *Message) {
	n := FlitsFor(m.Bits, h.x.Cfg.Network.FlitBits)
	h.st.HubFlits += uint64(n)
	if m.Dst != BroadcastDst {
		h.x.chans[h.x.Cfg.ClusterOf(m.Dst)].enqueue(h.id, m, n)
		return
	}
	for cl := range h.x.chans {
		if cl == h.id {
			h.x.scheduleRX(h, h.x.K.Now()+1, m, n)
			continue
		}
		h.x.chans[cl].enqueue(h.id, m, n)
	}
}

// xreq is one pending home-channel transfer.
type xreq struct {
	srcCl int
	m     *Message
	n     int
	at    sim.Time // request time, for token-wait accounting
	retx  uint8    // retransmission attempts spent (fault injection)
}

// xchan is one home channel: the MWSR waveguide bundle read by cluster
// 'home', its arbitration token, and the FIFO of writers waiting for it.
type xchan struct {
	x       *Crossbar
	home    int
	tokenAt int // serpentine position the free token is parked at
	q       []xreq
	busy    bool
}

// enqueue registers a transfer request and starts arbitration if the
// channel is idle.
func (c *xchan) enqueue(srcCl int, m *Message, n int) {
	c.q = append(c.q, xreq{srcCl: srcCl, m: m, n: n, at: c.x.K.Now()})
	if !c.busy {
		c.busy = true
		c.grant()
	}
}

// grant hands the channel token to the request at the head of the queue.
// The token travels the serpentine ring from its parked position to the
// requester at one cycle per hub segment; transmission starts when it
// arrives, and the token is released at the writer's own position when the
// transfer completes — so the next grant's travel starts from there.
func (c *xchan) grant() {
	r := c.q[0]
	c.q = c.q[1:]
	now := c.x.K.Now()
	hubs := len(c.x.hubs)
	travel := sim.Time((r.srcCl - c.tokenAt + hubs) % hubs)
	start := now + travel
	st := c.x.hubs[r.srcCl].st
	st.TokensGranted++
	st.TokenWaitCycles += uint64(start - r.at)
	c.x.K.Schedule(travel, func() { c.transmit(r) })
}

// transmit performs one transmission attempt of r on the channel: n data
// flits toward the home hub, whose fixed-tuned drop rings are the only
// reader. Under fault injection a corrupted reception is NACKed and the
// writer — still holding the token — retries after a backoff; after the
// retry budget the transfer is forced through (end-to-end FEC). The
// channel is stop-and-wait, so home-channel order is FIFO even with
// faults.
func (c *xchan) transmit(r xreq) {
	x := c.x
	oDelay := sim.Time(x.Cfg.Network.ONetLinkDelay)
	busy := sim.Time(r.n)
	w := x.hubs[r.srcCl] // the writer accounts, and evaluates the home hub's reception
	w.st.XbarPkts++
	w.st.XbarFlits += uint64(r.n)
	if r.retx > 0 {
		w.st.OpticalRetxPkts++
		w.st.OpticalRetxFlits += uint64(r.n)
	}
	_, failed := w.reception(r.n, r.retx)
	if !failed {
		x.scheduleRX(x.hubs[c.home], x.K.Now()+1+oDelay, r.m, r.n)
	}
	x.K.Schedule(busy, func() {
		if failed {
			w.retry(&r.retx, func() { c.transmit(r) })
			return
		}
		c.tokenAt = r.srcCl
		w.st.TokensReturned++
		if len(c.q) > 0 {
			c.grant()
			return
		}
		c.busy = false
	})
}

// scheduleRX books an optical arrival on hub h's receive networks at
// absolute time 'at'. The crossbar is never partitioned, so arrivals need
// no canonical staging: same-cycle ones book in schedule order.
func (x *Crossbar) scheduleRX(h *xhub, at sim.Time, m *Message, n int) {
	x.outstanding[0]++
	x.K.At(at, func() {
		x.outstanding[0]--
		h.receive(m, n)
	})
}
