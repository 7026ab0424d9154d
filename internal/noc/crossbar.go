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
//   - the ENet electrical mesh, a flit transport under the shared fabric
//     base, carries core->hub legs and intra-cluster unicasts, exactly as
//     in the ATAC fabric;
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

	hubs  []*clusterPort
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
	x.setup(cfg, false, false)
	x.atHub = func(core int, m *Message) { x.request(x.hubs[x.clusterOf[core]], m) }
	x.bind(sim.SerialDomain(k, cfg.MeshDim()*cfg.MeshDim()))
	x.hubs = make([]*clusterPort, cfg.Clusters())
	x.chans = make([]*xchan, cfg.Clusters())
	for i := range x.hubs {
		h := newClusterPort(&x.fabric, i)
		x.hubs[i] = &h
		h.bind()
		// The home channel's token starts parked at its home hub.
		c := &xchan{x: x, home: i, tokenAt: i}
		c.tx.init(&h.port, c.transmit)
		c.begin, c.release = c.grant, c.free
		x.chans[i] = c
	}
	return x
}

// Send implements Network: a unicast within its cluster rides the ENet,
// everything else the source cluster's hub.
func (x *Crossbar) Send(m *Message) {
	x.admit(m)
	srcCl := x.clusterOf[m.Src]
	if m.Dst != BroadcastDst && srcCl == x.clusterOf[m.Dst] {
		x.sendOnMesh(m)
		return
	}
	x.sendViaHub(m, x.Cfg.HubCore(srcCl))
}

// request splits a packet arriving at source hub h into home-channel
// requests: one for a unicast, one per cluster for a broadcast. A hub is a
// bare clusterPort: modulator banks on every other cluster's home channel
// (it can write several channels concurrently; serialization happens per
// channel, at the token) plus the receive networks draining its own home
// channel into the cluster's cores. The source cluster's own broadcast
// copy bypasses the optics onto the local receive network (the hub already
// holds the data).
func (x *Crossbar) request(h *clusterPort, m *Message) {
	x.stats.HubFlits += uint64(m.flits)
	if m.Dst != BroadcastDst {
		x.chans[x.clusterOf[m.Dst]].push(m, h.id)
		return
	}
	for cl := range x.chans {
		if cl == h.id {
			x.landAt(x.K, x.K.Now()+1, h, m, true)
			continue
		}
		x.chans[cl].push(m, h.id)
	}
}

// xchan is one home channel: the MWSR waveguide bundle read by cluster
// 'home', its arbitration token, and the transmitter queueing the writers
// that wait for it (the home hub's port hosts it).
type xchan struct {
	tx
	x       *Crossbar
	home    int
	tokenAt int // serpentine position the free token is parked at
}

// grant hands the channel token to the writer taking the channel and
// returns its travel time. The token travels the serpentine ring from its
// parked position to the writer at one cycle per hub segment;
// transmission starts when it arrives, and the token is released at the
// writer's own position when the transfer completes — so the next grant's
// travel starts from there.
func (c *xchan) grant(r *transfer) sim.Time {
	hubs := len(c.x.hubs)
	travel := sim.Time((r.from - c.tokenAt + hubs) % hubs)
	st := &c.x.stats
	st.TokensGranted++
	st.TokenWaitCycles += uint64(c.x.K.Now() + travel - r.at)
	return travel
}

// free parks the token at the writer releasing the channel.
func (c *xchan) free(r *transfer) {
	c.tokenAt = r.from
	c.x.stats.TokensReturned++
}

// transmit is the channel's attempt: the data flits of r.m toward the
// home hub, whose fixed-tuned drop rings are the only reader. A NACKed
// writer keeps the token through its retries.
func (c *xchan) transmit(r *transfer) (sim.Time, bool) {
	x := c.x
	w := x.hubs[r.from] // the writer accounts, and evaluates the home hub's reception
	n := int(r.m.flits)
	x.stats.XbarPkts++
	x.stats.XbarFlits += uint64(n)
	failed := w.reception(n, r.retx)
	if !failed {
		x.landAt(x.K, x.K.Now()+1+sim.Time(x.Cfg.Network.ONetLinkDelay), x.hubs[c.home], r.m, true)
	}
	return sim.Time(n), failed
}
