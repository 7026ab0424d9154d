package noc

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/sim"
)

// Hybrid is a MorphoNoC-style configurable electrical/photonic fabric: a
// full electrical multicast mesh overlaid with photonic express links
// between gateway clusters at the granularity set by config.Hybrid.Radius
// (every Radius×Radius block of clusters shares one gateway). Each gateway
// owns a dedicated SWMR wavelength set — like an ATAC hub, there is no
// optical arbitration; a select link leads the data by SelectDataLag.
//
//   - broadcasts and short unicasts (Manhattan distance below RThres) ride
//     the electrical mesh, which has native tree multicast;
//   - a long unicast crossing gateway groups takes three legs: mesh to the
//     source gateway, one express transmission to the destination gateway,
//     mesh to the destination core;
//   - under fault injection a gateway whose express channel degrades falls
//     back to the pure mesh for its future unicasts.
//
// Radius interpolates the fabric between full optics (radius 1: every
// cluster a gateway, ATAC-like express coverage) and the plain EMesh-BCast
// (radius = cluster-grid edge would leave one gateway; validation requires
// at least two, so the electrical end of the spectrum is the EMeshBCast
// kind itself). An RThres beyond the mesh span reaches the same end: no
// unicast qualifies for an express link, and the hybrid is EMesh-BCast
// (TestDegenerateEquivalence).
type Hybrid struct {
	fabric // multicast mesh, shard domain, statistics, reorder CAM, delivery

	gws []*gateway
}

// NewHybrid builds the fabric from a validated HybridMesh config on a
// single kernel (a one-shard domain).
func NewHybrid(k *sim.Kernel, cfg *config.Config) *Hybrid {
	if cfg.Network.Kind != config.HybridMesh {
		panic(fmt.Sprintf("noc: NewHybrid called for %v", cfg.Network.Kind))
	}
	// The reorder CAM is needed only under fault injection: gateway
	// degradation can flip a pair's path from express to mesh mid-run.
	// Fault-free hybrid paths are fixed per pair.
	h := &Hybrid{}
	h.setup(cfg, true, cfg.Fault.Enabled)
	h.atHub = h.atGateway
	h.health = make([]channelHealth, cfg.HybridGateways())
	h.gws = make([]*gateway, cfg.HybridGateways())
	for i := range h.gws {
		g := &gateway{port: port{f: &h.fabric, id: i, core: cfg.GatewayCore(i)}, h: h}
		g.in.init(&g.port, g.arrive)
		g.tx.init(&g.port, g.transmit)
		h.gws[i] = g
	}
	h.Partition(sim.SerialDomain(k, cfg.MeshDim()*cfg.MeshDim()))
	return h
}

// Partition (re)binds the fabric onto a shard domain: the base and its
// mesh, then each gateway joins the shard owning its core.
// Gateway-to-gateway express deliveries are the only cross-shard edges.
func (h *Hybrid) Partition(d *sim.Domain) {
	h.bindOptical(d)
	for _, g := range h.gws {
		g.bind()
	}
}

// Send implements Network. Runs on the shard owning m.Src.
func (h *Hybrid) Send(m *Message) {
	h.admit(m)
	if m.Dst != BroadcastDst {
		srcGW, dstGW := h.Cfg.GatewayOf(m.Src), h.Cfg.GatewayOf(m.Dst)
		express := srcGW != dstGW && h.Cfg.Distance(m.Src, m.Dst) >= h.Cfg.Network.RThres
		if express && !h.rerouted(srcGW, m) {
			h.sendViaHub(m, h.Cfg.GatewayCore(srcGW))
			return
		}
	}
	h.sendOnMesh(m)
}

// atGateway ends a sendVia mesh leg at core. A leg ending at the message's
// own destination is the final electrical leg completing; anywhere else it
// is the source-gateway leg (express packets only cross gateway groups, so
// the source gateway's core is never the final destination of an express
// message), which enqueues for express transmission.
func (h *Hybrid) atGateway(core int, m *Message) {
	if core == m.Dst {
		h.deliverCore(core, m)
		return
	}
	g := h.gws[h.Cfg.GatewayOf(core)]
	g.f.stats.HubFlits += uint64(m.flits)
	g.tx.push(m, g.id)
}

// gateway is one photonic express endpoint: a serializing SWMR optical
// transmitter plus the staging that hands arrivals back to the mesh.
type gateway struct {
	port
	h  *Hybrid
	tx tx

	// in stages express arrivals for the final mesh leg.
	in inbox
}

// transmit is the gateway transmitter's attempt: one express transmission
// of r.m, a select-link notification to the destination gateway, then the
// data flits on this gateway's wavelength set.
func (g *gateway) transmit(r *transfer) (sim.Time, bool) {
	cfg := g.h.Cfg
	n := int(r.m.flits)
	lag := cfg.Network.SelectDataLag
	oDelay := cfg.Network.ONetLinkDelay
	g.f.stats.SelectEvents++
	g.f.stats.ExpressPkts++
	g.f.stats.ExpressFlits += uint64(n)
	failed := g.reception(n, r.retx)
	if !failed {
		g.h.gws[cfg.GatewayOf(r.m.Dst)].in.book(&g.port, g.k.Now()+sim.Time(lag+1+oDelay), r.m)
	}
	return sim.Time(lag + n), failed
}

// arrive hands a landed express arrival back to the mesh: the final
// electrical leg to the destination core, or a direct delivery when the
// destination is the gateway core itself.
func (g *gateway) arrive(m *Message) {
	g.f.stats.HubFlits += uint64(m.flits)
	if m.Dst == g.core {
		g.f.deliverCore(g.core, m)
		return
	}
	g.f.sendVia(m, g.core, m.Dst)
}
