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
// kind itself).
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
	h.setup(k, cfg, true, cfg.Fault.Enabled)
	h.atHub = h.atGateway
	h.health = make([]channelHealth, cfg.HybridGateways())
	h.gws = make([]*gateway, cfg.HybridGateways())
	for i := range h.gws {
		g := &gateway{port: port{f: &h.fabric, id: i, core: cfg.GatewayCore(i)}, h: h}
		g.in.init(&g.port, g.arrive)
		g.txDoneFn = g.txDone
		h.gws[i] = g
	}
	h.Partition(sim.SerialDomain(k, cfg.MeshDim()*cfg.MeshDim()))
	return h
}

// Partition (re)binds the fabric onto a shard domain: the base and its
// mesh, then each gateway joins the shard owning its core.
// Gateway-to-gateway express deliveries are the only cross-shard edges.
func (h *Hybrid) Partition(d *sim.Domain) {
	h.bind(d)
	for _, g := range h.gws {
		g.bind()
	}
}

// Drained reports whether no traffic remains anywhere in the fabric.
func (h *Hybrid) Drained() bool {
	for _, g := range h.gws {
		if g.txBusy || len(g.txq) > 0 {
			return false
		}
	}
	return h.idle()
}

// Send implements Network. Runs on the shard owning m.Src.
func (h *Hybrid) Send(m *Message) {
	st, n := h.admit(m)
	if m.Dst == BroadcastDst {
		h.enet.Send(m)
		return
	}
	if m.Dst == m.Src {
		h.sendSelf(m)
		return
	}
	srcGW, dstGW := h.Cfg.GatewayOf(m.Src), h.Cfg.GatewayOf(m.Dst)
	express := srcGW != dstGW && h.Cfg.Distance(m.Src, m.Dst) >= h.Cfg.Network.RThres
	// Graceful degradation: a gateway whose express channel crossed the
	// observed-error threshold routes its unicasts over the mesh fallback.
	if express && h.health[srcGW].degraded {
		express = false
		st.ReroutedMsgs++
		st.ReroutedFlits += uint64(n)
	}
	if express {
		h.sendViaHub(m, h.Cfg.GatewayCore(srcGW))
	} else {
		h.enet.Send(m)
	}
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
	h.gws[h.Cfg.GatewayOf(core)].enqueueTX(m)
}

// gateway is one photonic express endpoint: a serializing SWMR optical
// transmitter plus the staging that hands arrivals back to the mesh.
type gateway struct {
	port
	h *Hybrid

	txq    []*Message
	txBusy bool
	// Stop-and-wait: the transfer in flight and whether it was NACKed live
	// here, and txDoneFn is bound once — no closure per transmission.
	txMsg    *Message
	txFailed bool
	txDoneFn func()

	// in stages express arrivals for the final mesh leg.
	in inbox
}

func (g *gateway) enqueueTX(m *Message) {
	n := FlitsFor(m.Bits, g.h.Cfg.Network.FlitBits)
	g.st.HubFlits += uint64(n)
	g.txq = append(g.txq, m)
	if !g.txBusy {
		g.startTX()
	}
}

func (g *gateway) startTX() {
	m := g.txq[0]
	g.txq = g.txq[1:]
	g.txBusy = true
	g.transmit(m)
}

// transmit performs one express transmission attempt of m: a select-link
// notification to the destination gateway, then the data flits on this
// gateway's wavelength set. The channel is stop-and-wait under faults —
// it stays busy, including the backoff gap, until the receiver holds a
// clean copy or the retry budget forces it through.
func (g *gateway) transmit(m *Message) {
	cfg := g.h.Cfg
	n := FlitsFor(m.Bits, cfg.Network.FlitBits)
	lag := cfg.Network.SelectDataLag
	oDelay := cfg.Network.ONetLinkDelay
	busy := sim.Time(lag + n)
	g.st.SelectEvents++
	g.st.ExpressPkts++
	g.st.ExpressFlits += uint64(n)
	if m.retx > 0 {
		g.st.OpticalRetxPkts++
		g.st.OpticalRetxFlits += uint64(n)
	}
	errs, failed := g.reception(n, m.retx)
	g.f.health[g.id].observe(&g.port, n, errs)
	if !failed {
		g.h.gws[cfg.GatewayOf(m.Dst)].in.book(&g.port, g.k.Now()+sim.Time(lag+1+oDelay), m, n)
	}
	g.txMsg, g.txFailed = m, failed
	g.k.Schedule(busy, g.txDoneFn)
}

// txDone ends a transmission attempt's busy period.
func (g *gateway) txDone() {
	if m := g.txMsg; g.txFailed {
		g.retry(&m.retx, func() { g.transmit(m) })
		return
	}
	g.txMsg = nil
	g.txBusy = false
	if len(g.txq) > 0 {
		g.startTX()
	}
}

// arrive hands a landed express arrival back to the mesh: the final
// electrical leg to the destination core, or a direct delivery when the
// destination is the gateway core itself.
func (g *gateway) arrive(m *Message, n int) {
	g.st.HubFlits += uint64(n)
	if m.Dst == g.core {
		g.f.deliverCore(g.core, m)
		return
	}
	g.f.sendVia(m, g.core, m.Dst)
}
