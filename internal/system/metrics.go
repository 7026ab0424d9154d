// Cross-layer metrics wiring: AttachMetrics registers one sampler per
// architectural layer on a metrics.Collector, and Run (system.go) drives
// the collector between kernel chunks so epochs land on exact simulated-
// time boundaries without adding a single event to the kernel queue —
// the hot paths are untouched whether metrics are on or off.
package system

import (
	"repro/internal/metrics"
)

// AttachMetrics registers per-epoch samplers for every layer of this
// machine on the collector: cores, coherence/caches, the NoC (including a
// delivery-latency histogram hooked into the network's ejection path),
// the optical layer (ATAC only), the fault layer (when armed), and the
// first-order core energy split (NDD vs DD, Section V-G). Derived
// rate/ratio columns (IPC, offered load, laser duty, link utilization)
// are computed per epoch from the same deltas at export time.
//
// Attach before Run; a nil collector is a no-op. Attaching changes no
// simulation behavior: sampling is pull-based and read-only.
func (s *System) AttachMetrics(c *metrics.Collector) {
	if c == nil {
		return
	}
	s.metrics = c

	cores := float64(s.Cfg.Cores)
	c.AddSource("core", []string{"instructions", "finished"}, func(v []float64) {
		var instr, fin uint64
		for _, core := range s.Core {
			instr += core.Instructions
			if core.Finished {
				fin++
			}
		}
		v[0], v[1] = float64(instr), float64(fin)
	})

	// The coherence counters are merged on read under sharding, so sample
	// through the accessor each epoch rather than holding the pointer.
	c.AddSource("coh", []string{
		"l1d_reads", "l1d_writes", "l1d_misses", "l2_misses",
		"dir_accesses", "inv_bcasts", "inv_unicasts", "acks", "mem_reads", "mem_writes",
	}, func(v []float64) {
		cs := s.Coh.Stats()
		v[0] = float64(cs.L1DReads)
		v[1] = float64(cs.L1DWrites)
		v[2] = float64(cs.L1DMisses)
		v[3] = float64(cs.L2Misses)
		v[4] = float64(cs.DirAccesses)
		v[5] = float64(cs.InvBroadcasts)
		v[6] = float64(cs.InvUnicasts)
		v[7] = float64(cs.AcksCollected)
		v[8] = float64(cs.MemReads)
		v[9] = float64(cs.MemWrites)
	})

	// The network counters are folded on read (Atac.Stats), so sample
	// through the interface each epoch rather than holding the pointer.
	c.AddSource("noc", []string{
		"unicast_sent", "bcast_sent", "delivered", "unicast_recv", "bcast_recv",
		"injected_flits", "mesh_link_flits", "mesh_router_flits", "latency_sum", "latency_count",
	}, func(v []float64) {
		ns := s.Net.Stats()
		v[0] = float64(ns.UnicastSent)
		v[1] = float64(ns.BroadcastSent)
		v[2] = float64(ns.Delivered)
		v[3] = float64(ns.UnicastRecv)
		v[4] = float64(ns.BroadcastRecv)
		v[5] = float64(ns.InjectedFlits)
		v[6] = float64(ns.MeshLinkFlits)
		v[7] = float64(ns.MeshRouterFlits)
		v[8] = float64(ns.LatencySum)
		v[9] = float64(ns.LatencyCount)
	})

	hubs := float64(s.Cfg.Clusters())
	if s.Atac != nil {
		c.AddSource("onet", []string{
			"hub_flits", "uni_flits", "bcast_flits", "uni_pkts", "bcast_pkts",
			"select_events", "busy_cycles",
		}, func(v []float64) {
			ns := s.Net.Stats()
			v[0] = float64(ns.HubFlits)
			v[1] = float64(ns.ONetUniFlits)
			v[2] = float64(ns.ONetBcastFlits)
			v[3] = float64(ns.ONetUniPkts)
			v[4] = float64(ns.ONetBcastPkts)
			v[5] = float64(ns.SelectEvents)
			v[6] = float64(s.Atac.BusyCycles())
		})
	}

	if s.Cfg.Fault.Enabled {
		c.AddSource("fault", []string{
			"mesh_errors", "mesh_retx_flits", "mesh_forced",
			"optical_errors", "optical_retx_flits", "optical_forced",
			"rerouted_msgs", "degraded_channels",
		}, func(v []float64) {
			ns := s.Net.Stats()
			v[0] = float64(ns.MeshNacks)
			v[1] = float64(ns.MeshRetxFlits)
			v[2] = float64(ns.MeshRetriesExhausted)
			v[3] = float64(ns.OpticalFlitErrors)
			v[4] = float64(ns.OpticalRetxFlits)
			v[5] = float64(ns.OpticalRetriesExhausted)
			v[6] = float64(ns.ReroutedMsgs)
			v[7] = float64(ns.DegradedChannels)
		})
	}

	// First-order core energy split (Section V-G): NDD burns with wall
	// time, DD with retired instructions. Cumulative joules, so the
	// per-epoch deltas expose where slow network epochs inflate the
	// non-data-dependent energy — the paper's cross-layer feedback loop.
	f, peak := s.Cfg.Core.NDDFraction, s.Cfg.Core.PeakPowerW
	c.AddSource("energy", []string{"core_ndd_j", "core_dd_j"}, func(v []float64) {
		var instr uint64
		for _, core := range s.Core {
			instr += core.Instructions
		}
		v[0] = f * peak * cores * float64(s.eng.Now()) * 1e-9
		v[1] = (1 - f) * peak * float64(instr) * 1e-9
	})

	// Delivery-latency histogram, hooked into the network ejection path
	// (one nil check per delivery when unobserved).
	s.LatHist = &metrics.Histogram{}
	s.Net.(interface{ SetLatencyHist(*metrics.Histogram) }).SetLatencyHist(s.LatHist)
	c.AddHistogram("lat", s.LatHist)

	// Derived per-epoch rates and ratios. Indices are bound once here;
	// the closures then read straight out of each row's delta slice.
	instrIx := c.ColIndex("core.instructions")
	injIx := c.ColIndex("noc.injected_flits")
	uniIx := c.ColIndex("noc.unicast_recv")
	bcIx := c.ColIndex("noc.bcast_recv")
	latSumIx := c.ColIndex("noc.latency_sum")
	latCntIx := c.ColIndex("noc.latency_count")
	c.AddDerived("ipc", func(d []float64, cyc float64) float64 {
		return d[instrIx] / (cyc * cores)
	})
	c.AddDerived("stall_frac", func(d []float64, cyc float64) float64 {
		return 1 - d[instrIx]/(cyc*cores)
	})
	c.AddDerived("offered_load", func(d []float64, cyc float64) float64 {
		return d[injIx] / (cyc * cores)
	})
	c.AddDerived("bcast_recv_frac", func(d []float64, cyc float64) float64 {
		tot := d[uniIx] + d[bcIx]
		if tot == 0 {
			return 0
		}
		return d[bcIx] / tot
	})
	c.AddDerived("avg_latency", func(d []float64, cyc float64) float64 {
		if d[latCntIx] == 0 {
			return 0
		}
		return d[latSumIx] / d[latCntIx]
	})
	if s.Atac != nil {
		busyIx := c.ColIndex("onet.busy_cycles")
		uniFIx := c.ColIndex("onet.uni_flits")
		bcFIx := c.ColIndex("onet.bcast_flits")
		c.AddDerived("link_util", func(d []float64, cyc float64) float64 {
			return d[busyIx] / (cyc * hubs)
		})
		c.AddDerived("laser_duty", func(d []float64, cyc float64) float64 {
			// A data laser is on for exactly the flits it sends.
			return (d[uniFIx] + d[bcFIx]) / (cyc * hubs)
		})
	}
}
