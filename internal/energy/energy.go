// Package energy combines the per-event energies and static powers of the
// device models (internal/mcpat, internal/dsent, internal/photonics) with
// the event counters of a simulation run into the component-level energy
// breakdowns, areas, and energy-delay products the paper reports
// (Figs 7-10, 12-14, 16, 17).
//
// Chip geometry is solved self-consistently: cache areas set the tile
// size, the tile size sets electrical hop length and cluster span, and
// the die edge sets the optical waveguide loop length.
package energy

import (
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/dsent"
	"repro/internal/mcpat"
	"repro/internal/photonics"
	"repro/internal/system"
	"repro/internal/tech"
)

// Models bundles every solved device model for one configuration.
type Models struct {
	Cfg  config.Config
	Tech tech.Params
	Phot photonics.Params

	L1I, L1D, L2, Dir mcpat.Model
	Router            dsent.Router
	Link              dsent.Link
	Cluster           dsent.ClusterNets
	Opt               photonics.Link // zero when Cfg's network has no photonics

	// Solved geometry.
	HopMM     float64 // electrical mesh hop length
	DieMM2    float64
	DieEdgeMM float64
}

// Build solves all models for cfg under the technology scenario cfg
// names: cfg.Tech selects the electrical node and cfg.Optics the optical
// variant from the scenario registries, with empty fields meaning the
// paper's baseline. Every binary that builds Models from a Config goes
// through here, so a scenario selected in one tool can never be silently
// ignored in another.
func Build(cfg config.Config) (Models, error) {
	tp, pp, err := Scenario(cfg)
	if err != nil {
		return Models{}, err
	}
	return BuildWith(cfg, tp, pp)
}

// Scenario resolves cfg's named technology scenario (cfg.Tech,
// cfg.Optics) to concrete parameter sets — the same resolution Build
// applies. Sweeps that perturb one device knob start from here so the
// perturbation composes with the selected scenario instead of silently
// resetting it to the baseline.
func Scenario(cfg config.Config) (tech.Params, photonics.Params, error) {
	tp, err := tech.ByName(cfg.Tech)
	if err != nil {
		return tech.Params{}, photonics.Params{}, err
	}
	pp, err := photonics.ByName(cfg.Optics)
	if err != nil {
		return tech.Params{}, photonics.Params{}, err
	}
	return tp, pp, nil
}

// DefaultTech returns the default electrical technology (Table III).
func DefaultTech() tech.Params { return tech.Default11nm() }

// DefaultPhotonics returns the default optical technology (Table II).
func DefaultPhotonics() photonics.Params { return photonics.DefaultParams() }

// BuildWith solves all models with explicit technology parameters (used by
// the waveguide-loss and flavor sweeps). The photonic parameters are
// adjusted for the configured ATAC+ flavor (Ideal => lossless devices).
func BuildWith(cfg config.Config, tp tech.Params, pp photonics.Params) (Models, error) {
	if err := cfg.Validate(); err != nil {
		return Models{}, err
	}
	m := Models{Cfg: cfg, Tech: tp}

	cc := cfg.Caches
	var err error
	if m.L1I, err = mcpat.Build(tp, mcpat.CacheSpec{Name: "L1I", SizeBytes: cc.L1IKB * 1024, Assoc: cc.L1Assoc, LineBytes: cc.LineBytes}); err != nil {
		return m, err
	}
	if m.L1D, err = mcpat.Build(tp, mcpat.CacheSpec{Name: "L1D", SizeBytes: cc.L1DKB * 1024, Assoc: cc.L1Assoc, LineBytes: cc.LineBytes}); err != nil {
		return m, err
	}
	if m.L2, err = mcpat.Build(tp, mcpat.CacheSpec{Name: "L2", SizeBytes: cc.L2KB * 1024, Assoc: cc.L2Assoc, LineBytes: cc.LineBytes}); err != nil {
		return m, err
	}
	dirSpec := mcpat.DirectorySpec(cfg.Cores, cc.DirSlices, cfg.Coherence.Sharers, cc.LineBytes, cc.L2KB)
	if m.Dir, err = mcpat.Build(tp, dirSpec); err != nil {
		return m, err
	}

	rSpec := dsent.RouterSpec{Ports: 5, FlitBits: cfg.Network.FlitBits, BufFlits: cfg.Network.BufFlits}
	if m.Router, err = dsent.BuildRouter(tp, rSpec); err != nil {
		return m, err
	}

	// Geometry: caches plus router per tile, ~10% extra for core logic
	// and wiring; the paper's caches occupy ~90% of the die (Fig 10).
	dirSharePerCore := m.Dir.AreaMM2 * float64(cc.DirSlices) / float64(cfg.Cores)
	tile := (m.L1I.AreaMM2 + m.L1D.AreaMM2 + m.L2.AreaMM2 + dirSharePerCore + m.Router.AreaMM2) * 1.10
	m.HopMM = math.Sqrt(tile)
	m.DieMM2 = tile * float64(cfg.Cores)
	m.DieEdgeMM = math.Sqrt(m.DieMM2)

	if m.Link, err = dsent.BuildLink(tp, cfg.Network.FlitBits, m.HopMM); err != nil {
		return m, err
	}
	if m.Cluster, err = dsent.BuildClusterNets(tp, cfg.Network.FlitBits, cfg.ClusterCores(), m.HopMM*float64(cfg.ClusterDim)); err != nil {
		return m, err
	}

	if cfg.Network.Kind.HasPhotonics() {
		if cfg.Network.Flavor == config.FlavorIdeal {
			pp = pp.Ideal()
		}
		// The optical waveguide loop serpentines through every endpoint:
		// ~2.5x the die edge.
		pp.WaveguideLoopCM = 2.5 * m.DieEdgeMM / 10
		geo, solve := photonics.NewGeometry(cfg.Clusters(), cfg.Network.FlitBits), photonics.Solve
		switch cfg.Network.Kind {
		case config.Corona:
			// MWSR home channels with radix-scaled worst-case loss.
			geo, solve = photonics.CrossbarGeometry(cfg.Clusters(), cfg.Network.FlitBits), photonics.SolveCrossbar
		case config.HybridMesh:
			// Express overlay: one SWMR channel per gateway.
			geo = photonics.NewGeometry(cfg.HybridGateways(), cfg.Network.FlitBits)
		}
		if m.Opt, err = solve(pp, geo); err != nil {
			return m, err
		}
	}
	m.Phot = pp
	return m, nil
}

// Breakdown is the chip energy of one run, in joules, split into the
// categories the paper's figures use.
type Breakdown struct {
	// Cores (Fig 17).
	CoreDD, CoreNDD float64
	// Caches (Figs 7, 16, 17): dynamic + static per structure.
	L1IDyn, L1IStatic float64
	L1DDyn, L1DStatic float64
	L2Dyn, L2Static   float64
	DirDyn, DirStatic float64
	// Electrical network: mesh routers+links, hubs, receive nets.
	NetElecDyn, NetElecStatic float64
	// Optical network (Fig 7 categories).
	Laser      float64
	RingTuning float64
	ONetOther  float64 // modulators, receivers, select link
}

// Caches returns total cache energy.
func (b Breakdown) Caches() float64 {
	return b.L1IDyn + b.L1IStatic + b.L1DDyn + b.L1DStatic + b.L2Dyn + b.L2Static + b.DirDyn + b.DirStatic
}

// Network returns total network energy (electrical + optical).
func (b Breakdown) Network() float64 {
	return b.NetElecDyn + b.NetElecStatic + b.Laser + b.RingTuning + b.ONetOther
}

// Core returns total core energy.
func (b Breakdown) Core() float64 { return b.CoreDD + b.CoreNDD }

// Total returns whole-chip energy.
func (b Breakdown) Total() float64 { return b.Core() + b.Caches() + b.Network() }

// UncoreTotal returns cache + network energy (Fig 7's scope).
func (b Breakdown) UncoreTotal() float64 { return b.Caches() + b.Network() }

// Combine folds a run's counters into the energy breakdown. Each category
// is one expression over every fabric's counters; there is no per-fabric
// case, because a fabric increments only its own counters and an
// electrical config's zero m.Opt prices every optical term at +0. Adding
// +0 leaves a float sum's bits unchanged, so a term may join a category
// freely, but the order of the terms within a category is part of every
// golden: reordering them changes the low bits of the result.
func Combine(m Models, r system.Result) Breakdown {
	cfg := m.Cfg
	T := float64(r.Cycles) * 1e-9 // seconds at 1 GHz
	n := float64(cfg.Cores)
	o := m.Opt
	hubs := float64(o.Geometry.Hubs) // ONet hubs, crossbar home channels or hybrid gateways
	var b Breakdown

	// Cores (Section V-G): NDD burns always; DD scales with IPC, i.e.
	// with retired instructions.
	f := cfg.Core.NDDFraction
	peak := cfg.Core.PeakPowerW
	b.CoreNDD = f * peak * n * T
	b.CoreDD = (1 - f) * peak * float64(r.Instructions) * 1e-9

	// Caches.
	b.L1IDyn = float64(r.Instructions) * m.L1I.ReadEnergyJ
	b.L1IStatic = n * (m.L1I.LeakageW + m.L1I.ClockW) * T
	b.L1DDyn = float64(r.Coh.L1DReads)*m.L1D.ReadEnergyJ + float64(r.Coh.L1DWrites)*m.L1D.WriteEnergyJ
	b.L1DStatic = n * (m.L1D.LeakageW + m.L1D.ClockW) * T
	b.L2Dyn = float64(r.Coh.L2Reads)*m.L2.ReadEnergyJ + float64(r.Coh.L2Writes)*m.L2.WriteEnergyJ +
		float64(r.Coh.L2TagProbes)*m.L2.TagEnergyJ
	b.L2Static = n * (m.L2.LeakageW + m.L2.ClockW) * T
	b.DirDyn = float64(r.Coh.DirAccesses) * m.Dir.ReadEnergyJ
	b.DirStatic = float64(cfg.Caches.DirSlices) * (m.Dir.LeakageW + m.Dir.ClockW) * T

	// Electrical network dynamic. Retransmitted flits already appear in
	// the mesh flit counters (each retry is a real crossing); the NACK
	// wire events they provoke are charged here at link cost.
	b.NetElecDyn = float64(r.Net.MeshRouterFlits)*m.Router.PerFlitJ() +
		float64(r.Net.MeshLinkFlits)*m.Link.PerFlitJ +
		float64(r.Net.MeshNacks)*m.Link.PerFlitJ +
		float64(r.Net.HubFlits)*m.Cluster.HubFlitJ +
		float64(r.Net.BNetFlits)*m.Cluster.BNetFlitJ +
		float64(r.Net.StarUniFlits)*m.Cluster.StarUnicastFlitJ +
		float64(r.Net.StarBcastFlits)*m.Cluster.StarBroadcastFlitJ

	// Electrical network static: every core has a router; links between
	// adjacent routers (4*dim*(dim-1) directed); one hub per optical
	// endpoint.
	dim := float64(cfg.MeshDim())
	nLinks := 4 * dim * (dim - 1)
	b.NetElecStatic = n*(m.Router.LeakageW+m.Router.ClockW)*T + nLinks*m.Link.LeakageW*T +
		hubs*(m.Cluster.HubLeakageW+m.Cluster.HubClockW)*T

	// Optical network. Data flits go to one reader (ONet unicasts, crossbar
	// home channels, hybrid express links) or, as ONet broadcasts, to the
	// H-1 others. Select notifications, token grants and NACKs (each
	// corrupted reception rides the select network back to the sender) are
	// select-class events; retransmitted flits are already in the flit
	// counters. A crossbar's broadcast power equals its unicast power.
	uniF := float64(r.Net.ONetUniFlits + r.Net.XbarFlits + r.Net.ExpressFlits)
	bcF := float64(r.Net.ONetBcastFlits)
	b.ONetOther = (uniF+bcF)*o.ModulatorEnergyJPerFlit() +
		uniF*o.ReceiverEnergyJPerFlit(1) +
		bcF*o.ReceiverEnergyJPerFlit(o.Geometry.Hubs-1) +
		float64(r.Net.SelectEvents+r.Net.TokensGranted)*o.SelectEventEnergyJ(1e-9) +
		float64(r.Net.OpticalNacks)*o.SelectEventEnergyJ(1e-9)
	if cfg.Network.Flavor.LaserGated() {
		// A gated data laser burns for exactly the flits it sends.
		b.Laser = uniF*o.DataLinkWallPowerW(false)*1e-9 + bcF*o.DataLinkWallPowerW(true)*1e-9
	} else {
		// No power gating: every hub's data and select lasers burn
		// worst-case (broadcast) power for the whole run.
		b.Laser = hubs * (o.DataLinkWallPowerW(true) + o.SelectLinkWallPowerW()) * T
	}
	b.RingTuning = o.TuningPowerW(cfg.Network.Flavor.Athermal()) * T
	return b
}

// ResilienceOverheadJ estimates the dynamic energy the run spent on fault
// handling rather than useful transport: NACK signalling, retransmitted
// flit crossings, and unicasts diverted from a degraded optical channel
// onto the electrical mesh (charged at the mesh's mean-distance per-flit
// cost, since the clean-path counters cannot be separated per message
// after the fact). Zero for a fault-free run; the optical terms are zero
// on an electrical fabric, as in Combine.
func ResilienceOverheadJ(m Models, r system.Result) float64 {
	o := m.Opt
	// Mean Manhattan distance on a dim x dim mesh is ~2/3 dim per axis.
	meanHops := 2.0 * 2.0 / 3.0 * float64(m.Cfg.MeshDim())
	return float64(r.Net.MeshNacks)*m.Link.PerFlitJ +
		float64(r.Net.MeshRetxFlits)*(m.Link.PerFlitJ+m.Router.PerFlitJ()) +
		float64(r.Net.OpticalNacks)*o.SelectEventEnergyJ(1e-9) +
		float64(r.Net.OpticalRetxFlits)*(o.ModulatorEnergyJPerFlit()+
			o.ReceiverEnergyJPerFlit(1)+o.DataLinkWallPowerW(false)*1e-9) +
		float64(r.Net.ReroutedFlits)*meanHops*(m.Link.PerFlitJ+m.Router.PerFlitJ())
}

// EDP returns the energy-delay product (J·s) for a run under its models.
func EDP(m Models, r system.Result) float64 {
	return Combine(m, r).Total() * float64(r.Cycles) * 1e-9
}

// AveragePowerW returns the run's mean chip power in watts.
func AveragePowerW(m Models, r system.Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return Combine(m, r).Total() / (float64(r.Cycles) * 1e-9)
}

// Area is the die area breakdown (Fig 10), in mm².
type Area struct {
	L1I, L1D, L2, Dir float64
	Routers, Links    float64
	Hubs, ReceiveNets float64
	Photonics         float64
	CoreLogic         float64
}

// Total returns the summed die area.
func (a Area) Total() float64 {
	return a.L1I + a.L1D + a.L2 + a.Dir + a.Routers + a.Links + a.Hubs + a.ReceiveNets + a.Photonics + a.CoreLogic
}

// ComputeArea derives the Fig 10 area breakdown from the solved models.
func ComputeArea(m Models) Area {
	cfg := m.Cfg
	n := float64(cfg.Cores)
	dim := float64(cfg.MeshDim())
	a := Area{
		L1I:       n * m.L1I.AreaMM2,
		L1D:       n * m.L1D.AreaMM2,
		L2:        n * m.L2.AreaMM2,
		Dir:       float64(cfg.Caches.DirSlices) * m.Dir.AreaMM2,
		Routers:   n * m.Router.AreaMM2,
		Links:     4 * dim * (dim - 1) * m.Link.AreaMM2,
		Hubs:      float64(m.Opt.Geometry.Hubs) * m.Cluster.AreaMM2,
		Photonics: m.Opt.AreaMM2(),
	}
	a.CoreLogic = 0.10 * (a.L1I + a.L1D + a.L2)
	return a
}

// String renders a compact single-line summary of a breakdown in mJ.
func (b Breakdown) String() string {
	return fmt.Sprintf("core=%.3f+%.3f caches=%.3f net(elec=%.3f laser=%.3f tune=%.3f opt=%.3f) total=%.3f mJ",
		b.CoreDD*1e3, b.CoreNDD*1e3, b.Caches()*1e3,
		(b.NetElecDyn+b.NetElecStatic)*1e3, b.Laser*1e3, b.RingTuning*1e3, b.ONetOther*1e3,
		b.Total()*1e3)
}
