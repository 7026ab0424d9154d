// Package config holds every architectural and technology parameter of the
// simulated system, mirroring Tables I–IV of the paper. A Config fully
// determines a simulation: two runs with equal Configs (and equal workload
// seeds) produce identical results.
package config

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"strings"

	"repro/internal/photonics"
	"repro/internal/tech"
)

// enumTable is the one spelling of an enum's values: names is indexed by
// value, and what is the noun error messages use. String, the JSON codec,
// Validate and the front ends' parsers all read it.
type enumTable[T ~int] struct {
	what  string
	names []string
}

// name returns v's table name, or Type(n) for a value outside the table.
func (t enumTable[T]) name(v T) string {
	if v >= 0 && int(v) < len(t.names) {
		return t.names[v]
	}
	return fmt.Sprintf("%s(%d)", reflect.TypeFor[T]().Name(), int(v))
}

// check rejects a value outside the table.
func (t enumTable[T]) check(v T) error {
	if v < 0 || int(v) >= len(t.names) {
		return fmt.Errorf("config: unknown %s %v", t.what, t.name(v))
	}
	return nil
}

// named returns the value whose table name equals s in any case.
func (t enumTable[T]) named(s string) (T, bool) {
	s = strings.ToLower(s)
	for i, n := range t.names {
		if strings.ToLower(n) == s {
			return T(i), true
		}
	}
	return 0, false
}

// NetworkKind selects the on-chip interconnect architecture under study.
type NetworkKind int

const (
	// EMeshPure is a plain electrical 2-D mesh. Broadcasts are performed
	// as N-1 serialized unicasts at the source.
	EMeshPure NetworkKind = iota
	// EMeshBCast is an electrical mesh with native multicast support in
	// each router (tree-based flit replication).
	EMeshBCast
	// ATAC is the original ATAC architecture: ENet mesh + ONet optical
	// broadcast ring + BNet electrical broadcast fan-out trees, with
	// cluster-based unicast routing.
	ATAC
	// ATACPlus is the paper's proposal: ENet + adaptive SWMR ONet +
	// point-to-point StarNet, with distance-based unicast routing.
	ATACPlus
	// Corona is a Corona-style optical crossbar: one MWSR serpentine
	// waveguide channel per destination cluster, token-based arbitration
	// among the writers, and ejection through the destination cluster's
	// receive networks. Intra-cluster traffic stays on the electrical
	// mesh; there is no broadcast medium, so a broadcast becomes one
	// crossbar packet per destination cluster.
	Corona
	// HybridMesh is a MorphoNoC-style configurable hybrid: a full
	// electrical multicast mesh overlaid with photonic express links
	// between gateway clusters at a configurable granularity
	// (Hybrid.Radius). Long unicasts ride the express links; broadcasts
	// and short unicasts stay electrical.
	HybridMesh
)

var networkKinds = enumTable[NetworkKind]{"network kind", []string{
	EMeshPure: "EMesh-Pure", EMeshBCast: "EMesh-BCast", ATAC: "ATAC",
	ATACPlus: "ATAC+", Corona: "Corona", HybridMesh: "Hybrid",
}}

func (k NetworkKind) String() string { return networkKinds.name(k) }

// NetworkKindNamed returns the kind whose name equals s in any case.
func NetworkKindNamed(s string) (NetworkKind, bool) { return networkKinds.named(s) }

// IsOptical reports whether the network contains the ONet optical fabric
// (the ATAC hub/receive-net composition). The crossbar and hybrid fabrics
// are photonic but not ONet-shaped; use HasPhotonics for "needs a link
// budget" checks.
func (k NetworkKind) IsOptical() bool { return k == ATAC || k == ATACPlus }

// HasPhotonics reports whether the network contains any photonic fabric
// and therefore needs a solved optical link budget (laser power, ring
// tuning, per-bit modulator/receiver energies).
func (k NetworkKind) HasPhotonics() bool {
	return k.IsOptical() || k == Corona || k == HybridMesh
}

// ReceiveNet selects the hub-to-core distribution network inside a cluster.
type ReceiveNet int

const (
	// StarNet is a 1-to-16 demultiplexer with point-to-point links
	// (ATAC+ default): a unicast drives one link, a broadcast all 16.
	StarNet ReceiveNet = iota
	// BNet is the original ATAC broadcast fan-out tree: every flit is
	// delivered to all 16 cores regardless of destination.
	BNet
)

var receiveNets = enumTable[ReceiveNet]{"receive net", []string{StarNet: "StarNet", BNet: "BNet"}}

func (r ReceiveNet) String() string { return receiveNets.name(r) }

// RoutingPolicy selects how inter-cluster unicasts are routed in ATAC/ATAC+.
type RoutingPolicy int

const (
	// ClusterRouting sends every inter-cluster unicast over the ONet
	// (original ATAC policy).
	ClusterRouting RoutingPolicy = iota
	// DistanceRouting sends a unicast over the ENet when the Manhattan
	// distance between sender and receiver is below RThres hops, and
	// over the ONet otherwise (ATAC+ policy).
	DistanceRouting
	// ENetOnlyRouting ("Distance-All" in the paper) sends every unicast
	// over the ENet; the ONet carries only broadcasts.
	ENetOnlyRouting
	// AdaptiveRouting extends DistanceRouting with load awareness: a
	// unicast beyond RThres still falls back to the ENet when its
	// cluster's optical transmit queue is congested. The paper observes
	// that the performance-optimal policy "is adaptive" but evaluates an
	// oblivious one for simplicity; this is that extension.
	AdaptiveRouting
)

var routingPolicies = enumTable[RoutingPolicy]{"routing policy", []string{
	ClusterRouting: "Cluster", DistanceRouting: "Distance",
	ENetOnlyRouting: "Distance-All", AdaptiveRouting: "Adaptive",
}}

func (p RoutingPolicy) String() string { return routingPolicies.name(p) }

// CoherenceKind selects the cache coherence protocol.
type CoherenceKind int

const (
	// ACKwise tracks up to K sharers exactly; beyond K it keeps only a
	// count, broadcasts invalidations, and collects acknowledgements
	// from actual sharers only. It cannot support silent evictions.
	ACKwise CoherenceKind = iota
	// DirKB is a limited directory that broadcasts invalidations on
	// sharer-list overflow and collects acknowledgements from every
	// core in the system. It supports silent evictions of shared lines.
	DirKB
)

var coherenceKinds = enumTable[CoherenceKind]{"coherence kind", []string{ACKwise: "ACKwise", DirKB: "DirKB"}}

func (c CoherenceKind) String() string { return coherenceKinds.name(c) }

// CoherenceKindNamed returns the kind whose name equals s in any case.
func CoherenceKindNamed(s string) (CoherenceKind, bool) { return coherenceKinds.named(s) }

// Flavor is an ATAC+ optical technology scenario (Table IV).
type Flavor int

const (
	// FlavorDefault: practical devices, power-gated laser, athermal
	// rings (the "ATAC+" row of Table IV).
	FlavorDefault Flavor = iota
	// FlavorIdeal: lossless devices, 100%-efficient power-gated laser,
	// athermal rings.
	FlavorIdeal
	// FlavorRingTuned: practical devices, power-gated laser, rings
	// require active thermal tuning.
	FlavorRingTuned
	// FlavorCons: practical devices, laser always on at worst-case
	// (broadcast) power, rings require thermal tuning.
	FlavorCons
)

var flavors = enumTable[Flavor]{"flavor", []string{
	FlavorDefault: "ATAC+", FlavorIdeal: "ATAC+(Ideal)",
	FlavorRingTuned: "ATAC+(RingTuned)", FlavorCons: "ATAC+(Cons)",
}}

func (f Flavor) String() string { return flavors.name(f) }

// LaserGated reports whether this flavor's laser can be power gated and
// mode throttled.
func (f Flavor) LaserGated() bool { return f != FlavorCons }

// Athermal reports whether this flavor's rings need no thermal tuning.
func (f Flavor) Athermal() bool { return f == FlavorDefault || f == FlavorIdeal }

// Caches holds the cache hierarchy parameters (Table I).
type Caches struct {
	L1IKB       int // private L1 instruction cache size, KB
	L1DKB       int // private L1 data cache size, KB
	L2KB        int // private L2 cache size, KB
	LineBytes   int // cache block size, bytes
	L1Assoc     int
	L2Assoc     int
	L1HitCycles int // L1-D hit latency
	L2HitCycles int // L2 access latency (on top of L1 miss)
	DirSlices   int // distributed directory slices, at most one per cluster (64 in the paper)
}

// Network holds interconnect parameters (Table I).
type Network struct {
	Kind          NetworkKind
	FlitBits      int // flit width in bits (64 default; Fig 11 sweeps 16..256)
	RouterDelay   int // electrical router pipeline delay, cycles
	LinkDelay     int // electrical link traversal, cycles
	BufFlits      int // input buffer depth per router port, flits
	ONetLinkDelay int // optical propagation delay, cycles
	SelectDataLag int // select-link lead time before data, cycles
	ReceiveNet    ReceiveNet
	StarNetsPerCl int // parallel receive networks per cluster
	Routing       RoutingPolicy
	RThres        int // distance threshold in hops for Distance/AdaptiveRouting
	// AdaptiveQueueMax is the hub transmit-queue depth (in packets) above
	// which AdaptiveRouting diverts unicasts back to the ENet.
	AdaptiveQueueMax int
	Flavor           Flavor
	// BcastAsUnicast disables the ONet's native broadcast mode: every
	// broadcast is serialized as one unicast per hub over the optical
	// link (the ablation discussed in Section V-D for networks without
	// broadcast-capable SWMR links).
	BcastAsUnicast bool
}

// Fault configures the fault-injection and resilience layer
// (internal/fault) plus the simulation health watchdog. The zero value
// disables everything: a run with a zero Fault section is bit-identical to
// one on a build without the fault layer.
//
// Error processes are expressed as per-bit error rates (BER); the injector
// converts them to per-flit error probabilities at the configured flit
// width. All randomness is drawn from one deterministic stream seeded by
// Seed (or the top-level Config.Seed when Seed is 0), so a (Config, Seed)
// pair fully determines every injected fault.
type Fault struct {
	// Enabled turns fault injection on. The watchdog fields below are
	// independent of it: a perfect interconnect can still be watched.
	Enabled bool

	// MeshBER is the per-bit transient error rate on electrical mesh
	// links (ENet and EMesh). Errors are detected per flit at the
	// downstream router and handled by link-level NACK/retransmission.
	MeshBER float64
	// OpticalBER is the baseline per-bit error rate on the ONet SWMR
	// data links, before thermal drift and laser droop are applied.
	OpticalBER float64

	// DriftPeriod/DriftDuty describe thermal ring-drift episodes: during
	// the first DriftDuty cycles of every DriftPeriod-cycle window the
	// effective optical BER is multiplied by DriftBERMult. DriftPeriod 0
	// disables drift.
	DriftPeriod  int
	DriftDuty    int
	DriftBERMult float64

	// LaserDroopPerMCycle models laser power droop shrinking the SWMR
	// link budget: the effective optical BER grows by this fraction per
	// million simulated cycles (linear first-order margin-to-BER map).
	LaserDroopPerMCycle float64

	// MaxRetries bounds link-level (mesh) and channel-level (optical)
	// retransmission attempts per flit/packet. After the budget is spent
	// the transfer is forced through and counted as RetriesExhausted
	// (modelling end-to-end FEC recovering the residual errors, so the
	// protocol layer always makes progress). 0 means the default (4).
	MaxRetries int
	// BackoffBase is the first retransmission delay in cycles; each
	// further attempt doubles it up to BackoffCap. Zeros mean defaults
	// (8 and 1024 cycles).
	BackoffBase int
	BackoffCap  int

	// DegradeThreshold is the observed per-flit error rate over a
	// DegradeWindow-flit window above which a cluster's optical channel
	// is declared degraded: its unicasts are rerouted over the
	// electrical mesh fallback from then on (broadcasts stay optical,
	// protected by retransmission, because diverting them would break
	// the per-slice broadcast FIFO the coherence protocol requires).
	// Threshold 0 disables degradation. DegradeWindow 0 means the
	// default (2048 flits).
	DegradeThreshold float64
	DegradeWindow    int

	// Seed is the fault-stream seed; 0 derives it from Config.Seed.
	Seed int64

	// WatchdogInterval enables the simulation progress watchdog: every
	// WatchdogInterval cycles the system checks that instructions
	// retired or network messages were delivered; after WatchdogStalls
	// consecutive silent checks the run is aborted with a per-core
	// blocked-state dump. 0 disables the watchdog.
	WatchdogInterval int
	// WatchdogStalls is the number of consecutive no-progress checks
	// that trips the watchdog. 0 means the default (3).
	WatchdogStalls int

	// EventBudget, when nonzero, caps the number of kernel events one
	// run may execute — a livelock backstop beneath the watchdog.
	EventBudget uint64
}

// Hybrid configures the HybridMesh fabric's photonic overlay. Radius is
// the gateway granularity in cluster-grid units: every Radius×Radius block
// of clusters shares one photonic express gateway (attached to the block's
// center-most hub core). Radius 1 gives every cluster its own gateway —
// the most optical configuration the hybrid admits; larger radii thin the
// overlay toward a plain electrical mesh, spanning the MorphoNoC
// configuration space with a single knob.
type Hybrid struct {
	Radius int
}

// Memory holds the external memory parameters (Table I).
type Memory struct {
	Controllers   int     // on-chip memory controllers
	LatencyCycles int     // DRAM access latency (100 ns at 1 GHz)
	GBPerSec      float64 // bandwidth per controller
}

// Coherence holds protocol parameters.
type Coherence struct {
	Kind    CoherenceKind
	Sharers int // K: hardware sharer pointers per directory entry
}

// Core holds the core model parameters (Section V-G).
type Core struct {
	PeakPowerW  float64 // peak core power, W (20 mW in the paper)
	NDDFraction float64 // non-data-dependent fraction of peak power
}

// CycleSeconds is the simulated clock period in seconds: cores, caches and
// networks all run at 1 GHz (Table I), so the energy models turn a cycle
// count into time with it.
const CycleSeconds = 1e-9

// Config is the complete system configuration.
type Config struct {
	Cores      int // total processing cores (1024 in the paper)
	ClusterDim int // cores per cluster edge (4 => 16-core clusters)
	Caches     Caches
	Network    Network
	Memory     Memory
	Coherence  Coherence
	Core       Core
	Hybrid     Hybrid // photonic-overlay granularity; used by HybridMesh only
	Fault      Fault  // fault injection + watchdog; zero value = disabled
	Seed       int64  // base seed for all per-core PRNGs

	// Tech and Optics select the device-technology scenario the energy
	// and area models are evaluated under: an electrical node from the
	// internal/tech registry ("11nm", "7nm", "5nm") and an optical
	// variant from the internal/photonics registry ("baseline",
	// "optimistic", "pessimistic"). Empty strings mean the paper's
	// baseline, so a zero-valued pair reproduces the published numbers
	// bit for bit. The scenario changes only the post-hoc power/area
	// models, never cycle-level behavior, so it is not part of a run's
	// identity: one simulation is re-costed under every scenario.
	Tech   string
	Optics string
}

// MaxMeshDim is the widest mesh a machine may have, 65,025 cores: a mesh
// flit keeps its destination's column and row in a byte each.
const MaxMeshDim = 255

// maxHopDelay bounds the cycles one mesh hop can wait: a link crossing,
// or a retry's backoff. A mesh flit keeps the cycle it becomes visible in
// 32 bits, compared with the clock in serial-number arithmetic, which
// needs every such wait far below 2^31 cycles.
const maxHopDelay = 1 << 30

// MeshDim returns the edge length of the global core mesh: the smallest
// d >= 1 with d*d >= Cores. The float square root is exact on perfect
// squares and truncates below the ceiling otherwise (for any Cores below
// 2^52), so one step up corrects it.
func (c *Config) MeshDim() int {
	d := int(math.Sqrt(float64(max(c.Cores, 1))))
	if d*d < c.Cores {
		d++
	}
	return d
}

// ClusterCores returns the number of cores per cluster.
func (c *Config) ClusterCores() int { return c.ClusterDim * c.ClusterDim }

// Clusters returns the number of clusters (= ONet hubs).
func (c *Config) Clusters() int { return c.Cores / c.ClusterCores() }

// ClusterOf returns the cluster index owning core id.
func (c *Config) ClusterOf(core int) int {
	dim := c.MeshDim()
	x, y := core%dim, core/dim
	cw := dim / c.ClusterDim // clusters per row
	return (y/c.ClusterDim)*cw + x/c.ClusterDim
}

// ClusterGrid returns the edge length of the cluster grid: the clusters
// in one row (and in one column) of the mesh.
func (c *Config) ClusterGrid() int { return c.MeshDim() / c.ClusterDim }

// ClusterCore returns the core at column dx, row dy of cluster cl, counted
// from the cluster's top-left core. Clusters are numbered row by row.
func (c *Config) ClusterCore(cl, dx, dy int) int {
	dim := c.MeshDim()
	cw := dim / c.ClusterDim
	cx, cy := cl%cw, cl/cw
	return (cy*c.ClusterDim+dy)*dim + cx*c.ClusterDim + dx
}

// ClusterCoreIDs lists cluster cl's cores row by row, the order an
// optical broadcast fans out in.
func (c *Config) ClusterCoreIDs(cl int) []int {
	cores := make([]int, 0, c.ClusterCores())
	for dy := 0; dy < c.ClusterDim; dy++ {
		for dx := 0; dx < c.ClusterDim; dx++ {
			cores = append(cores, c.ClusterCore(cl, dx, dy))
		}
	}
	return cores
}

// HubCore returns the core co-located with cluster cl's hub (the cluster's
// center-most core; the hub attaches to this core's ENet router).
func (c *Config) HubCore(cl int) int { return c.ClusterCore(cl, c.ClusterDim/2, c.ClusterDim/2) }

// DirCore returns the core hosting directory slice i: the top-left core of
// cluster i (mod cluster count), spreading slices across the die.
func (c *Config) DirCore(i int) int { return c.ClusterCore(i%c.Clusters(), 0, 0) }

// MemCore returns the core hosting memory controller i: the bottom-right
// core of cluster i (mod cluster count).
func (c *Config) MemCore(i int) int {
	return c.ClusterCore(i%c.Clusters(), c.ClusterDim-1, c.ClusterDim-1)
}

// CoreXY returns mesh coordinates of a core.
func (c *Config) CoreXY(core int) (x, y int) {
	dim := c.MeshDim()
	return core % dim, core / dim
}

// hybridRadius returns Hybrid.Radius, reading a radius below 1 as 1.
func (c *Config) hybridRadius() int { return max(c.Hybrid.Radius, 1) }

// hybridGrid returns the edge length of the HybridMesh gateway grid: the
// cluster-grid edge divided by the hybrid radius.
func (c *Config) hybridGrid() int { return c.ClusterGrid() / c.hybridRadius() }

// HybridGateways returns the number of photonic express gateways in a
// HybridMesh configuration.
func (c *Config) HybridGateways() int {
	g := c.hybridGrid()
	return g * g
}

// GatewayOf returns the index of the express gateway serving core id.
func (c *Config) GatewayOf(core int) int {
	r := c.hybridRadius()
	x, y := c.CoreXY(core)
	gx := (x / c.ClusterDim) / r
	gy := (y / c.ClusterDim) / r
	return gy*c.hybridGrid() + gx
}

// GatewayCore returns the core a gateway's photonic transceiver attaches
// to: the hub core of the center-most cluster in the gateway's block.
func (c *Config) GatewayCore(g int) int {
	r := c.hybridRadius()
	grid := c.hybridGrid()
	cw := c.ClusterGrid()
	gx, gy := g%grid, g/grid
	cl := (gy*r+r/2)*cw + gx*r + r/2
	return c.HubCore(cl)
}

// Distance returns the Manhattan distance in mesh hops between two cores.
func (c *Config) Distance(a, b int) int {
	ax, ay := c.CoreXY(a)
	bx, by := c.CoreXY(b)
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Validate checks internal consistency and returns a descriptive error for
// the first violated constraint.
func (c *Config) Validate() error {
	dim := c.MeshDim()
	if dim*dim != c.Cores {
		return fmt.Errorf("config: Cores = %d is not a perfect square", c.Cores)
	}
	if dim > MaxMeshDim {
		return fmt.Errorf("config: Cores = %d makes a %dx%d mesh, wider than %d (at most %d cores)",
			c.Cores, dim, dim, MaxMeshDim, MaxMeshDim*MaxMeshDim)
	}
	if c.ClusterDim <= 0 || dim%c.ClusterDim != 0 {
		return fmt.Errorf("config: ClusterDim %d does not tile mesh dim %d", c.ClusterDim, dim)
	}
	if c.Network.FlitBits <= 0 {
		return fmt.Errorf("config: FlitBits must be positive, got %d", c.Network.FlitBits)
	}
	if c.Caches.LineBytes <= 0 || c.Caches.LineBytes%8 != 0 {
		return fmt.Errorf("config: LineBytes must be a positive multiple of 8, got %d", c.Caches.LineBytes)
	}
	if c.Coherence.Sharers < 1 {
		return fmt.Errorf("config: Coherence.Sharers must be >= 1, got %d", c.Coherence.Sharers)
	}
	// Slice i lives in cluster i mod Clusters(), which hosts one slice.
	if c.Caches.DirSlices <= 0 || c.Caches.DirSlices > c.Clusters() {
		return fmt.Errorf("config: DirSlices %d out of range (1..%d, one per cluster at most)", c.Caches.DirSlices, c.Clusters())
	}
	if c.Caches.L1Assoc < 1 || c.Caches.L2Assoc < 1 {
		return fmt.Errorf("config: cache associativities must be >= 1, got L1 %d, L2 %d", c.Caches.L1Assoc, c.Caches.L2Assoc)
	}
	if c.Memory.Controllers <= 0 {
		return fmt.Errorf("config: Memory.Controllers must be positive, got %d", c.Memory.Controllers)
	}
	n := &c.Network
	if err := cmp.Or(networkKinds.check(n.Kind), receiveNets.check(n.ReceiveNet),
		routingPolicies.check(n.Routing), coherenceKinds.check(c.Coherence.Kind), flavors.check(n.Flavor)); err != nil {
		return err
	}
	if n.RouterDelay < 1 || n.LinkDelay < 1 || n.BufFlits < 1 || n.StarNetsPerCl < 1 {
		return fmt.Errorf("config: RouterDelay, LinkDelay, BufFlits and StarNetsPerCl must be >= 1, got %d, %d, %d, %d",
			n.RouterDelay, n.LinkDelay, n.BufFlits, n.StarNetsPerCl)
	}
	if n.LinkDelay > maxHopDelay {
		return fmt.Errorf("config: LinkDelay %d exceeds %d cycles", n.LinkDelay, maxHopDelay)
	}
	// Zero is a valid latency for each of these; a negative one schedules
	// events in the past or flies an optical flit backwards in time.
	if n.SelectDataLag < 0 || n.ONetLinkDelay < 0 || c.Caches.L1HitCycles < 0 || c.Caches.L2HitCycles < 0 || c.Memory.LatencyCycles < 0 {
		return fmt.Errorf("config: SelectDataLag, ONetLinkDelay, L1HitCycles, L2HitCycles and Memory.LatencyCycles must be >= 0, got %d, %d, %d, %d, %d",
			n.SelectDataLag, n.ONetLinkDelay, c.Caches.L1HitCycles, c.Caches.L2HitCycles, c.Memory.LatencyCycles)
	}
	// Every cluster is an optical endpoint except in the hybrid, whose
	// gateway count is checked below.
	if c.Network.Kind.HasPhotonics() && c.Network.Kind != HybridMesh && c.Clusters() < 2 {
		return fmt.Errorf("config: %v network needs >= 2 clusters, got %d", c.Network.Kind, c.Clusters())
	}
	if c.Network.Kind.IsOptical() &&
		(c.Network.Routing == DistanceRouting || c.Network.Routing == AdaptiveRouting) && c.Network.RThres < 1 {
		return fmt.Errorf("config: %v routing needs RThres >= 1, got %d", c.Network.Routing, c.Network.RThres)
	}
	if c.Network.Kind == HybridMesh {
		r := c.Hybrid.Radius
		if r < 1 {
			return fmt.Errorf("config: Hybrid.Radius must be >= 1, got %d", r)
		}
		cw := c.ClusterGrid()
		if cw%r != 0 {
			return fmt.Errorf("config: Hybrid.Radius %d does not tile the %dx%d cluster grid", r, cw, cw)
		}
		if c.HybridGateways() < 2 {
			return fmt.Errorf("config: hybrid network needs >= 2 gateways, got %d (radius %d)", c.HybridGateways(), r)
		}
		if c.Network.RThres < 1 {
			return fmt.Errorf("config: hybrid network needs RThres >= 1, got %d", c.Network.RThres)
		}
	}
	if _, err := tech.ByName(c.Tech); err != nil {
		return fmt.Errorf("config: %v", err)
	}
	if _, err := photonics.ByName(c.Optics); err != nil {
		return fmt.Errorf("config: %v", err)
	}
	return c.Fault.validate()
}

// validate checks the fault section. All checks apply even when disabled,
// so a config file with a typo fails loudly rather than silently doing
// nothing once Enabled is flipped.
func (f *Fault) validate() error {
	if f.MeshBER < 0 || f.MeshBER >= 1 {
		return fmt.Errorf("config: Fault.MeshBER %g out of range [0,1)", f.MeshBER)
	}
	if f.OpticalBER < 0 || f.OpticalBER >= 1 {
		return fmt.Errorf("config: Fault.OpticalBER %g out of range [0,1)", f.OpticalBER)
	}
	if f.DriftPeriod < 0 || f.DriftDuty < 0 || f.DriftDuty > f.DriftPeriod {
		return fmt.Errorf("config: Fault drift window %d/%d invalid (need 0 <= duty <= period)", f.DriftDuty, f.DriftPeriod)
	}
	if f.DriftBERMult < 0 || f.LaserDroopPerMCycle < 0 {
		return fmt.Errorf("config: Fault drift/droop multipliers must be non-negative")
	}
	if f.MaxRetries < 0 || f.BackoffBase < 0 || f.BackoffCap < 0 {
		return fmt.Errorf("config: Fault retry parameters must be non-negative")
	}
	if f.BackoffCap > maxHopDelay {
		return fmt.Errorf("config: Fault.BackoffCap %d exceeds %d cycles", f.BackoffCap, maxHopDelay)
	}
	if f.DegradeThreshold < 0 || f.DegradeThreshold > 1 {
		return fmt.Errorf("config: Fault.DegradeThreshold %g out of range [0,1]", f.DegradeThreshold)
	}
	if f.DegradeWindow < 0 || f.WatchdogInterval < 0 || f.WatchdogStalls < 0 {
		return fmt.Errorf("config: Fault window/watchdog parameters must be non-negative")
	}
	return nil
}

// Default returns the paper's full-scale configuration: 1024 cores in 64
// clusters of 16, ATAC+ network with Distance-15 routing and the StarNet,
// ACKwise4 coherence (Tables I and IV defaults).
func Default() Config {
	return Config{
		Cores:      1024,
		ClusterDim: 4,
		Caches: Caches{
			L1IKB:       32,
			L1DKB:       32,
			L2KB:        256,
			LineBytes:   64,
			L1Assoc:     4,
			L2Assoc:     8,
			L1HitCycles: 1,
			L2HitCycles: 8,
			DirSlices:   64,
		},
		Network: Network{
			Kind:             ATACPlus,
			FlitBits:         64,
			RouterDelay:      1,
			LinkDelay:        1,
			BufFlits:         4,
			ONetLinkDelay:    3,
			SelectDataLag:    1,
			ReceiveNet:       StarNet,
			StarNetsPerCl:    2,
			Routing:          DistanceRouting,
			RThres:           15,
			AdaptiveQueueMax: 8,
			Flavor:           FlavorDefault,
		},
		Memory: Memory{
			Controllers:   64,
			LatencyCycles: 100,
			GBPerSec:      5,
		},
		Coherence: Coherence{Kind: ACKwise, Sharers: 4},
		Core:      Core{PeakPowerW: 0.020, NDDFraction: 0.10},
		Seed:      42,
	}
}

// Sized returns Default resized to cores in clusters of clusterDim x
// clusterDim cores: one directory slice and one memory controller per
// cluster and, below the paper's 1024 cores, a distance-routing threshold
// of half the mesh span (at least 2).
func Sized(cores, clusterDim int) Config {
	c := Default()
	c.Cores, c.ClusterDim = cores, clusterDim
	c.Caches.DirSlices = c.Clusters()
	c.Memory.Controllers = c.Clusters()
	if cores < 1024 {
		c.Network.RThres = max(c.MeshDim()/2, 2)
	}
	return c
}

// Small returns a reduced 64-core configuration (16 clusters of 4 cores)
// used by tests and the quickstart example. It exercises exactly the same
// code paths as Default at a fraction of the cost.
func Small() Config { return Sized(64, 2) }

// Tiny returns a 16-core configuration (4 clusters of 4) for unit tests.
func Tiny() Config { return Sized(16, 2) }

// DefaultFault returns a representative enabled fault profile: modest
// optical and mesh BER with degradation armed, no drift episodes, the
// retry policy at its defaults, and the watchdog on. The tests use it as
// their fault-injected machine; no command does (atacsim builds its Fault
// from its flags, and FaultScenarios builds each sweep scenario itself).
func DefaultFault() Fault {
	return Fault{
		Enabled:          true,
		OpticalBER:       1e-6,
		MeshBER:          1e-8,
		DriftPeriod:      0,
		DriftDuty:        0,
		DriftBERMult:     1,
		MaxRetries:       4,
		BackoffBase:      8,
		BackoffCap:       1024,
		DegradeThreshold: 0.05,
		DegradeWindow:    2048,
		WatchdogInterval: 200000,
		WatchdogStalls:   3,
	}
}

// WithNetwork returns a copy of c configured for the given network kind,
// adjusting receive-net and routing defaults to that architecture's
// canonical settings.
func (c Config) WithNetwork(k NetworkKind) Config {
	c.Network.Kind = k
	switch k {
	case ATAC:
		c.Network.ReceiveNet = BNet
		c.Network.Routing = ClusterRouting
	case ATACPlus:
		c.Network.ReceiveNet = StarNet
		c.Network.Routing = DistanceRouting
	case Corona:
		// The crossbar always ejects through the destination cluster's
		// receive networks; every inter-cluster packet rides the optics.
		c.Network.ReceiveNet = StarNet
		c.Network.Routing = ClusterRouting
	case HybridMesh:
		// Long unicasts ride the photonic express overlay, everything
		// else the electrical multicast mesh.
		c.Network.ReceiveNet = StarNet
		c.Network.Routing = DistanceRouting
		if c.Hybrid.Radius < 1 {
			c.Hybrid.Radius = 1
		}
	}
	return c
}
