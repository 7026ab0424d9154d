package config

import (
	"testing"
	"testing/quick"
)

func TestDefaultValid(t *testing.T) {
	for _, c := range []Config{Default(), Small(), Tiny()} {
		if err := c.Validate(); err != nil {
			t.Errorf("preset invalid: %v", err)
		}
	}
}

func TestGeometryDefault(t *testing.T) {
	c := Default()
	if got := c.MeshDim(); got != 32 {
		t.Errorf("MeshDim = %d, want 32", got)
	}
	if got := c.Clusters(); got != 64 {
		t.Errorf("Clusters = %d, want 64", got)
	}
	if got := c.ClusterCores(); got != 16 {
		t.Errorf("ClusterCores = %d, want 16", got)
	}
}

// TestMeshDimMatchesLoop: the closed form returns what the linear search
// it replaced returns, for every core count up to 5000.
func TestMeshDimMatchesLoop(t *testing.T) {
	for n := 0; n <= 5000; n++ {
		want := 1
		for want*want < n {
			want++
		}
		c := Config{Cores: n}
		if got := c.MeshDim(); got != want {
			t.Fatalf("MeshDim(%d cores) = %d, want %d", n, got, want)
		}
	}
}

func TestClusterOf(t *testing.T) {
	c := Default()
	// Core 0 is at (0,0) -> cluster 0. Core 31 is at (31,0) -> cluster 7.
	if got := c.ClusterOf(0); got != 0 {
		t.Errorf("ClusterOf(0) = %d, want 0", got)
	}
	if got := c.ClusterOf(31); got != 7 {
		t.Errorf("ClusterOf(31) = %d, want 7", got)
	}
	// Core at (0,4) = id 128 -> cluster 8 (second cluster row).
	if got := c.ClusterOf(128); got != 8 {
		t.Errorf("ClusterOf(128) = %d, want 8", got)
	}
}

func TestHubCoreInOwnCluster(t *testing.T) {
	for _, c := range []Config{Default(), Small(), Tiny()} {
		for cl := 0; cl < c.Clusters(); cl++ {
			h := c.HubCore(cl)
			if got := c.ClusterOf(h); got != cl {
				t.Fatalf("%d cores: HubCore(%d) = %d lies in cluster %d", c.Cores, cl, h, got)
			}
		}
	}
}

func TestDistance(t *testing.T) {
	c := Default()
	if d := c.Distance(0, 0); d != 0 {
		t.Errorf("Distance(0,0) = %d", d)
	}
	if d := c.Distance(0, 31); d != 31 {
		t.Errorf("Distance(0,31) = %d, want 31", d)
	}
	if d := c.Distance(0, 1023); d != 62 {
		t.Errorf("Distance(0,1023) = %d, want 62", d)
	}
	// Symmetry property.
	f := func(a, b uint16) bool {
		x, y := int(a)%c.Cores, int(b)%c.Cores
		return c.Distance(x, y) == c.Distance(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClusterPartitionProperty(t *testing.T) {
	// Every cluster must contain exactly ClusterCores cores.
	for _, c := range []Config{Default(), Small(), Tiny()} {
		counts := make([]int, c.Clusters())
		for id := 0; id < c.Cores; id++ {
			cl := c.ClusterOf(id)
			if cl < 0 || cl >= c.Clusters() {
				t.Fatalf("ClusterOf(%d) = %d out of range", id, cl)
			}
			counts[cl]++
		}
		for cl, n := range counts {
			if n != c.ClusterCores() {
				t.Fatalf("%d cores: cluster %d has %d cores, want %d", c.Cores, cl, n, c.ClusterCores())
			}
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"non-square cores", func(c *Config) { c.Cores = 1000 }},
		{"mesh wider than 255", func(c *Config) { c.Cores, c.ClusterDim = 256*256, 4 }},
		{"link delay beyond a flit's visibility stamp", func(c *Config) { c.Network.LinkDelay = maxHopDelay + 1 }},
		{"backoff cap beyond a flit's visibility stamp", func(c *Config) { c.Fault.BackoffCap = maxHopDelay + 1 }},
		{"cluster does not tile", func(c *Config) { c.ClusterDim = 5 }},
		{"zero flit", func(c *Config) { c.Network.FlitBits = 0 }},
		{"bad line size", func(c *Config) { c.Caches.LineBytes = 60 }},
		{"zero sharers", func(c *Config) { c.Coherence.Sharers = 0 }},
		{"too many dir slices", func(c *Config) { c.Caches.DirSlices = 2048 }},
		{"more dir slices than clusters", func(c *Config) { *c = Tiny(); c.Caches.DirSlices = 8 }},
		{"zero L1 associativity", func(c *Config) { c.Caches.L1Assoc = 0 }},
		{"zero L2 associativity", func(c *Config) { c.Caches.L2Assoc = 0 }},
		{"unknown network kind", func(c *Config) { c.Network.Kind = HybridMesh + 1 }},
		{"unknown receive net", func(c *Config) { c.Network.ReceiveNet = BNet + 1 }},
		{"unknown routing policy", func(c *Config) { c.Network.Routing = AdaptiveRouting + 1 }},
		{"unknown coherence kind", func(c *Config) { c.Coherence.Kind = DirKB + 1 }},
		{"unknown flavor", func(c *Config) { c.Network.Flavor = FlavorCons + 1 }},
		{"zero router delay", func(c *Config) { c.Network.RouterDelay = 0 }},
		{"zero link delay", func(c *Config) { c.Network.LinkDelay = 0 }},
		{"zero buffer depth", func(c *Config) { c.Network.BufFlits = 0 }},
		{"no receive networks", func(c *Config) { c.Network.StarNetsPerCl = 0 }},
		{"no mem controllers", func(c *Config) { c.Memory.Controllers = 0 }},
		{"negative select lag", func(c *Config) { c.Network.SelectDataLag = -1 }},
		{"negative optical link delay", func(c *Config) { c.Network.ONetLinkDelay = -1 }},
		{"negative L1 hit latency", func(c *Config) { c.Caches.L1HitCycles = -1 }},
		{"negative L2 hit latency", func(c *Config) { c.Caches.L2HitCycles = -1 }},
		{"negative memory latency", func(c *Config) { c.Memory.LatencyCycles = -1 }},
		{"distance routing without rthres", func(c *Config) { c.Network.RThres = 0 }},
		{"atac+ with one cluster", func(c *Config) {
			*c = Default().WithNetwork(ATACPlus)
			c.Cores = 16
			c.ClusterDim = 4
			c.Caches.DirSlices = 1
			c.Memory.Controllers = 1
		}},
		{"corona with one cluster", func(c *Config) {
			*c = Config{}
			*c = Default().WithNetwork(Corona)
			c.Cores = 16
			c.ClusterDim = 4
			c.Caches.DirSlices = 1
			c.Memory.Controllers = 1
		}},
		{"hybrid radius does not tile", func(c *Config) {
			*c = Default().WithNetwork(HybridMesh)
			c.Hybrid.Radius = 3 // cluster grid is 8 wide
		}},
		{"hybrid with one gateway", func(c *Config) {
			*c = Default().WithNetwork(HybridMesh)
			c.Hybrid.Radius = 8 // 8x8 cluster grid collapses to one gateway
		}},
		{"hybrid radius zero", func(c *Config) {
			*c = Default().WithNetwork(HybridMesh)
			c.Hybrid.Radius = 0
		}},
	}
	for _, tc := range cases {
		c := Default()
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", tc.name)
		}
	}
}

func TestWithNetwork(t *testing.T) {
	c := Default().WithNetwork(ATAC)
	if c.Network.ReceiveNet != BNet || c.Network.Routing != ClusterRouting {
		t.Errorf("ATAC defaults wrong: %v %v", c.Network.ReceiveNet, c.Network.Routing)
	}
	c = Default().WithNetwork(EMeshPure)
	if c.Network.Kind != EMeshPure {
		t.Errorf("kind not set")
	}
	if c.Network.Kind.IsOptical() {
		t.Errorf("EMeshPure reported optical")
	}
	c = Default().WithNetwork(Corona)
	if c.Network.Kind.IsOptical() || !c.Network.Kind.HasPhotonics() {
		t.Errorf("Corona must use photonics without being the ATAC ONet")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Corona default invalid: %v", err)
	}
	c = Default().WithNetwork(HybridMesh)
	if c.Hybrid.Radius != 1 {
		t.Errorf("hybrid default radius = %d, want 1", c.Hybrid.Radius)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Hybrid default invalid: %v", err)
	}
	if got := c.HybridGateways(); got != 64 {
		t.Errorf("1024-core radius-1 hybrid has %d gateways, want 64", got)
	}
	c.Hybrid.Radius = 4
	if got := c.HybridGateways(); got != 4 {
		t.Errorf("radius-4 hybrid has %d gateways, want 4", got)
	}
	for core := 0; core < c.Cores; core += 97 {
		g := c.GatewayOf(core)
		if g < 0 || g >= c.HybridGateways() {
			t.Fatalf("GatewayOf(%d) = %d out of range", core, g)
		}
		if back := c.GatewayOf(c.GatewayCore(g)); back != g {
			t.Fatalf("gateway %d's core maps to gateway %d", g, back)
		}
	}
}

func TestStringers(t *testing.T) {
	pairs := []struct {
		got, want string
	}{
		{EMeshPure.String(), "EMesh-Pure"},
		{EMeshBCast.String(), "EMesh-BCast"},
		{ATACPlus.String(), "ATAC+"},
		{ATAC.String(), "ATAC"},
		{Corona.String(), "Corona"},
		{HybridMesh.String(), "Hybrid"},
		{FlavorCons.String(), "ATAC+(Cons)"},
		{FlavorIdeal.String(), "ATAC+(Ideal)"},
		{FlavorRingTuned.String(), "ATAC+(RingTuned)"},
		{FlavorDefault.String(), "ATAC+"},
		{ClusterRouting.String(), "Cluster"},
		{ENetOnlyRouting.String(), "Distance-All"},
		{ACKwise.String(), "ACKwise"},
		{DirKB.String(), "DirKB"},
		{BNet.String(), "BNet"},
		{StarNet.String(), "StarNet"},
	}
	for _, p := range pairs {
		if p.got != p.want {
			t.Errorf("String() = %q, want %q", p.got, p.want)
		}
	}
}

func TestFlavorCapabilities(t *testing.T) {
	if FlavorCons.LaserGated() {
		t.Error("Cons flavor must not gate the laser")
	}
	if !FlavorDefault.LaserGated() || !FlavorIdeal.LaserGated() || !FlavorRingTuned.LaserGated() {
		t.Error("gating flavors wrong")
	}
	if FlavorRingTuned.Athermal() || FlavorCons.Athermal() {
		t.Error("tuned flavors must not be athermal")
	}
	if !FlavorDefault.Athermal() || !FlavorIdeal.Athermal() {
		t.Error("athermal flavors wrong")
	}
}

func TestAdaptiveRoutingConfig(t *testing.T) {
	c := Default()
	c.Network.Routing = AdaptiveRouting
	if err := c.Validate(); err != nil {
		t.Fatalf("adaptive config rejected: %v", err)
	}
	if AdaptiveRouting.String() != "Adaptive" {
		t.Errorf("String() = %q", AdaptiveRouting.String())
	}
	c.Network.RThres = 0
	if err := c.Validate(); err == nil {
		t.Error("adaptive routing without RThres accepted")
	}
	if c.Network.AdaptiveQueueMax != 8 {
		t.Errorf("default AdaptiveQueueMax = %d, want 8", c.Network.AdaptiveQueueMax)
	}
}
