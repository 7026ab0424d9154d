package config

import (
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestJSONRoundTrip(t *testing.T) {
	orig := Default()
	orig.Cores = 256
	orig.Caches.DirSlices = 16
	orig.Memory.Controllers = 16
	orig.Network.Routing = AdaptiveRouting
	orig.Coherence.Kind = DirKB
	orig.Network.Flavor = FlavorRingTuned

	data, err := orig.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"ATAC+"`, `"Adaptive"`, `"DirKB"`, `"ATAC+(RingTuned)"`, `"StarNet"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON missing %s:\n%s", want, data)
		}
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back != orig {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", back, orig)
	}
}

func TestFromJSONPartial(t *testing.T) {
	// Omitted fields keep Default() values.
	c, err := FromJSON([]byte(`{"Cores": 64, "ClusterDim": 2,
		"Caches": {"L1IKB":32,"L1DKB":32,"L2KB":256,"LineBytes":64,"L1Assoc":4,"L2Assoc":8,
		"L1HitCycles":1,"L2HitCycles":8,"DirSlices":16},
		"Memory": {"Controllers":16,"LatencyCycles":100,"GBPerSec":5},
		"Network": {"Kind":"EMesh-BCast","FlitBits":64,"RouterDelay":1,"LinkDelay":1,"BufFlits":4,
		"ONetLinkDelay":3,"SelectDataLag":1,"ReceiveNet":"StarNet","StarNetsPerCl":2,
		"Routing":"Distance","RThres":4,"Flavor":"ATAC+","AdaptiveQueueMax":8}}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cores != 64 || c.Network.Kind != EMeshBCast {
		t.Fatalf("parsed %+v", c)
	}
	if c.Seed != 42 { // untouched default
		t.Errorf("Seed = %v", c.Seed)
	}
}

func TestFromJSONRejects(t *testing.T) {
	cases := []string{
		`{"Network": {"Kind": "Hypercube"}}`,
		`{"Network": {"Routing": "Magic"}}`,
		`{"Coherence": {"Kind": "MOESI"}}`,
		`{"Network": {"Flavor": "ATAC++"}}`,
		`{"Network": {"ReceiveNet": "Bus"}}`,
		`{"Cores": 1000}`, // not a perfect square: fails Validate
		`not json`,
	}
	for _, c := range cases {
		if _, err := FromJSON([]byte(c)); err == nil {
			t.Errorf("accepted %s", c)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	orig := Small()
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back != orig {
		t.Fatal("file round trip mismatch")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// Property: Validate never panics and ToJSON round-trips for arbitrary
// (possibly invalid) configurations.
func TestValidateNeverPanics(t *testing.T) {
	f := func(cores uint16, cd, flit, sharers uint8, kind, routing uint8) bool {
		c := Default()
		c.Cores = int(cores)
		c.ClusterDim = int(cd%8) + 1
		c.Network.FlitBits = int(flit)
		c.Coherence.Sharers = int(sharers)
		c.Network.Kind = NetworkKind(kind % 7) // all six kinds plus one invalid value
		c.Network.Routing = RoutingPolicy(routing % 5)
		_ = c.Validate() // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every valid preset survives a JSON round trip bit-exactly.
func TestJSONRoundTripProperty(t *testing.T) {
	hybridR2 := Small().WithNetwork(HybridMesh)
	hybridR2.Hybrid.Radius = 2
	for _, c := range []Config{Default(), Small(), Tiny(),
		Default().WithNetwork(EMeshPure), Default().WithNetwork(ATAC),
		Default().WithNetwork(Corona), Default().WithNetwork(HybridMesh),
		hybridR2} {
		data, err := c.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := FromJSON(data)
		if err != nil {
			t.Fatal(err)
		}
		if back != c {
			t.Fatalf("round trip mismatch for %v", c.Network.Kind)
		}
	}
}

func TestFaultJSONRoundTrip(t *testing.T) {
	orig := Small()
	orig.Fault = DefaultFault()
	orig.Fault.DriftPeriod = 100000
	orig.Fault.DriftDuty = 10000
	orig.Fault.DriftBERMult = 100
	orig.Fault.LaserDroopPerMCycle = 0.05
	orig.Fault.EventBudget = 1 << 30

	data, err := orig.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back != orig {
		t.Fatalf("fault round trip mismatch:\n%+v\n%+v", back.Fault, orig.Fault)
	}
}

func TestFaultValidate(t *testing.T) {
	bad := []func(*Fault){
		func(f *Fault) { f.MeshBER = -1 },
		func(f *Fault) { f.OpticalBER = 1.5 },
		func(f *Fault) { f.DriftPeriod = 10; f.DriftDuty = 20 },
		func(f *Fault) { f.DriftBERMult = -2 },
		func(f *Fault) { f.MaxRetries = -1 },
		func(f *Fault) { f.DegradeThreshold = 2 },
		func(f *Fault) { f.WatchdogInterval = -5 },
	}
	for i, mut := range bad {
		c := Tiny()
		mut(&c.Fault)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid fault config accepted", i)
		}
	}
	// A disabled section with legal fields (and the enabled default)
	// must both validate.
	c := Tiny()
	if err := c.Validate(); err != nil {
		t.Errorf("zero fault section rejected: %v", err)
	}
	c.Fault = DefaultFault()
	if err := c.Validate(); err != nil {
		t.Errorf("default fault profile rejected: %v", err)
	}
	if !c.Fault.Active() {
		t.Error("DefaultFault must be active")
	}
	var z Fault
	if z.Active() {
		t.Error("zero Fault must be inactive")
	}
}
