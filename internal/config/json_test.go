package config

import (
	"path/filepath"
	"slices"
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
}

// TestEnumJSONErrors pins the decoder's text for a name outside an enum's
// table, null included.
func TestEnumJSONErrors(t *testing.T) {
	cases := map[string]string{
		`"x"`:              `config: unknown network kind "x"`,
		`null`:             `config: unknown network kind ""`,
		`"atac+"`:          `config: unknown network kind "atac+"`,
		`"NetworkKind(6)"`: `config: unknown network kind "NetworkKind(6)"`,
	}
	for in, want := range cases {
		var k NetworkKind
		if err := k.UnmarshalJSON([]byte(in)); err == nil || err.Error() != want {
			t.Errorf("UnmarshalJSON(%s) = %v, want %s", in, err, want)
		}
	}
	for field, want := range map[string]string{
		`{"Network": {"ReceiveNet": null}}`: `config: unknown receive net ""`,
		`{"Network": {"Routing": "Magic"}}`: `config: unknown routing policy "Magic"`,
		`{"Coherence": {"Kind": "MOESI"}}`:  `config: unknown coherence kind "MOESI"`,
		`{"Network": {"Flavor": "ATAC++"}}`: `config: unknown flavor "ATAC++"`,
	} {
		if _, err := FromJSON([]byte(field)); err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("FromJSON(%s) = %v, want ...%s", field, err, want)
		}
	}
}

// FuzzConfigJSON: for arbitrary bytes FromJSON never panics, and a config
// it accepts satisfies Validate, names every enum from its table, and
// round-trips through ToJSON and FromJSON unchanged.
func FuzzConfigJSON(f *testing.F) {
	for _, c := range []Config{Default(), Tiny(), Small().WithNetwork(HybridMesh), Default().WithNetwork(ATAC)} {
		data, err := c.ToJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{`{}`, `null`, `{"Network": {"Kind": null}}`, `{"Coherence": {"Kind": "DirKB"}}`,
		`{"Cores": 64, "Network": {"Kind": "Corona", "Routing": "Adaptive", "ReceiveNet": "BNet"}}`,
		`{"Network": {"Flavor": "ATAC+(Cons)"}, "Fault": {"Enabled": true, "OpticalBER": 1e-5}}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := FromJSON(data)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("FromJSON accepted a config Validate rejects: %v", err)
		}
		for _, n := range []struct {
			name  string
			names []string
		}{
			{c.Network.Kind.String(), networkKinds.names},
			{c.Network.ReceiveNet.String(), receiveNets.names},
			{c.Network.Routing.String(), routingPolicies.names},
			{c.Coherence.Kind.String(), coherenceKinds.names},
			{c.Network.Flavor.String(), flavors.names},
		} {
			if !slices.Contains(n.names, n.name) {
				t.Fatalf("accepted enum prints as %q, not a table name", n.name)
			}
		}
		out, err := c.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := FromJSON(out)
		if err != nil {
			t.Fatalf("re-parsing ToJSON output: %v\n%s", err, out)
		}
		if back != c {
			t.Fatalf("round trip changed the config:\n%+v\n%+v", c, back)
		}
	})
}
