package experiments

import (
	"reflect"
	"testing"

	"repro/internal/config"
)

func TestBuildConfigNetworks(t *testing.T) {
	cases := map[string]config.NetworkKind{
		"pure":        config.EMeshPure,
		"EMesh-Pure":  config.EMeshPure,
		"bcast":       config.EMeshBCast,
		"EMesh-BCast": config.EMeshBCast,
		"atac":        config.ATAC,
		"atac+":       config.ATACPlus,
		"ATACPlus":    config.ATACPlus,
		"":            config.ATACPlus,
	}
	for name, want := range cases {
		cfg, err := BuildConfig(Geometry{Net: name, Cores: 64, Seed: 1})
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if cfg.Network.Kind != want {
			t.Errorf("%q -> %v, want %v", name, cfg.Network.Kind, want)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%q: invalid config: %v", name, err)
		}
	}
}

func TestBuildConfigRejects(t *testing.T) {
	if _, err := BuildConfig(Geometry{Net: "hypercube", Cores: 64}); err == nil {
		t.Error("unknown network accepted")
	}
	if _, err := BuildConfig(Geometry{Coherence: "moesi", Cores: 64}); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := BuildConfig(Geometry{Cores: 63}); err == nil {
		t.Error("non-square core count accepted")
	}
}

func TestBuildConfigSmallClusters(t *testing.T) {
	cfg, err := BuildConfig(Geometry{Cores: 16, Sharers: 4, Coherence: "dirkb", FlitBits: 32, RThres: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ClusterDim != 2 {
		t.Errorf("ClusterDim = %d, want 2 at 16 cores", cfg.ClusterDim)
	}
	if cfg.Coherence.Kind != config.DirKB || cfg.Network.FlitBits != 32 || cfg.Network.RThres != 3 {
		t.Errorf("overrides not applied: %+v", cfg.Network)
	}
}

// TestBuildConfigZeroGeometry pins the documented defaults: 64 cores on
// ATAC+ with an auto-scaled distance threshold.
func TestBuildConfigZeroGeometry(t *testing.T) {
	cfg, err := BuildConfig(Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cores != 64 || cfg.Network.Kind != config.ATACPlus {
		t.Errorf("defaults: cores=%d kind=%v", cfg.Cores, cfg.Network.Kind)
	}
	if cfg.Network.RThres != 4 {
		t.Errorf("RThres = %d, want MeshDim/2 = 4 at 64 cores", cfg.Network.RThres)
	}
}

// TestOptionsConfigMatchesBuildConfig: a campaign's configs and a front
// end's Geometry resolve to the same machine, so a figure cell and an
// atacsim/atacd run of the same description share one run key.
func TestOptionsConfigMatchesBuildConfig(t *testing.T) {
	kinds := []config.NetworkKind{config.EMeshPure, config.EMeshBCast, config.ATAC,
		config.ATACPlus, config.Corona, config.HybridMesh}
	for _, kind := range kinds {
		for _, cores := range []int{16, 64, 256, 1024} {
			o := Options{Cores: cores, Scale: 1, Seed: 7, Tech: "7NM", Optics: "pessimistic"}
			want, err := BuildConfig(Geometry{Net: kind.String(), Cores: cores, Seed: 7,
				Tech: "7NM", Optics: "pessimistic"})
			if err != nil {
				t.Fatalf("%v/%d: %v", kind, cores, err)
			}
			if got := o.Config(kind); !reflect.DeepEqual(got, want) {
				t.Errorf("%v/%d: Options.Config\n%+v\nBuildConfig\n%+v", kind, cores, got, want)
			}
		}
	}
}

// TestBuildConfigScenario: the shared resolution path canonicalizes and
// validates the technology scenario, so every front end (atacsim, sweep,
// the daemon) agrees on the stored names — and therefore the run keys.
func TestBuildConfigScenario(t *testing.T) {
	cfg, err := BuildConfig(Geometry{Tech: " 7NM ", Optics: " Optimistic "})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tech != "7nm" || cfg.Optics != "optimistic" {
		t.Errorf("scenario not canonicalized: %q/%q", cfg.Tech, cfg.Optics)
	}
	cfg, err = BuildConfig(Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tech != "11nm" || cfg.Optics != "baseline" {
		t.Errorf("zero geometry scenario %q/%q, want baseline", cfg.Tech, cfg.Optics)
	}
	if _, err := BuildConfig(Geometry{Tech: "3nm"}); err == nil {
		t.Error("unknown tech scenario accepted")
	}
	if _, err := BuildConfig(Geometry{Optics: "magic"}); err == nil {
		t.Error("unknown optics scenario accepted")
	}
}

// TestParseNamesPinned pins the front ends' spellings: every table name in
// any case, the short aliases, and the error text for an unknown name.
func TestParseNamesPinned(t *testing.T) {
	nets := map[string]string{
		"": "ATAC+", "pure": "EMesh-Pure", "PURE": "EMesh-Pure", "emesh-pure": "EMesh-Pure",
		"EMesh-Pure": "EMesh-Pure", "bcast": "EMesh-BCast", "EMESH-BCAST": "EMesh-BCast",
		"atac": "ATAC", "ATAC": "ATAC", "atac+": "ATAC+", "Atac+": "ATAC+", "atacplus": "ATAC+",
		"ATACPlus": "ATAC+", "corona": "Corona", "Corona": "Corona", "crossbar": "Corona",
		"hybrid": "Hybrid", "HYBRID": "Hybrid", "morpho": "Hybrid",
		"mesh":   `unknown network "mesh"`,
		"x":      `unknown network "x"`,
		" atac":  `unknown network " atac"`,
		"ATAC++": `unknown network "ATAC++"`,
	}
	for in, want := range nets {
		k, err := ParseNetworkKind(in)
		got := k.String()
		if err != nil {
			got = err.Error()
		}
		if got != want {
			t.Errorf("ParseNetworkKind(%q) = %s, want %s", in, got, want)
		}
	}
	cohs := map[string]string{
		"": "ACKwise", "ackwise": "ACKwise", "ACKwise": "ACKwise", "ACKWISE": "ACKwise",
		"dirkb": "DirKB", "DirKB": "DirKB", "DIRKB": "DirKB",
		"dir_kb": `unknown coherence "dir_kb"`,
		"moesi":  `unknown coherence "moesi"`,
	}
	for in, want := range cohs {
		k, err := ParseCoherenceKind(in)
		got := k.String()
		if err != nil {
			got = err.Error()
		}
		if got != want {
			t.Errorf("ParseCoherenceKind(%q) = %s, want %s", in, got, want)
		}
	}
}
