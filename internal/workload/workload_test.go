package workload_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/system"
	"repro/internal/workload"
)

// runAndValidate executes a workload on a 16-core machine with the given
// network and checks its output against the sequential reference.
func runAndValidate(t *testing.T, spec workload.Spec, kind config.NetworkKind) system.Result {
	t.Helper()
	cfg := config.Tiny().WithNetwork(kind)
	s, err := system.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(spec, 50_000_000)
	if err != nil {
		t.Fatalf("%s on %v: %v", spec.Name, kind, err)
	}
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Fatalf("%s: empty result %+v", spec.Name, res)
	}
	return res
}

// specs builds the named benchmarks, in order, through ByName.
func specs(t *testing.T, names []string, cores int, seed int64, scale int) []workload.Spec {
	t.Helper()
	out := make([]workload.Spec, len(names))
	for i, name := range names {
		spec, err := workload.ByName(name, cores, seed, scale)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = spec
	}
	return out
}

// TestCorrectnessMatrix runs every workload on all six networks under
// both coherence protocols at 16 cores (96 runs), each checked against its
// sequential reference. Every machine is resolved through
// experiments.BuildConfig, as every front end resolves its own.
func TestCorrectnessMatrix(t *testing.T) {
	networks := []config.NetworkKind{config.EMeshPure, config.EMeshBCast, config.ATAC,
		config.ATACPlus, config.Corona, config.HybridMesh}
	protocols := []config.CoherenceKind{config.ACKwise, config.DirKB}
	for _, spec := range specs(t, workload.Names(), 16, 42, 1) {
		for _, nk := range networks {
			for _, ck := range protocols {
				t.Run(spec.Name+"/"+nk.String()+"/"+ck.String(), func(t *testing.T) {
					cfg, err := experiments.BuildConfig(experiments.Geometry{
						Cores: 16, Seed: 42, Net: nk.String(), Coherence: ck.String()})
					if err != nil {
						t.Fatal(err)
					}
					s, err := system.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := s.Run(spec, 500_000_000)
					if err != nil {
						t.Fatal(err)
					}
					if res.Cycles == 0 || res.Instructions == 0 {
						t.Fatalf("empty result %+v", res)
					}
				})
			}
		}
	}
}

// TestNetworkIndependence validates every application at a second input
// seed (7; TestCorrectnessMatrix uses 42) on three fabrics: its final
// memory image must match the sequential reference whatever the network.
func TestNetworkIndependence(t *testing.T) {
	for _, spec := range specs(t, workload.Names(), 16, 7, 1) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for _, kind := range []config.NetworkKind{config.EMeshPure, config.EMeshBCast, config.ATACPlus} {
				runAndValidate(t, spec, kind)
			}
		})
	}
}

func TestDeterministicRuns(t *testing.T) {
	spec := workload.Radix(16, 42, 1)
	run := func() (uint64, uint64) {
		cfg := config.Tiny()
		s, err := system.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(spec, 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.Cycles), res.Instructions
	}
	c1, i1 := run()
	c2, i2 := run()
	if c1 != c2 || i1 != i2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", c1, i1, c2, i2)
	}
}

func TestCatalogNamesAndLookup(t *testing.T) {
	want := []string{"dynamic_graph", "radix", "barnes", "fmm",
		"ocean_contig", "lu_contig", "ocean_non_contig", "lu_non_contig"}
	cat := specs(t, workload.Names(), 16, 1, 1)
	if len(cat) != len(want) {
		t.Fatalf("catalog has %d entries", len(cat))
	}
	for i, s := range cat {
		if s.Name != want[i] {
			t.Errorf("catalog[%d] = %q, want %q", i, s.Name, want[i])
		}
		got, err := workload.ByName(s.Name, 16, 1, 1)
		if err != nil || got.Name != s.Name {
			t.Errorf("ByName(%q) failed: %v", s.Name, err)
		}
	}
	if _, err := workload.ByName("nope", 16, 1, 1); err == nil {
		t.Error("ByName accepted unknown benchmark")
	}
}

func TestBroadcastHeavyProfile(t *testing.T) {
	// Fig 5's qualitative shape: dynamic_graph, barnes and fmm have a
	// much higher broadcast fraction than lu_contig.
	frac := func(name string) float64 {
		spec, err := workload.ByName(name, 16, 42, 1)
		if err != nil {
			t.Fatal(err)
		}
		res := runAndValidate(t, spec, config.ATACPlus)
		return res.BroadcastRecvFraction()
	}
	bcastHeavy := (frac("dynamic_graph") + frac("barnes") + frac("fmm")) / 3
	if lu := frac("lu_contig"); bcastHeavy <= lu {
		t.Errorf("broadcast-heavy apps %.3f not above lu_contig %.3f", bcastHeavy, lu)
	}
}

func TestMemPrimitives(t *testing.T) {
	m := workload.NewMem(64)
	a := m.Alloc(10)
	b := m.Alloc(100)
	if a%64 != 0 || b%64 != 0 {
		t.Error("allocations not line-aligned")
	}
	if b <= a || b-a < 64 {
		t.Error("allocations overlap")
	}
	c := m.AllocWords(8)
	if c <= b {
		t.Error("bump allocator went backwards")
	}
	if z := m.Alloc(0); z == 0 {
		t.Error("zero-size alloc must still return an address")
	}
}
