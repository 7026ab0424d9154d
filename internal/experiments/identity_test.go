package experiments

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/system"
)

// energyOnly declares the config.Config leaves only the post-hoc energy and
// area models read. runConfig resets them, so runs that differ in one are one
// simulation (Figs 7, 8 and 17 re-cost a single run under several of them);
// every other leaf is part of the run identity without being listed.
var energyOnly = map[string]bool{
	"Network.Flavor":   true,
	"Core.NDDFraction": true,
	"Core.PeakPowerW":  true,
	"Caches.L1IKB":     true,
}

// configLeaves calls visit with the dotted path and settable value of
// every non-struct field of *cfg.
func configLeaves(cfg *config.Config, visit func(path string, f reflect.Value)) {
	var walk func(v reflect.Value, prefix string)
	walk = func(v reflect.Value, prefix string) {
		for i := 0; i < v.NumField(); i++ {
			f, path := v.Field(i), prefix+v.Type().Field(i).Name
			if f.Kind() == reflect.Struct {
				walk(f, path+".")
				continue
			}
			visit(path, f)
		}
	}
	walk(reflect.ValueOf(cfg).Elem(), "")
}

// mutate moves a leaf to a different value of its kind.
func mutate(t *testing.T, path string, f reflect.Value) {
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Int, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.Float64:
		f.SetFloat(f.Float()*2 + 0.25)
	case reflect.String:
		f.SetString(f.String() + "x")
	default:
		t.Fatalf("%s: no mutation for kind %v", path, f.Kind())
	}
}

// TestRunIdentityDeclared checks the run identity leaf by leaf: mutating an
// energy-only leaf of config.Config leaves RunHash unchanged and is a memo
// hit, and mutating any other leaf changes RunHash.
func TestRunIdentityDeclared(t *testing.T) {
	r := testCampaignRunner()
	base := r.Opt.Config(config.ATACPlus)
	if _, err := r.Run(base, "radix"); err != nil {
		t.Fatal(err)
	}
	h0 := r.RunHash(base, "radix")
	seen := map[string]bool{}
	var leaves []string
	configLeaves(&base, func(path string, _ reflect.Value) { leaves = append(leaves, path) })
	for _, path := range leaves {
		seen[path] = true
		cfg := base
		configLeaves(&cfg, func(p string, f reflect.Value) {
			if p == path {
				mutate(t, p, f)
			}
		})
		if changed := r.RunHash(cfg, "radix") != h0; changed == energyOnly[path] {
			t.Errorf("config.%s (energy-only %v): mutating it changes the run hash = %v", path, energyOnly[path], changed)
		}
		if energyOnly[path] {
			if _, err := r.Run(cfg, "radix"); err != nil {
				t.Fatalf("config.%s mutated: %v", path, err)
			}
		}
	}
	if n := r.FreshRuns(); n != 1 {
		t.Errorf("%d simulations for one run re-costed under every energy-only mutation, want 1", n)
	}
	for path := range energyOnly {
		if !seen[path] {
			t.Errorf("energyOnly lists config.%s, which config.Config does not have", path)
		}
	}
}

// TestRunIdentitySharedAcrossProcesses: two runners on one cache directory
// agree on which runs are one. A re-costs radix under ATAC+(RingTuned) with
// the scenario left empty; B asks for the BuildConfig machine, which is the
// same simulation, so B recalls A's entry instead of simulating.
func TestRunIdentitySharedAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	open := func() *Runner {
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := testCampaignRunner()
		r.Cache = c
		return r
	}
	cfg := testCampaignOpts().Config(config.ATACPlus)
	tuned := cfg
	tuned.Network.Flavor, tuned.Tech = config.FlavorRingTuned, ""
	a, b := open(), open()
	if _, err := a.Run(tuned, "radix"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(cfg, "radix"); err != nil {
		t.Fatal(err)
	}
	if a.FreshRuns() != 1 || b.FreshRuns() != 0 || b.CacheHits() != 1 {
		t.Errorf("A simulated %d, B simulated %d and recalled %d; want 1, 0 and 1",
			a.FreshRuns(), b.FreshRuns(), b.CacheHits())
	}
}

// TestEnergyOnlyFieldsLeaveTheRunAlone: an energy-only field may stay out
// of the run identity only because the simulation never reads it.
func TestEnergyOnlyFieldsLeaveTheRunAlone(t *testing.T) {
	base := testCampaignOpts().Config(config.ATACPlus)
	want, err := system.RunBenchmark(base, "radix", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for path := range energyOnly {
		cfg := base
		configLeaves(&cfg, func(p string, f reflect.Value) {
			if p == path {
				mutate(t, p, f)
			}
		})
		got, err := system.RunBenchmark(cfg, "radix", 1, 0)
		if err != nil {
			t.Fatalf("config.%s mutated: %v", path, err)
		}
		got.Cfg = want.Cfg // the result echoes its config
		if !reflect.DeepEqual(got, want) {
			t.Errorf("config.%s is classified energy-only but changes the simulated result", path)
		}
	}
}
