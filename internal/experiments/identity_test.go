package experiments

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/system"
)

type identityClass int

const (
	// keyed fields are part of the run key: runs that differ in one are
	// distinct runs.
	keyed identityClass = iota + 1
	// energyOnly fields are read only by the post-hoc energy and area
	// models, so runs that differ in one are one simulation (Figs 7, 8 and
	// 17 re-cost a single run under several of them).
	energyOnly
	// fixed fields are set by no campaign front end apart from the keyed
	// ones: BuildConfig derives them from Cores, or nothing varies them.
	// The memo may leave them out of the key only while that holds; a
	// front end that starts varying one must key it (the persistent cache
	// already hashes the whole config, but the memo is consulted first).
	fixed
)

// runIdentity declares, for every leaf field of config.Config, whether the
// run key covers it. A field added to config.Config must be added here.
var runIdentity = map[string]identityClass{
	"Cores":                     keyed,
	"Seed":                      keyed,
	"Tech":                      keyed,
	"Optics":                    keyed,
	"Network.Kind":              keyed,
	"Network.FlitBits":          keyed,
	"Network.SelectDataLag":     keyed,
	"Network.ReceiveNet":        keyed,
	"Network.StarNetsPerCl":     keyed,
	"Network.Routing":           keyed,
	"Network.RThres":            keyed,
	"Network.BcastAsUnicast":    keyed,
	"Coherence.Kind":            keyed,
	"Coherence.Sharers":         keyed,
	"Hybrid.Radius":             keyed, // on the hybrid only
	"Fault.Enabled":             keyed, // the other keyed Fault fields only while Enabled
	"Fault.MeshBER":             keyed,
	"Fault.OpticalBER":          keyed,
	"Fault.DriftPeriod":         keyed,
	"Fault.DriftDuty":           keyed,
	"Fault.DriftBERMult":        keyed,
	"Fault.LaserDroopPerMCycle": keyed,
	"Fault.DegradeThreshold":    keyed,
	"Fault.Seed":                keyed,

	"Network.Flavor":   energyOnly,
	"Core.NDDFraction": energyOnly,
	"Core.PeakPowerW":  energyOnly,
	"Caches.L1IKB":     energyOnly,

	"ClusterDim":               fixed, // derived from Cores
	"Caches.DirSlices":         fixed, // derived from Cores
	"Memory.Controllers":       fixed, // derived from Cores
	"FreqGHz":                  fixed,
	"Caches.L1DKB":             fixed,
	"Caches.L2KB":              fixed,
	"Caches.LineBytes":         fixed,
	"Caches.L1Assoc":           fixed,
	"Caches.L2Assoc":           fixed,
	"Caches.L1HitCycles":       fixed,
	"Caches.L2HitCycles":       fixed,
	"Caches.MSHRs":             fixed,
	"Caches.DirAccCycles":      fixed,
	"Network.RouterDelay":      fixed,
	"Network.LinkDelay":        fixed,
	"Network.BufFlits":         fixed,
	"Network.ONetLinkDelay":    fixed,
	"Network.AdaptiveQueueMax": fixed,
	"Network.SeqNumBits":       fixed,
	"Memory.LatencyCycles":     fixed,
	"Memory.GBPerSec":          fixed,
	"Fault.MaxRetries":         fixed,
	"Fault.BackoffBase":        fixed,
	"Fault.BackoffCap":         fixed,
	"Fault.DegradeWindow":      fixed,
	"Fault.WatchdogInterval":   fixed,
	"Fault.WatchdogStalls":     fixed,
	"Fault.EventBudget":        fixed,
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

// TestRunIdentityDeclared checks the run key against runIdentity field by
// field: mutating a keyed field changes key(), mutating any other field
// does not, and a field the table does not classify fails. The base is a
// fault-enabled hybrid, so the conditionally keyed fields are live.
func TestRunIdentityDeclared(t *testing.T) {
	base, err := BuildConfig(Geometry{Net: "hybrid", Cores: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	base.Fault = config.DefaultFault()
	k0 := key(base, "radix")
	seen := map[string]bool{}
	var leaves []string
	configLeaves(&base, func(path string, _ reflect.Value) { leaves = append(leaves, path) })
	for _, path := range leaves {
		seen[path] = true
		class, ok := runIdentity[path]
		if !ok {
			t.Errorf("config.%s is not classified in runIdentity: is it keyed, energy-only or fixed?", path)
			continue
		}
		cfg := base
		configLeaves(&cfg, func(p string, f reflect.Value) {
			if p == path {
				mutate(t, p, f)
			}
		})
		if changed := key(cfg, "radix") != k0; changed != (class == keyed) {
			t.Errorf("config.%s (class %d): mutating it changes the run key = %v", path, class, changed)
		}
	}
	for path := range runIdentity {
		if !seen[path] {
			t.Errorf("runIdentity lists config.%s, which config.Config does not have", path)
		}
	}
}

// TestEnergyOnlyFieldsLeaveTheRunAlone: an energy-only field may stay out
// of the run key only because the simulation never reads it.
func TestEnergyOnlyFieldsLeaveTheRunAlone(t *testing.T) {
	base := testCampaignOpts().Config(config.ATACPlus)
	want, err := system.RunBenchmark(base, "radix", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for path, class := range runIdentity {
		if class != energyOnly {
			continue
		}
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
