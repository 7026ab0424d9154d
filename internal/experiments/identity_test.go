package experiments

import (
	"cmp"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/system"
)

// energyOnly declares the config.Config leaves only the post-hoc energy and
// area models read. runConfig resets them, so runs that differ in one are one
// simulation (Figs 7, 8 and 17 and the techsweep re-cost a single run under
// several of them); every other leaf is part of the run identity without
// being listed.
var energyOnly = map[string]bool{
	"Network.Flavor":   true,
	"Core.NDDFraction": true,
	"Core.PeakPowerW":  true,
	"Caches.L1IKB":     true,
	"Tech":             true,
	"Optics":           true,
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
	case reflect.String: // Tech and Optics name registry entries: pick another
		f.SetString(cmp.Or(map[string]string{"Tech": "7nm", "Optics": "pessimistic"}[path], f.String()+"x"))
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

// keyedRow is how TestEveryKeyedFieldMoves exercises one keyed leaf: a
// fixture whose simulation reads it, a valid perturbation, and — for a leaf
// that decides whether a run fails rather than what it computes — why the
// Result may stay put.
type keyedRow struct {
	fixture string
	perturb func(*config.Config)
	reason  string
}

// keyedFixtures are the Tiny machines the rows perturb: ATAC+ at 16 cores,
// plus the variants a leaf needs before the simulator reads it.
var keyedFixtures = map[string]func(*config.Config){
	"atac+": func(*config.Config) {},
	// Radix at 16 cores fits the default caches; 1 KB 2-way caches miss.
	"small-cache": func(c *config.Config) {
		c.Caches.L1DKB, c.Caches.L2KB, c.Caches.L1Assoc, c.Caches.L2Assoc = 1, 2, 2, 2
	},
	"adaptive": func(c *config.Config) { c.Network.Routing = config.AdaptiveRouting },
	// A 4x4 cluster grid admits gateway radii 1 and 2.
	"hybrid": func(c *config.Config) {
		*c = c.WithNetwork(config.HybridMesh)
		c.ClusterDim, c.Hybrid.Radius = 1, 1
	},
	"faulty": func(c *config.Config) {
		c.Fault = config.DefaultFault()
		c.Fault.OpticalBER, c.Fault.MeshBER = 1e-4, 1e-5
		c.Fault.DriftPeriod, c.Fault.DriftDuty, c.Fault.DriftBERMult = 2000, 500, 10
		c.Fault.DegradeThreshold, c.Fault.DegradeWindow = 0.01, 256
	},
}

// keyedRows has one row per keyed leaf of config.Config.
var keyedRows = map[string]keyedRow{
	"Cores":      {"atac+", func(c *config.Config) { c.Cores = 64 }, ""},
	"ClusterDim": {"atac+", func(c *config.Config) { c.ClusterDim = 1 }, ""},

	"Caches.L1DKB":       {"small-cache", func(c *config.Config) { c.Caches.L1DKB = 2 }, ""},
	"Caches.L2KB":        {"small-cache", func(c *config.Config) { c.Caches.L2KB = 4 }, ""},
	"Caches.LineBytes":   {"atac+", func(c *config.Config) { c.Caches.LineBytes = 32 }, ""},
	"Caches.L1Assoc":     {"small-cache", func(c *config.Config) { c.Caches.L1Assoc = 1 }, ""},
	"Caches.L2Assoc":     {"small-cache", func(c *config.Config) { c.Caches.L2Assoc = 1 }, ""},
	"Caches.L1HitCycles": {"atac+", func(c *config.Config) { c.Caches.L1HitCycles = 2 }, ""},
	"Caches.L2HitCycles": {"atac+", func(c *config.Config) { c.Caches.L2HitCycles = 16 }, ""},
	"Caches.DirSlices":   {"atac+", func(c *config.Config) { c.Caches.DirSlices = 2 }, ""},

	"Network.Kind":             {"atac+", func(c *config.Config) { *c = c.WithNetwork(config.EMeshBCast) }, ""},
	"Network.FlitBits":         {"atac+", func(c *config.Config) { c.Network.FlitBits = 32 }, ""},
	"Network.RouterDelay":      {"atac+", func(c *config.Config) { c.Network.RouterDelay = 2 }, ""},
	"Network.LinkDelay":        {"atac+", func(c *config.Config) { c.Network.LinkDelay = 2 }, ""},
	"Network.BufFlits":         {"atac+", func(c *config.Config) { c.Network.BufFlits = 1 }, ""},
	"Network.ONetLinkDelay":    {"atac+", func(c *config.Config) { c.Network.ONetLinkDelay = 6 }, ""},
	"Network.SelectDataLag":    {"atac+", func(c *config.Config) { c.Network.SelectDataLag = 3 }, ""},
	"Network.ReceiveNet":       {"atac+", func(c *config.Config) { c.Network.ReceiveNet = config.BNet }, ""},
	"Network.StarNetsPerCl":    {"atac+", func(c *config.Config) { c.Network.StarNetsPerCl = 1 }, ""},
	"Network.Routing":          {"atac+", func(c *config.Config) { c.Network.Routing = config.ClusterRouting }, ""},
	"Network.RThres":           {"atac+", func(c *config.Config) { c.Network.RThres = 4 }, ""},
	"Network.AdaptiveQueueMax": {"adaptive", func(c *config.Config) { c.Network.AdaptiveQueueMax = 1 }, ""},
	"Network.BcastAsUnicast":   {"atac+", func(c *config.Config) { c.Network.BcastAsUnicast = true }, ""},

	"Memory.Controllers":   {"atac+", func(c *config.Config) { c.Memory.Controllers = 2 }, ""},
	"Memory.LatencyCycles": {"atac+", func(c *config.Config) { c.Memory.LatencyCycles = 200 }, ""},
	"Memory.GBPerSec":      {"atac+", func(c *config.Config) { c.Memory.GBPerSec = 0.5 }, ""},
	"Coherence.Kind":       {"atac+", func(c *config.Config) { c.Coherence.Kind = config.DirKB }, ""},
	"Coherence.Sharers":    {"small-cache", func(c *config.Config) { c.Coherence.Sharers = 1 }, ""},
	"Hybrid.Radius":        {"hybrid", func(c *config.Config) { c.Hybrid.Radius = 2 }, ""},

	"Fault.Enabled":             {"faulty", func(c *config.Config) { c.Fault.Enabled = false }, ""},
	"Fault.MeshBER":             {"faulty", func(c *config.Config) { c.Fault.MeshBER = 1e-4 }, ""},
	"Fault.OpticalBER":          {"faulty", func(c *config.Config) { c.Fault.OpticalBER = 1e-3 }, ""},
	"Fault.DriftPeriod":         {"faulty", func(c *config.Config) { c.Fault.DriftPeriod = 4000 }, ""},
	"Fault.DriftDuty":           {"faulty", func(c *config.Config) { c.Fault.DriftDuty = 1500 }, ""},
	"Fault.DriftBERMult":        {"faulty", func(c *config.Config) { c.Fault.DriftBERMult = 100 }, ""},
	"Fault.LaserDroopPerMCycle": {"faulty", func(c *config.Config) { c.Fault.LaserDroopPerMCycle = 100 }, ""},
	"Fault.MaxRetries":          {"faulty", func(c *config.Config) { c.Fault.MaxRetries = 1 }, ""},
	"Fault.BackoffBase":         {"faulty", func(c *config.Config) { c.Fault.BackoffBase = 32 }, ""},
	"Fault.BackoffCap":          {"faulty", func(c *config.Config) { c.Fault.BackoffCap = 8 }, ""},
	"Fault.DegradeThreshold":    {"faulty", func(c *config.Config) { c.Fault.DegradeThreshold = 0.5 }, ""},
	"Fault.DegradeWindow":       {"faulty", func(c *config.Config) { c.Fault.DegradeWindow = 64 }, ""},
	"Fault.Seed":                {"faulty", func(c *config.Config) { c.Fault.Seed = 7 }, ""},
	"Fault.WatchdogInterval": {"faulty", func(c *config.Config) { c.Fault.WatchdogInterval = 1000 },
		"the watchdog decides whether a run fails, not what it computes"},
	"Fault.WatchdogStalls": {"faulty", func(c *config.Config) { c.Fault.WatchdogStalls = 10 },
		"the watchdog decides whether a run fails, not what it computes"},
	"Fault.EventBudget": {"faulty", func(c *config.Config) { c.Fault.EventBudget = 1 << 40 },
		"the event budget decides whether a run fails, not what it computes"},

	"Seed": {"atac+", func(c *config.Config) { c.Seed = 43 }, ""},
}

// TestEveryKeyedFieldMoves checks the run identity against the simulator:
// every config leaf that is part of the identity (every leaf not declared
// energy-only) must change the radix Result when perturbed on a fixture that
// reads it, or carry a one-line reason why it may not. A keyed leaf that
// moves nothing costs a cache entry, a journal row and an atacd job per
// value for one byte-identical simulation.
func TestEveryKeyedFieldMoves(t *testing.T) {
	base := map[string]func() (system.Result, error){}
	for name, fix := range keyedFixtures {
		cfg := config.Tiny()
		fix(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fixture %s: %v", name, err)
		}
		base[name] = sync.OnceValues(func() (system.Result, error) { return system.RunBenchmark(cfg, "radix", 1, 0) })
	}
	var probe config.Config
	keyed := map[string]bool{}
	configLeaves(&probe, func(path string, _ reflect.Value) { keyed[path] = !energyOnly[path] })
	for path := range keyedRows {
		if !keyed[path] {
			t.Errorf("row for config.%s, which is not a keyed leaf", path)
		}
	}
	for path, isKeyed := range keyed {
		if !isKeyed {
			continue
		}
		row, ok := keyedRows[path]
		if !ok {
			t.Errorf("config.%s is part of the run identity but has no row", path)
			continue
		}
		t.Run(path, func(t *testing.T) {
			t.Parallel()
			cfg := config.Tiny()
			keyedFixtures[row.fixture](&cfg)
			before := leafValue(&cfg, path)
			row.perturb(&cfg)
			if leafValue(&cfg, path) == before {
				t.Fatalf("the perturbation leaves config.%s at %v", path, before)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("perturbed config is invalid: %v", err)
			}
			if row.reason != "" {
				return
			}
			want, err := base[row.fixture]()
			if err != nil {
				t.Fatal(err)
			}
			got, err := system.RunBenchmark(cfg, "radix", 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			got.Cfg = want.Cfg // the result echoes its config
			if reflect.DeepEqual(got, want) {
				t.Errorf("config.%s is part of the run identity, but perturbing it on %s leaves the Result unchanged", path, row.fixture)
			}
		})
	}
}

// leafValue returns the value of the leaf at path.
func leafValue(cfg *config.Config, path string) any {
	var v any
	configLeaves(cfg, func(p string, f reflect.Value) {
		if p == path {
			v = f.Interface()
		}
	})
	return v
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

// TestOutOfRangeEnumMissesCache: a config enum outside its name table is
// not a spelling of a valid value. A CoherenceKind(2) run once marshaled
// as "ACKwise" and recalled ACKwise's cache entry for a run that simulates
// as DirKB; it must reach Validate's error instead.
func TestOutOfRangeEnumMissesCache(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	warm := testCampaignRunner()
	warm.Cache = c
	cfg := testCampaignOpts().Config(config.ATACPlus)
	if _, err := warm.Run(cfg, "radix"); err != nil {
		t.Fatal(err)
	}
	cfg.Coherence.Kind = config.CoherenceKind(2)
	want := cfg.Validate()
	if want == nil {
		t.Fatal("Validate accepts CoherenceKind(2)")
	}
	r := testCampaignRunner()
	r.Cache = c
	_, err = r.Run(cfg, "radix")
	if err == nil || !strings.Contains(err.Error(), want.Error()) {
		t.Errorf("Run(CoherenceKind(2)) = %v, want Validate's error %q", err, want)
	}
	if r.CacheHits() != 0 {
		t.Errorf("%d cache hits for an out-of-range coherence kind", r.CacheHits())
	}
}
