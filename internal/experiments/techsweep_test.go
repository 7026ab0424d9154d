package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/resultstore"
	"repro/internal/system"
)

// TestRunKeyScenarioIdentity: the technology scenario is part of the run
// hash — distinct scenarios are distinct runs — while spelling variants of
// the same scenario and the empty baseline share one hash, so cache
// entries, journal records and ledger rows stay stable across front ends.
func TestRunKeyScenarioIdentity(t *testing.T) {
	r := testCampaignRunner()
	base := r.Opt.Config(config.ATACPlus)
	h0 := r.RunHash(base, "radix")
	for _, sc := range [][2]string{{"7nm", ""}, {"", "optimistic"}, {"5nm", "pessimistic"}} {
		c := base
		c.Tech, c.Optics = sc[0], sc[1]
		if r.RunHash(c, "radix") == h0 {
			t.Errorf("scenario %v hash collides with baseline", sc)
		}
	}
	for _, sc := range [][2]string{{" 11NM ", " Baseline "}, {"", ""}, {"11nm", ""}} {
		c := base
		c.Tech, c.Optics = sc[0], sc[1]
		if h := r.RunHash(c, "radix"); h != h0 {
			t.Errorf("spelling %q/%q hashes to %s, the baseline to %s", sc[0], sc[1], h, h0)
		}
	}
}

// TestParseScenarios covers the "tech[/optics]" list syntax: defaults,
// canonicalization, and rejection of unknown names.
func TestParseScenarios(t *testing.T) {
	got, err := ParseScenarios(" 11NM/Baseline , 7nm , 5nm/optimistic ")
	if err != nil {
		t.Fatal(err)
	}
	want := []TechScenario{
		{Tech: "11nm", Optics: "baseline"},
		{Tech: "7nm", Optics: "baseline"},
		{Tech: "5nm", Optics: "optimistic"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseScenarios = %+v, want %+v", got, want)
	}
	if got[1].Name() != "7nm/baseline" {
		t.Errorf("Name() = %q", got[1].Name())
	}
	if s, err := ParseScenarios(""); err != nil || s != nil {
		t.Errorf("empty list: %v, %v; want nil, nil", s, err)
	}
	for _, bad := range []string{"3nm", "11nm/magic", ","} {
		if _, err := ParseScenarios(bad); err == nil {
			t.Errorf("ParseScenarios(%q) accepted", bad)
		}
	}
}

// TestDefaultTechScenariosValid: the built-in set resolves against both
// registries, leads with the paper's baseline, and holds at least the
// four points the acceptance criteria require.
func TestDefaultTechScenariosValid(t *testing.T) {
	scens := DefaultTechScenarios()
	if len(scens) < 4 {
		t.Fatalf("only %d built-in scenarios", len(scens))
	}
	if scens[0] != (TechScenario{Tech: "11nm", Optics: "baseline"}) {
		t.Errorf("first scenario %+v is not the paper baseline", scens[0])
	}
	seen := map[string]bool{}
	for _, s := range scens {
		if _, err := newScenario(s.Tech, s.Optics); err != nil {
			t.Errorf("built-in scenario %+v invalid: %v", s, err)
		}
		if seen[s.Name()] {
			t.Errorf("duplicate scenario %s", s.Name())
		}
		seen[s.Name()] = true
	}
}

// TestFigureRunsTechsweep: the declared run-set is one ATAC+ run per
// scenario per benchmark, each with a distinct run hash.
func TestFigureRunsTechsweep(t *testing.T) {
	r := testCampaignRunner()
	specs := r.FigureRuns("techsweep")
	wantN := len(DefaultTechScenarios()) * len(r.Apps)
	if len(specs) != wantN {
		t.Fatalf("techsweep declares %d runs, want %d", len(specs), wantN)
	}
	hashes := map[string]bool{}
	for _, s := range specs {
		if s.Cfg.Network.Kind != config.ATACPlus {
			t.Errorf("techsweep run on %v, want ATAC+", s.Cfg.Network.Kind)
		}
		hashes[r.RunHash(s.Cfg, s.Bench)] = true
	}
	if len(hashes) != wantN {
		t.Errorf("%d distinct run hashes for %d runs", len(hashes), wantN)
	}
}

// TestTechSweepTable runs the figure end to end at 16 cores on one
// benchmark and checks the physics the scaling layer promises: the
// reference row is exactly 1, electrical nodes strictly lower EDP as
// they shrink, the optimistic optics row needs no ring tuning, and the
// pessimistic row burns more laser than baseline.
func TestTechSweepTable(t *testing.T) {
	r := testCampaignRunner()
	r.Apps = []string{"radix"}
	tbl, err := r.Figure("techsweep")
	if err != nil {
		t.Fatal(err)
	}
	scens := DefaultTechScenarios()
	if len(tbl.Rows) != len(scens) {
		t.Fatalf("%d rows, want %d", len(tbl.Rows), len(scens))
	}
	cell := func(row int, col string) float64 {
		t.Helper()
		for i, c := range tbl.Columns {
			if c == col {
				v, err := strconv.ParseFloat(tbl.Rows[row][i], 64)
				if err != nil {
					t.Fatalf("row %d col %s: %v", row, col, err)
				}
				return v
			}
		}
		t.Fatalf("no column %q", col)
		return 0
	}
	idx := func(name string) int {
		t.Helper()
		for i, s := range scens {
			if s.Name() == name {
				return i
			}
		}
		t.Fatalf("no scenario %q", name)
		return -1
	}
	if tbl.Rows[0][0] != "11nm/baseline" || cell(0, "uncore") != 1.0 || cell(0, "EDP") != 1.0 {
		t.Errorf("reference row not normalized to 1: %v", tbl.Rows[0])
	}
	// Electrical scaling: EDP and uncore strictly fall 11nm -> 7nm -> 5nm.
	e11, e7, e5 := cell(idx("11nm/baseline"), "EDP"), cell(idx("7nm/baseline"), "EDP"), cell(idx("5nm/baseline"), "EDP")
	if !(e5 < e7 && e7 < e11) {
		t.Errorf("EDP not ordered across nodes: 11nm %v, 7nm %v, 5nm %v", e11, e7, e5)
	}
	// Optical bracket: pessimistic burns more laser, optimistic less.
	lb, lo, lp := cell(idx("11nm/baseline"), "laser"), cell(idx("11nm/optimistic"), "laser"), cell(idx("11nm/pessimistic"), "laser")
	if !(lo < lb && lb < lp) {
		t.Errorf("laser not ordered across optical variants: opt %v, base %v, pess %v", lo, lb, lp)
	}
	// Optimistic optics are athermal: zero tuning even under RingTuned.
	if v := cell(idx("11nm/optimistic"), "ring tuning"); v != 0 {
		t.Errorf("optimistic ring tuning %v, want 0", v)
	}
	if v := cell(idx("11nm/pessimistic"), "ring tuning"); v <= cell(idx("11nm/baseline"), "ring tuning") {
		t.Errorf("pessimistic tuning %v not above baseline", v)
	}
	// The tuned-flavor EDP can never beat the athermal EDP of the same
	// scenario (tuning only adds energy).
	for i := range scens {
		if cell(i, "EDP tuned") < cell(i, "EDP") {
			t.Errorf("scenario %s: EDP tuned %v below EDP %v", scens[i].Name(), cell(i, "EDP tuned"), cell(i, "EDP"))
		}
	}
}

// TestTechSweepCustomScenarios: Options.Scenarios restricts the sweep
// (the CI smoke runs exactly two scenarios this way).
func TestTechSweepCustomScenarios(t *testing.T) {
	r := testCampaignRunner()
	r.Apps = []string{"radix"}
	scens, err := ParseScenarios("11nm/baseline,7nm/baseline")
	if err != nil {
		t.Fatal(err)
	}
	r.Opt.Scenarios = scens
	if got := len(r.FigureRuns("techsweep")); got != 2 {
		t.Fatalf("restricted techsweep declares %d runs, want 2", got)
	}
	tbl, err := r.Figure("techsweep")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 || tbl.Rows[0][0] != "11nm/baseline" || tbl.Rows[1][0] != "7nm/baseline" {
		t.Errorf("restricted sweep rows: %v", tbl.Rows)
	}
}

// TestProvenanceRecordsScenario: the manifest names the campaign default
// scenario and, for techsweep campaigns, the swept scenario set; changing
// the scenario set changes RunSetHash.
func TestProvenanceRecordsScenario(t *testing.T) {
	r := testCampaignRunner()
	p := r.Provenance([]string{"techsweep"}, time.Second)
	if p.Tech != "11nm" || p.Optics != "baseline" {
		t.Errorf("provenance scenario %s/%s, want 11nm/baseline", p.Tech, p.Optics)
	}
	var names []string
	for _, s := range DefaultTechScenarios() {
		names = append(names, s.Name())
	}
	if !reflect.DeepEqual(p.Scenarios, names) {
		t.Errorf("provenance scenarios %v, want %v", p.Scenarios, names)
	}
	r2 := testCampaignRunner()
	r2.Opt.Scenarios, _ = ParseScenarios("11nm/baseline,7nm/baseline")
	if p2 := r2.Provenance([]string{"techsweep"}, time.Second); p2.RunSetHash == p.RunSetHash {
		t.Error("restricting the scenario set did not change RunSetHash")
	}
	r3 := testCampaignRunner()
	r3.Opt.Tech, r3.Opt.Optics = "7nm", "optimistic"
	if p3 := r3.Provenance([]string{"4"}, time.Second); p3.RunSetHash == r.Provenance([]string{"4"}, time.Second).RunSetHash {
		t.Error("campaign default scenario did not change figure 4's RunSetHash")
	}
}

// TestCacheQuarantinesOldSchemas: entries stamped with the pre-scenario
// schemas 2 and 3 read as misses and are moved into quarantine/ — the
// schema-bump behavior the scenario layer relies on so pre-Tech/Optics
// results can never satisfy a scenario-keyed lookup.
func TestCacheQuarantinesOldSchemas(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	plant := func(key string, schema int) string {
		t.Helper()
		data, err := json.Marshal(resultstore.Entry{Schema: schema, Key: key,
			Result: system.Result{Cycles: 123}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		return filepath.Base(c.path(key))
	}
	f2 := plant("run-schema-2", 2)
	f3 := plant("run-schema-3", 3)
	for _, k := range []string{"run-schema-2", "run-schema-3"} {
		if _, ok := c.Get(k); ok {
			t.Errorf("stale-schema entry %q served as a hit", k)
		}
	}
	if got := c.Quarantined(); got != 2 {
		t.Errorf("Quarantined() = %d, want 2", got)
	}
	for _, f := range []string{f2, f3} {
		if _, err := os.Stat(filepath.Join(dir, quarantineDirName, f)); err != nil {
			t.Errorf("entry %s not moved to quarantine: %v", f, err)
		}
		if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
			t.Errorf("entry %s still present in the live cache", f)
		}
	}
	// A current-schema entry written through Put still round-trips.
	if err := c.Put("run-schema-4", system.Result{Cycles: 7}); err != nil {
		t.Fatal(err)
	}
	if res, ok := c.Get("run-schema-4"); !ok || res.Cycles != 7 {
		t.Errorf("current-schema entry did not round-trip: %v %v", res, ok)
	}
}
