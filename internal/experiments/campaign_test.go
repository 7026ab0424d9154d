package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/system"
)

// testCampaignOpts is a deliberately small campaign (16 cores, two
// benchmarks) so the engine tests re-simulate quickly.
func testCampaignOpts() Options { return Options{Cores: 16, Scale: 1, Seed: 42} }

func testCampaignRunner() *Runner {
	r := NewRunner(testCampaignOpts())
	r.Apps = []string{"dynamic_graph", "radix"}
	return r
}

// TestParallelMatchesSerial is the determinism regression test: a campaign
// run through the worker pool at Jobs=8 must produce bit-identical results
// and tables to the serial (Jobs=1) path. Run under -race (make check), this
// also exercises the engine for data races.
func TestParallelMatchesSerial(t *testing.T) {
	serial := testCampaignRunner()
	serial.Jobs = 1
	parallel := testCampaignRunner()
	parallel.Jobs = 8

	type figs struct {
		fig4, fig8 string
		avgB, avgP float64
	}
	render := func(r *Runner) figs {
		t4, err := r.Figure("4")
		if err != nil {
			t.Fatal(err)
		}
		t8, avgB, avgP, err := fig8Of(r)
		if err != nil {
			t.Fatal(err)
		}
		return figs{t4.String(), t8.String(), avgB, avgP}
	}

	fs := render(serial)
	fp := render(parallel)
	if fs != fp {
		t.Errorf("parallel figures differ from serial:\nserial Fig4:\n%s\nparallel Fig4:\n%s\nserial Fig8:\n%s\nparallel Fig8:\n%s",
			fs.fig4, fp.fig4, fs.fig8, fp.fig8)
	}

	// Every run the two figures declare is read back through Run: each read
	// must be a memo hit (FreshRuns holds still), and each runner must have
	// simulated exactly the declared set.
	specs := serial.CampaignRuns([]string{"4", "8"})
	if len(specs) == 0 {
		t.Fatal("figures 4 and 8 declare no runs")
	}
	for _, r := range []*Runner{serial, parallel} {
		if got := r.FreshRuns(); got != uint64(len(specs)) {
			t.Fatalf("Jobs=%d simulated %d runs, want the %d declared", r.Jobs, got, len(specs))
		}
	}
	for _, s := range specs {
		v, err := serial.Run(s.Cfg, s.Bench)
		if err != nil {
			t.Fatal(err)
		}
		pv, err := parallel.Run(s.Cfg, s.Bench)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v, pv) {
			t.Errorf("run %s@%s: parallel result differs from serial\nserial:   %+v\nparallel: %+v", s.Bench, ConfigLabel(s.Cfg), v, pv)
		}
	}
	for _, r := range []*Runner{serial, parallel} {
		if got := r.FreshRuns(); got != uint64(len(specs)) {
			t.Errorf("Jobs=%d: reading the declared runs simulated again (%d fresh runs, want %d)", r.Jobs, got, len(specs))
		}
	}
}

// TestShardedCampaignMatchesSerial pins the sharded PDES engine at
// campaign scale: every Fig 4 run, built on two shards from the same run
// config a Runner keys it under, produces a Result bit-identical to the
// serial Runner's memoized one.
func TestShardedCampaignMatchesSerial(t *testing.T) {
	serial := testCampaignRunner()
	specs := serial.FigureRuns("4")
	serial.Prefetch(specs)
	fresh := serial.FreshRuns()
	if fresh == 0 {
		t.Fatal("serial campaign simulated no runs")
	}
	for _, s := range specs {
		cfg := runConfig(s.Cfg)
		want, err := serial.Run(s.Cfg, s.Bench)
		if err != nil {
			t.Errorf("run %s@%s: %v", s.Bench, ConfigLabel(cfg), err)
			continue
		}
		sys, err := system.NewSharded(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if sys.Shards != 2 {
			t.Fatalf("run %s@%s built on %d shards, want 2", s.Bench, ConfigLabel(cfg), sys.Shards)
		}
		spec, err := system.WorkloadFor(cfg, s.Bench, serial.Opt.Scale)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sys.Run(spec, 0)
		if err != nil {
			t.Fatalf("run %s@%s on 2 shards: %v", s.Bench, ConfigLabel(cfg), err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("run %s@%s: sharded result differs from serial\nserial:  %+v\nsharded: %+v", s.Bench, ConfigLabel(cfg), want, got)
		}
	}
	if got := serial.FreshRuns(); got != fresh {
		t.Errorf("reading the prefetched runs simulated again: %d fresh runs, want %d", got, fresh)
	}
}

// TestSingleflight checks that concurrent requests for the same run share
// one simulation.
func TestSingleflight(t *testing.T) {
	r := testCampaignRunner()
	cfg := r.Opt.Config(config.ATACPlus)
	var wg sync.WaitGroup
	results := make([]system.Result, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.Run(cfg, "radix")
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if got := r.FreshRuns(); got != 1 {
		t.Errorf("8 concurrent identical runs executed %d simulations, want 1", got)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("caller %d saw a different result", i)
		}
	}
}

// TestFigureRunsCoverFigures checks every entry of the figure table: it
// renders, and its run-set declaration is exact — after the declared runs
// are executed, rendering must not need any further simulation, and the
// declaration must not include runs the figure never uses. Only the
// model-only entry (Fig 10) may declare none.
func TestFigureRunsCoverFigures(t *testing.T) {
	for _, id := range FigureIDs() {
		t.Run(id, func(t *testing.T) {
			r := testCampaignRunner()
			r.Apps = []string{"radix"}
			declared := uint64(len(r.FigureRuns(id)))
			if modelOnly := id == "10"; modelOnly != (declared == 0) {
				t.Fatalf("FigureRuns(%q) declares %d runs, model-only %v", id, declared, modelOnly)
			}
			tbl, err := r.Figure(id)
			if err != nil {
				t.Fatal(err)
			}
			if tbl.Title == "" || len(tbl.Rows) == 0 || tbl.Degraded {
				t.Errorf("figure %s rendered %+v", id, tbl)
			}
			if got := r.FreshRuns(); got != declared {
				t.Errorf("figure %s executed %d simulations, declared %d", id, got, declared)
			}
		})
	}
}

// TestFigureTable lints the table's ids: unique, and an id outside the
// table is an error naming the valid ones, with no runs behind it.
func TestFigureTable(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range FigureIDs() {
		if seen[id] {
			t.Errorf("id %q appears twice", id)
		}
		seen[id] = true
	}
	r := testCampaignRunner()
	if _, err := r.Figure("18"); err == nil || !strings.Contains(err.Error(), "tablev") {
		t.Errorf("Figure(\"18\") = %v, want an error listing the valid ids", err)
	}
	if runs := r.FigureRuns("18"); runs != nil {
		t.Errorf("FigureRuns(\"18\") = %d runs, want none", len(runs))
	}
}

// TestPersistentCacheRoundTrip checks the cache end to end through the
// Runner: a second campaign over a warm cache must run zero fresh
// simulations and reproduce the serial tables exactly.
func TestPersistentCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cold := testCampaignRunner()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold.Cache = c
	t4cold, err := cold.Figure("4")
	if err != nil {
		t.Fatal(err)
	}
	if cold.FreshRuns() == 0 || cold.CacheHits() != 0 {
		t.Fatalf("cold campaign: fresh=%d cacheHits=%d", cold.FreshRuns(), cold.CacheHits())
	}
	if c.Len() == 0 {
		t.Fatal("cold campaign persisted no entries")
	}

	warm := testCampaignRunner()
	warm.Cache = c
	t4warm, err := warm.Figure("4")
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.FreshRuns(); got != 0 {
		t.Errorf("warm campaign executed %d fresh simulations, want 0", got)
	}
	if warm.CacheHits() == 0 {
		t.Error("warm campaign recorded no cache hits")
	}
	if t4cold.String() != t4warm.String() {
		t.Errorf("warm-cache table differs:\ncold:\n%s\nwarm:\n%s", t4cold, t4warm)
	}

	// A different campaign scale must never hit the same entries: the
	// run hash covers scale and horizon.
	scaled := testCampaignRunner()
	scaled.Opt.Scale = 2
	scaled.Cache = c
	if _, err := scaled.Run(scaled.Opt.Config(config.ATACPlus), "radix"); err != nil {
		t.Fatal(err)
	}
	if got := scaled.FreshRuns(); got != 1 {
		t.Errorf("scale-2 run hit the scale-1 cache (fresh=%d, want 1)", got)
	}

	// Invalidation empties the directory; the next campaign is cold again.
	if err := c.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("cache holds %d entries after Invalidate", got)
	}
}

// TestCacheRejectsBadEntries checks that schema mismatches, key collisions,
// and corrupt files all read as misses, never as wrong results.
func TestCacheRejectsBadEntries(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := system.Result{Benchmark: "radix", Cycles: 123}
	if err := c.Put("k1", res); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("k1")
	if !ok || got.Cycles != 123 || got.Benchmark != "radix" {
		t.Fatalf("round trip failed: ok=%v res=%+v", ok, got)
	}
	if _, ok := c.Get("k2"); ok {
		t.Error("miss reported as hit")
	}

	// Corrupt the entry on disk: must become a miss, not an error or a
	// wrong result.
	if err := os.WriteFile(c.path("k1"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k1"); ok {
		t.Error("corrupt entry reported as hit")
	}

	// An entry whose embedded key disagrees with its filename (hash
	// collision, or files moved between cache dirs) is a miss.
	if err := c.Put("other", res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.path("other"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path("k3"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k3"); ok {
		t.Error("key-mismatched entry reported as hit")
	}
}

// TestCacheKeyCoversConfig: a field the simulator reads is part of the
// run hash even where no figure varies it (BufFlits), so is the campaign's
// scale, and the technology scenario, which only the energy models read,
// is not.
func TestCacheKeyCoversConfig(t *testing.T) {
	r := NewRunner(testCampaignOpts())
	base := r.Opt.Config(config.ATACPlus)
	h := r.RunHash(base, "radix")

	mutated := base
	mutated.Network.BufFlits++
	if r.RunHash(mutated, "radix") == h {
		t.Error("BufFlits change did not change the run hash")
	}
	for _, opt := range []func(*Options){
		func(o *Options) { o.Scale = 2 },
	} {
		r2 := NewRunner(testCampaignOpts())
		opt(&r2.Opt)
		if r2.RunHash(base, "radix") == h {
			t.Errorf("campaign options %+v did not change the run hash", r2.Opt)
		}
	}
	for _, sc := range [][2]string{{"", ""}, {" 11NM ", " Baseline "}, {"5nm", "optimistic"}} {
		spelled := base
		spelled.Tech, spelled.Optics = sc[0], sc[1]
		if r.RunHash(spelled, "radix") != h {
			t.Errorf("tech %q optics %q hash apart from the baseline", sc[0], sc[1])
		}
	}
}

// TestDefaultCacheDirEnv checks where Flags.AttachCache puts the cache:
// -cache-dir, else REPRO_CACHE, else the user cache directory; NewRunner
// reads no environment. A default directory that cannot be opened is a
// warning, a named one an error.
func TestDefaultCacheDirEnv(t *testing.T) {
	tmp := t.TempDir()
	flagDir, envDir, userDir := filepath.Join(tmp, "flag"), filepath.Join(tmp, "env"), filepath.Join(tmp, "user")
	var logged []string
	dirOf := func(f Flags) (string, error) {
		f.Runner = NewRunner(testCampaignOpts())
		closeCache, err := f.AttachCache(false, func(format string, args ...any) {
			logged = append(logged, fmt.Sprintf(format, args...))
		})
		defer closeCache()
		if f.Runner.Cache == nil {
			return "", err
		}
		return f.Runner.Cache.Dir(), err
	}
	t.Setenv("XDG_CACHE_HOME", userDir)
	t.Setenv("REPRO_CACHE", envDir)
	if got, err := dirOf(Flags{CacheDir: flagDir}); got != flagDir || err != nil {
		t.Errorf("-cache-dir with REPRO_CACHE set: cache %q, %v; want %q", got, err, flagDir)
	}
	if got, err := dirOf(Flags{}); got != envDir || err != nil {
		t.Errorf("REPRO_CACHE: cache %q, %v; want %q", got, err, envDir)
	}
	if r := NewRunner(testCampaignOpts()); r.Cache != nil {
		t.Errorf("NewRunner attached %s from the environment", r.Cache.Dir())
	}
	t.Setenv("REPRO_CACHE", "")
	if got, err := dirOf(Flags{}); got != filepath.Join(userDir, "repro-campaign") || err != nil {
		t.Errorf("default: cache %q, %v; want the user cache directory", got, err)
	}

	file := filepath.Join(tmp, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("XDG_CACHE_HOME", file)
	logged = nil
	if got, err := dirOf(Flags{}); got != "" || err != nil || len(logged) != 1 ||
		!strings.Contains(logged[0], "continuing without cache") {
		t.Errorf("unopenable default: cache %q, %v, logged %q; want none, nil and one warning", got, err, logged)
	}
	t.Setenv("REPRO_CACHE", filepath.Join(file, "sub"))
	if got, err := dirOf(Flags{}); got != "" || err == nil {
		t.Errorf("unopenable REPRO_CACHE: cache %q, %v; want none and an error", got, err)
	}
}

// TestCacheQuarantine checks that untrustworthy entries — truncated,
// bit-flipped, or schema-stale — are renamed into quarantine/ with a
// logged reason instead of being silently re-read as misses forever.
func TestCacheQuarantine(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var logged []string
	c.Log = func(s string) { logged = append(logged, s) }
	res := system.Result{Benchmark: "radix", Cycles: 123}

	// A truncated entry (torn write from a pre-atomic writer or disk
	// trouble).
	if err := c.Put("trunc", res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.path("trunc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path("trunc"), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// A bit-flipped entry that is still valid JSON per se but fails to
	// parse as the entry shape (flip a structural byte), plus one that
	// parses but carries a flipped schema stamp.
	if err := c.Put("flip", res); err != nil {
		t.Fatal(err)
	}
	flipped, err := os.ReadFile(c.path("flip"))
	if err != nil {
		t.Fatal(err)
	}
	flipped[0] ^= 0xff // '{' becomes garbage: unparsable
	if err := os.WriteFile(c.path("flip"), flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := c.Get("trunc"); ok {
		t.Error("truncated entry reported as hit")
	}
	if _, ok := c.Get("flip"); ok {
		t.Error("bit-flipped entry reported as hit")
	}
	if got := c.Quarantined(); got != 2 {
		t.Fatalf("quarantined %d entries, want 2 (log: %v)", got, logged)
	}
	if len(logged) != 2 {
		t.Fatalf("logged %d reasons, want 2: %v", len(logged), logged)
	}
	for _, l := range logged {
		if !strings.Contains(l, "quarantine") {
			t.Errorf("log line lacks destination: %q", l)
		}
	}

	// The bad bytes moved into quarantine/ under their original names,
	// and the main directory no longer holds them.
	qdir := filepath.Join(c.Dir(), quarantineDirName)
	entries, err := os.ReadDir(qdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("quarantine holds %d files, want 2", len(entries))
	}
	if _, err := os.Stat(c.path("trunc")); !os.IsNotExist(err) {
		t.Error("truncated entry still in the main cache directory")
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("cache Len() = %d after quarantine, want 0", got)
	}

	// A fresh Put over a quarantined key works and reads back cleanly.
	if err := c.Put("trunc", res); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get("trunc"); !ok || got.Cycles != 123 {
		t.Fatalf("re-put after quarantine: ok=%v res=%+v", ok, got)
	}
}

// TestCacheQuarantineSchemaStale checks the schema-stamp path specifically.
func TestCacheQuarantineSchemaStale(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stale := fmt.Sprintf(`{"schema":%d,"key":"old","result":{}}`, cacheSchemaVersion+1)
	if err := os.WriteFile(c.path("old"), []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("old"); ok {
		t.Error("schema-stale entry reported as hit")
	}
	if got := c.Quarantined(); got != 1 {
		t.Fatalf("quarantined %d, want 1", got)
	}
}
