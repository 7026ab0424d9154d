package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/resultstore"
	"repro/internal/system"
)

// path is where the cache keeps the entry for key.
func (c *Cache) path(key string) string { return c.entryPath(resultstore.Hash(key)) }

// fileSizes sums the .json entries under the cache root and quarantine.
func cacheBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	for _, d := range []string{dir, filepath.Join(dir, quarantineDirName)} {
		des, err := os.ReadDir(d)
		if err != nil {
			continue
		}
		for _, de := range des {
			if de.IsDir() || filepath.Ext(de.Name()) != ".json" {
				continue
			}
			info, err := de.Info()
			if err != nil {
				t.Fatal(err)
			}
			total += info.Size()
		}
	}
	return total
}

// TestCacheEvictsLRU: a bounded cache evicts the least-recently-used
// entries first and never touches the journal.
func TestCacheEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(dir, JournalFileName)
	if err := os.WriteFile(journal, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	keys := []string{"run-a", "run-b", "run-c", "run-d"}
	for _, k := range keys {
		if err := c.Put(k, system.Result{Benchmark: k, Finished: true}); err != nil {
			t.Fatal(err)
		}
	}
	// Pin a deterministic access order: a is oldest, d newest.
	base := time.Now().Add(-time.Hour)
	for i, k := range keys {
		ts := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(c.path(k), ts, ts); err != nil {
			t.Fatal(err)
		}
	}

	// Budget for roughly two entries: the two oldest must go.
	perEntry := cacheBytes(t, dir) / int64(len(keys))
	c.MaxBytes = 2 * perEntry
	evicted, err := c.EnforceBudget()
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 2 {
		t.Fatalf("evicted %d entries, want 2", evicted)
	}
	if c.Evicted() != 2 {
		t.Errorf("Evicted() = %d, want 2", c.Evicted())
	}
	for _, k := range []string{"run-a", "run-b"} {
		if _, ok := c.Get(k); ok {
			t.Errorf("%s survived eviction but was oldest", k)
		}
	}
	for _, k := range []string{"run-c", "run-d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted but was most recently used", k)
		}
	}
	if _, err := os.Stat(journal); err != nil {
		t.Errorf("journal was evicted: %v", err)
	}
	if got := cacheBytes(t, dir); got > c.MaxBytes {
		t.Errorf("cache still %d bytes over the %d budget", got, c.MaxBytes)
	}
}

// TestCachePutEnforcesBudget: Put itself triggers eviction, so a
// long-running daemon stays under budget without explicit maintenance.
func TestCachePutEnforcesBudget(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("probe", system.Result{Benchmark: "probe"}); err != nil {
		t.Fatal(err)
	}
	c.MaxBytes = cacheBytes(t, dir) + 10 // room for ~one entry only
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(c.path("probe"), old, old); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("fresh", system.Result{Benchmark: "fresh"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("probe"); ok {
		t.Error("old entry survived a Put that blew the budget")
	}
	if _, ok := c.Get("fresh"); !ok {
		t.Error("fresh entry was evicted instead of the old one")
	}
}

// TestCacheQuarantineCountsAgainstBudget: quarantined files are part of
// the footprint and evictable, so corrupt entries cannot pin disk.
func TestCacheQuarantineCountsAgainstBudget(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("bad", system.Result{}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path("bad"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("bad"); ok {
		t.Fatal("corrupt entry returned a hit")
	}
	qfile := filepath.Join(dir, quarantineDirName, filepath.Base(c.path("bad")))
	if _, err := os.Stat(qfile); err != nil {
		t.Fatalf("corrupt entry not quarantined: %v", err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(qfile, old, old); err != nil {
		t.Fatal(err)
	}
	c.MaxBytes = 1
	if _, err := c.EnforceBudget(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(qfile); !os.IsNotExist(err) {
		t.Errorf("quarantined file survived eviction under a 1-byte budget")
	}
}

// TestCacheUnboundedIsUntouched: MaxBytes == 0 must never evict.
func TestCacheUnboundedIsUntouched(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"x", "y", "z"} {
		if err := c.Put(k, system.Result{Benchmark: k}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := c.EnforceBudget(); n != 0 || err != nil {
		t.Fatalf("EnforceBudget on unbounded cache: %d, %v", n, err)
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3", c.Len())
	}
}

// TestAttachCache: the one wiring call of the campaign front ends. A named
// directory that cannot be opened is the returned error and leaves the
// runner alone; -no-cache attaches nothing; the cache is bounded by
// -cache-max-bytes; a journal that cannot be opened is a logged warning,
// not an error; the close func compacts.
func TestAttachCache(t *testing.T) {
	t.Setenv("REPRO_CACHE", "")
	var logged []string
	logf := func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	attach := func(f Flags, journal bool) (*Runner, func(), error) {
		f.Runner = NewRunner(testCampaignOpts())
		closeCache, err := f.AttachCache(journal, logf)
		return f.Runner, closeCache, err
	}

	r, closeCache, err := attach(Flags{CacheDir: filepath.Join(file, "sub")}, true)
	if err == nil || r.Cache != nil || r.Journal != nil {
		t.Fatalf("unopenable dir: err=%v cache=%v journal=%v", err, r.Cache, r.Journal)
	}
	closeCache()
	if r, closeCache, err = attach(Flags{CacheDir: dir, NoCache: true}, true); err != nil || r.Cache != nil || r.Journal != nil {
		t.Fatalf("-no-cache: err=%v cache=%v journal=%v", err, r.Cache, r.Journal)
	}
	closeCache()

	cdir := filepath.Join(dir, "cache")
	if r, closeCache, err = attach(Flags{CacheDir: cdir, CacheMaxBytes: 1 << 20}, false); err != nil ||
		r.Cache == nil || r.Cache.MaxBytes != 1<<20 || r.Journal != nil {
		t.Fatalf("journal off: err=%v cache=%v journal=%v", err, r.Cache, r.Journal)
	}
	closeCache()
	if r, closeCache, err = attach(Flags{CacheDir: cdir}, true); err != nil || r.Cache.Dir() != cdir || r.Journal == nil {
		t.Fatalf("journal on: err=%v cache=%v journal=%v", err, r.Cache, r.Journal)
	}
	r.Cache.Log("from the cache")
	r.Journal.append(running("h", "k", 1))
	r.Journal.Done("h", "k", 1, 0)
	closeCache()
	if data, _ := os.ReadFile(r.Cache.JournalPath()); strings.Count(string(data), "\n") != 1 {
		t.Errorf("journal not compacted on close:\n%s", data)
	}
	if len(logged) != 1 || logged[0] != "from the cache" {
		t.Errorf("logged %q, want only the cache's line", logged)
	}

	// journal.jsonl is a directory: warn and run without a journal.
	jdir := filepath.Join(dir, "nojournal")
	if err := os.MkdirAll(filepath.Join(jdir, JournalFileName), 0o755); err != nil {
		t.Fatal(err)
	}
	logged = nil
	if r, closeCache, err = attach(Flags{CacheDir: jdir}, true); err != nil || r.Cache.Dir() != jdir || r.Journal != nil {
		t.Fatalf("broken journal: err=%v cache=%v journal=%v", err, r.Cache.Dir(), r.Journal)
	}
	closeCache()
	if len(logged) != 1 || !strings.Contains(logged[0], "continuing without journal") {
		t.Errorf("logged %q, want one journal warning", logged)
	}
}
