package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/recordlog"
	"repro/internal/resultstore"
	"repro/internal/system"
	"repro/internal/version"
)

// cacheSchemaVersion stamps every persisted entry. It lives in
// internal/version (as version.CacheSchema) so the daemon's /healthz
// endpoint and every -version flag report the same stamp the cache
// enforces; bump it there whenever the simulator's observable behavior
// changes (timing model, coherence protocol, workload generation, Result
// layout): a mismatched stamp makes every old entry a miss, so stale
// results can never leak into figures.
const cacheSchemaVersion = version.CacheSchema

// Cache is a persistent, on-disk store of benchmark results, one JSON file
// per run named by its RunHash. It is shared across processes: the key
// (Runner.cacheKey) covers everything that determines a result — the run
// config, the benchmark, and the campaign's scale and horizon.
//
// Writes are atomic (temp file + fsync + rename), so a crashed or
// parallel writer can never leave a torn entry. Corrupt, schema-stale, or
// key-mismatched entries are quarantined — renamed into a quarantine/
// subdirectory with the reason logged — so bad bytes read as misses
// exactly once and stay inspectable instead of being silently re-read
// forever. Methods are safe for concurrent use.
type Cache struct {
	dir string

	// Log, if non-nil, receives one line per quarantined entry.
	Log func(string)

	// MaxBytes, when > 0, bounds the cache's on-disk footprint: after
	// every Put the least-recently-used entries (by file access order —
	// Get touches an entry's mtime) are evicted until entries plus
	// quarantined files fit the budget again. Evicting only costs a
	// future re-simulation, never correctness. 0 means unbounded.
	MaxBytes int64

	quarantined atomic.Uint64
	evicted     atomic.Uint64
	evictMu     sync.Mutex
}

// quarantineDirName is the subdirectory bad entries are moved into.
const quarantineDirName = "quarantine"

// Cache is the local-directory backend of the resultstore contract; the
// daemon mounts it beneath a peer read-through tier.
var _ resultstore.Store = (*Cache)(nil)

// OpenCache creates (if needed) and opens a cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// JournalPath returns where this cache's run journal lives (journal.jsonl
// next to the entries).
func (c *Cache) JournalPath() string { return filepath.Join(c.dir, JournalFileName) }

// The on-disk format is resultstore.Entry: Key holds the full (pre-hash)
// run key so a hash collision — or a caller mixing cache directories — is
// detected as a miss instead of silently returning the wrong run's
// result, and the same JSON travels verbatim over the peer cache routes.

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, resultstore.Hash(key)+".json")
}

// entryHashPattern is the only shape EntryByHash accepts: a full sha256
// hex digest. Anything else (../escapes, prefixes, uppercase) is
// rejected before touching the filesystem.
var entryHashPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// EntryByHash returns the raw stored entry whose key hashes to hash —
// the serving layer's peer-cache read path. The bytes are returned
// as-persisted (already a resultstore.Entry in JSON); validation of
// schema and embedded key is the reader's job, exactly as it is for
// local Gets. A malformed hash or absent entry is a miss.
func (c *Cache) EntryByHash(hash string) ([]byte, bool) {
	if !entryHashPattern.MatchString(hash) {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(c.dir, hash+".json"))
	if err != nil {
		return nil, false
	}
	return data, true
}

// PutEntry persists pre-marshaled entry bytes under their hash after
// verifying they parse, carry the current schema, and embed a key that
// actually hashes to hash — the write half of the peer-cache routes. The
// same atomic write path as Put, so a replicating peer can never tear or
// mislabel a local entry.
func (c *Cache) PutEntry(hash string, data []byte) error {
	if !entryHashPattern.MatchString(hash) {
		return fmt.Errorf("cache: malformed entry hash %q", hash)
	}
	var e resultstore.Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return fmt.Errorf("cache: invalid entry for %s: %w", hash[:12], err)
	}
	if e.Schema != cacheSchemaVersion {
		return fmt.Errorf("cache: entry schema %d (current %d)", e.Schema, cacheSchemaVersion)
	}
	if resultstore.Hash(e.Key) != hash {
		return fmt.Errorf("cache: entry key does not hash to %s", hash[:12])
	}
	if err := recordlog.AtomicWriteFile(filepath.Join(c.dir, hash+".json"), data, 0o644); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if c.MaxBytes > 0 {
		if _, err := c.EnforceBudget(); err != nil && c.Log != nil {
			c.Log(fmt.Sprintf("cache: eviction: %v", err))
		}
	}
	return nil
}

// Get returns the cached result for key, if present and valid. An entry
// that exists but cannot be trusted — unparsable bytes, a stale schema
// stamp, or an embedded key that disagrees with its filename — is
// quarantined and reads as a miss.
func (c *Cache) Get(key string) (system.Result, bool) {
	path := c.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return system.Result{}, false
	}
	var e resultstore.Entry
	if err := json.Unmarshal(data, &e); err != nil {
		c.quarantine(path, fmt.Sprintf("corrupt entry: %v", err))
		return system.Result{}, false
	}
	if e.Schema != cacheSchemaVersion {
		c.quarantine(path, fmt.Sprintf("stale schema %d (current %d)", e.Schema, cacheSchemaVersion))
		return system.Result{}, false
	}
	if e.Key != key {
		c.quarantine(path, "embedded key disagrees with filename (hash collision or mixed cache dirs)")
		return system.Result{}, false
	}
	// Mark the entry recently used so a bounded cache evicts cold runs
	// first. Best effort: a failed touch only skews eviction order.
	if c.MaxBytes > 0 {
		now := time.Now()
		_ = os.Chtimes(path, now, now)
	}
	return e.Result, true
}

// quarantine moves a bad entry into the quarantine subdirectory (keeping
// its name, so the offending run stays identifiable) and logs why. Best
// effort: if even the rename fails, the entry still reads as a miss and a
// fresh simulation overwrites it.
func (c *Cache) quarantine(path, reason string) {
	qdir := filepath.Join(c.dir, quarantineDirName)
	dest := filepath.Join(qdir, filepath.Base(path))
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if err := os.Rename(path, dest); err != nil {
			dest = path + " (rename failed: " + err.Error() + ")"
		}
	}
	c.quarantined.Add(1)
	if c.Log != nil {
		c.Log(fmt.Sprintf("cache: quarantined %s -> %s: %s", filepath.Base(path), dest, reason))
	}
}

// Quarantined reports how many entries this Cache has quarantined.
func (c *Cache) Quarantined() uint64 { return c.quarantined.Load() }

// Put stores res under key via fsync-and-rename (recordlog.AtomicWriteFile, shared
// with the journal and the manifest writer). Errors are returned so
// callers can warn, but a failed Put only costs a future re-simulation —
// it is never fatal.
func (c *Cache) Put(key string, res system.Result) error {
	data, err := json.Marshal(resultstore.Entry{Schema: cacheSchemaVersion, Key: key, Result: res})
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if err := recordlog.AtomicWriteFile(c.path(key), data, 0o644); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if c.MaxBytes > 0 {
		if _, err := c.EnforceBudget(); err != nil && c.Log != nil {
			c.Log(fmt.Sprintf("cache: eviction: %v", err))
		}
	}
	return nil
}

// EnforceBudget evicts least-recently-used entries until the cache fits
// MaxBytes, returning how many files it removed. Both live entries and
// quarantined files count against (and are evictable under) the budget;
// the journal is not a cache entry and is never touched. A no-op when
// MaxBytes is 0. Serialized internally so concurrent Puts do not race to
// delete the same files.
func (c *Cache) EnforceBudget() (int, error) {
	if c.MaxBytes <= 0 {
		return 0, nil
	}
	c.evictMu.Lock()
	defer c.evictMu.Unlock()

	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []entry
	var total int64
	for _, dir := range []string{c.dir, filepath.Join(c.dir, quarantineDirName)} {
		des, err := os.ReadDir(dir)
		if err != nil {
			continue // quarantine/ may not exist yet
		}
		for _, de := range des {
			if de.IsDir() || filepath.Ext(de.Name()) != ".json" {
				continue
			}
			info, err := de.Info()
			if err != nil {
				continue // raced with another evictor
			}
			files = append(files, entry{filepath.Join(dir, de.Name()), info.Size(), info.ModTime()})
			total += info.Size()
		}
	}
	if total <= c.MaxBytes {
		return 0, nil
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	evicted := 0
	var firstErr error
	for _, f := range files {
		if total <= c.MaxBytes {
			break
		}
		if err := os.Remove(f.path); err != nil {
			if firstErr == nil && !os.IsNotExist(err) {
				firstErr = err
			}
			continue
		}
		total -= f.size
		evicted++
	}
	if evicted > 0 {
		c.evicted.Add(uint64(evicted))
		if c.Log != nil {
			c.Log(fmt.Sprintf("cache: evicted %d entries to fit %d-byte budget (%d bytes now)", evicted, c.MaxBytes, total))
		}
	}
	return evicted, firstErr
}

// Evicted reports how many files this Cache has evicted under MaxBytes.
func (c *Cache) Evicted() uint64 { return c.evicted.Load() }

// Invalidate removes every entry in the cache directory (the explicit
// invalidation path behind the -clear-cache flag). The directory itself
// is kept.
func (c *Cache) Invalidate() error {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		if err := os.Remove(filepath.Join(c.dir, e.Name())); err != nil {
			return fmt.Errorf("cache: %w", err)
		}
	}
	return nil
}

// Len reports how many entries the cache currently holds.
func (c *Cache) Len() int {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n
}

// DefaultCacheDir resolves the cache location when no -cache-dir flag is
// given: the REPRO_CACHE environment variable if set, else a
// "repro-campaign" subdirectory of the user cache directory.
func DefaultCacheDir() string {
	if dir := os.Getenv("REPRO_CACHE"); dir != "" {
		return dir
	}
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "repro-campaign")
}

// AttachCache wires the runner's durable state for every campaign front
// end: the persistent cache at dir ("" keeps the one NewRunner took from
// REPRO_CACHE, if any) with its warnings routed to logf, and, when journal
// is set, the write-ahead journal next to it. A cache that cannot be opened
// is the returned error (fatal or not is the caller's call) and leaves the
// runner as it was; a journal that cannot be opened is only a logged
// warning. The returned func, never nil, closes the runner's journal.
func (r *Runner) AttachCache(dir string, journal bool, logf func(format string, args ...any)) (func(), error) {
	closeJournal := func() {
		if err := r.Journal.Close(); err != nil {
			logf("warning: journal close: %v", err)
		}
	}
	if dir != "" {
		c, err := OpenCache(dir)
		if err != nil {
			return closeJournal, err
		}
		r.Cache = c
	}
	if r.Cache == nil {
		return closeJournal, nil
	}
	r.Cache.Log = func(s string) { logf("%s", s) }
	if journal {
		var err error
		if r.Journal, err = OpenJournal(r.Cache.JournalPath()); err != nil {
			logf("warning: %v (continuing without journal)", err)
		}
	}
	return closeJournal, nil
}
