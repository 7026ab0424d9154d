// Command-line flags shared by the front ends.
//
// Six binaries describe a machine and drive the campaign engine from the
// command line. Every flag more than one of them takes is declared here,
// once, with one help text, and writes straight into the field it sets: the
// machine description into a Geometry, the engine knobs into Runner fields
// (the workload scale into Runner.Opt). The value a field holds when Bind
// runs is the flag's default, so each binary keeps its own defaults while
// the names and meanings stay one.
package experiments

import (
	"cmp"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/photonics"
	"repro/internal/tech"
)

// Flags is what the shared flags write: the machine description, the
// campaign engine's knobs (fields of Runner; Bind gives a nil Runner a zero
// one to hold them), and the cache, shutdown and output switches each
// front end applies by its own policy.
type Flags struct {
	Geometry
	Runner *Runner

	CacheDir      string
	NoCache       bool
	CacheMaxBytes int64
	Grace         time.Duration
	Quiet         bool
	Version       bool
}

// Bind declares the named shared flags on fs, each defaulting to the value
// its field holds now. A name Flags does not declare is a programming error
// and panics.
func (f *Flags) Bind(fs *flag.FlagSet, names ...string) {
	all := f.declare()
	for _, name := range names {
		fl := all.Lookup(name)
		if fl == nil {
			panic("experiments: no shared flag -" + name)
		}
		fs.Var(fl.Value, name, fl.Usage)
	}
}

// declare declares every shared flag on a private set; Bind re-declares
// the requested ones on the caller's.
func (f *Flags) declare() *flag.FlagSet {
	if f.Runner == nil {
		f.Runner = new(Runner)
	}
	g, r := &f.Geometry, f.Runner
	fs := flag.NewFlagSet("shared", flag.ContinueOnError)

	fs.StringVar(&g.Net, "net", g.Net, "network: pure, bcast, atac, atac+, corona, hybrid")
	fs.IntVar(&g.Cores, "cores", g.Cores, "total cores (perfect square, multiple of cluster size)")
	fs.IntVar(&g.Sharers, "sharers", g.Sharers, "ACKwise/DirKB hardware sharer pointers")
	fs.StringVar(&g.Coherence, "coherence", g.Coherence, "coherence protocol: ackwise, dirkb")
	fs.IntVar(&g.FlitBits, "flit", g.FlitBits, "flit width in bits")
	fs.IntVar(&g.RThres, "rthres", g.RThres, "distance routing threshold (0 = auto)")
	fs.IntVar(&g.HybridRadius, "hybrid-radius", g.HybridRadius, "hybrid network: photonic-gateway radius in clusters (0 = 1, a gateway per cluster)")
	fs.StringVar(&g.Tech, "tech", g.Tech, "electrical technology scenario: "+strings.Join(tech.Scenarios(), ", ")+" (empty = 11nm)")
	fs.StringVar(&g.Optics, "optics", g.Optics, "optical technology scenario: "+strings.Join(photonics.Variants(), ", ")+" (empty = baseline)")
	fs.Int64Var(&g.Seed, "seed", g.Seed, "simulation seed")

	fs.IntVar(&r.Opt.Scale, "scale", r.Opt.Scale, "per-core workload scale factor (part of every run's identity)")
	fs.IntVar(&r.Jobs, "jobs", r.Jobs, "max concurrent simulations (0: REPRO_JOBS env, else GOMAXPROCS)")
	fs.IntVar(&r.Retries, "retries", r.Retries, "extra attempts for runs cut by the per-run deadline")
	fs.DurationVar(&r.RunTimeout, "run-timeout", r.RunTimeout, "per-run wall-clock deadline, e.g. 5m (0 = none)")

	fs.StringVar(&f.CacheDir, "cache-dir", f.CacheDir, "persistent result cache directory (default: REPRO_CACHE env, else the user cache dir)")
	fs.BoolVar(&f.NoCache, "no-cache", f.NoCache, "disable the persistent result cache")
	fs.Int64Var(&f.CacheMaxBytes, "cache-max-bytes", f.CacheMaxBytes, "bound the on-disk cache, evicting least-recently-used entries (0 = unbounded)")
	fs.DurationVar(&f.Grace, "grace", f.Grace, "drain window after SIGINT/SIGTERM before in-flight runs are cancelled")
	fs.BoolVar(&f.Quiet, "q", f.Quiet, "suppress progress narration on stderr")
	fs.BoolVar(&f.Version, "version", f.Version, "print the build version and exit")
	return fs
}

// AttachCache gives f.Runner its durable state by the one cache-directory
// policy of the front ends: -cache-dir, else the REPRO_CACHE environment
// variable, else a "repro-campaign" directory under the user cache
// directory, and no cache with -no-cache. A directory the user named (flag
// or environment) that cannot be opened is the returned error; the default
// one is only a warning. The cache is bounded by -cache-max-bytes, logs
// through logf, and, when journal is set, holds the write-ahead journal (a
// journal that cannot be opened is a warning). The returned func, never
// nil, closes the journal.
func (f *Flags) AttachCache(journal bool, logf func(format string, args ...any)) (func(), error) {
	r := f.Runner
	closeJournal := func() {
		if err := r.Journal.Close(); err != nil {
			logf("warning: journal close: %v", err)
		}
	}
	if f.NoCache {
		return closeJournal, nil
	}
	dir := cmp.Or(f.CacheDir, os.Getenv("REPRO_CACHE"))
	named := dir != ""
	if base, err := os.UserCacheDir(); !named && err == nil {
		dir = filepath.Join(base, "repro-campaign")
	}
	c, err := OpenCache(dir) // "" (no user cache directory) fails too
	if err != nil {
		if named {
			return closeJournal, err
		}
		logf("warning: %v (continuing without cache)", err)
		return closeJournal, nil
	}
	c.Log = func(s string) { logf("%s", s) }
	c.MaxBytes = f.CacheMaxBytes
	r.Cache = c
	if journal {
		if r.Journal, err = OpenJournal(c.JournalPath()); err != nil {
			logf("warning: %v (continuing without journal)", err)
		}
	}
	return closeJournal, nil
}
