// Campaign execution engine: a concurrency-safe, memoizing, deduplicating
// scheduler for the (config, benchmark) simulation runs the figures share.
//
// Three layers cooperate:
//
//   - one run table: every run a Runner is asked for (runConfig) gets one
//     entry, so concurrent figures requesting the same run share one
//     simulation, completed runs (including failed ones — simulations are
//     deterministic, so an error is as cacheable as a result) are recalled
//     from it, and each settled entry carries the run's ledger row, which
//     the recall counters are read from;
//   - a worker pool (RunAll/Prefetch): figures declare their run-set up
//     front so up to Jobs simulations execute concurrently instead of
//     being discovered lazily one at a time. Each run owns a private
//     sim.Kernel, so parallel results are bit-identical to serial ones;
//   - an optional persistent Cache (cache.go): results survive across
//     processes, so re-generating figures skips simulation entirely.
//
// On top of those sits the resilience layer (journal.go, retry.go): every
// run-state transition is write-ahead logged to a journal next to the
// cache, workers are panic-isolated, each attempt can carry a wall-clock
// deadline retried with bounded backoff, and an interrupted or partially
// failed campaign resumes with zero duplicate simulations.
package experiments

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/photonics"
	"repro/internal/resultstore"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/tech"
)

// Runner memoizes and schedules benchmark runs for one campaign. All
// methods are safe for concurrent use.
type Runner struct {
	Opt Options
	// Apps restricts the benchmark set (default: all of Benchmarks).
	// Used to keep smoke campaigns cheap.
	Apps []string
	// Jobs caps concurrent simulations in RunAll/Prefetch. Zero means
	// DefaultJobs() (REPRO_JOBS env, else GOMAXPROCS). One runs serially.
	Jobs int
	// Cache, if non-nil, persists results on disk across processes.
	Cache *Cache
	// Store, if non-nil, overrides where completed results persist — e.g.
	// a resultstore.Tiered that consults cluster peers on local misses
	// and replicates completions outward. Nil means Cache alone; the
	// engine's read/write discipline is identical either way.
	Store resultstore.Store
	// Journal, if non-nil, write-ahead logs every run-state transition
	// (journal.jsonl next to the cache), making the campaign resumable.
	Journal *Journal
	// Retries is how many extra attempts a run cut by its per-run
	// deadline gets before being marked failed. Deterministic failures —
	// panic, watchdog, event budget, horizon, validation — never retry.
	// Zero means fail on the first attempt.
	Retries int
	// RunTimeout caps each attempt's wall-clock time; an overrunning
	// simulation is cancelled cooperatively (sim kernel poll), journaled,
	// and classified transient. Zero means no deadline.
	RunTimeout time.Duration
	// Ctx is the campaign-wide cancellation context, typically wired to
	// SIGINT/SIGTERM by the command. Nil means context.Background().
	Ctx context.Context
	// Partial switches figure rendering to degraded mode: a failed run
	// annotates its cells as missing instead of aborting the figure.
	Partial bool
	// RecallFailures replays terminal failures recorded in the journal
	// instead of re-simulating them (simulations are deterministic, so
	// the failure would reproduce byte by byte). Commands enable this so
	// resumed campaigns stay attributable at zero cost; pass -retry-failed
	// to clear it and re-attempt.
	RecallFailures bool
	// Events, if non-nil, receives one structured RunEvent per run
	// lifecycle transition (see hooks.go), after the journal, the fresh-run
	// counter and the ledger have taken it. Calls are serialized; the
	// consumer must not block.
	Events func(RunEvent)
	// EpochCycles, when positive and Events is set, attaches a metrics
	// collector to every fresh simulation and streams one PhaseEpoch
	// event per closed epoch — the live-progress feed behind the serving
	// daemon's SSE streams. Zero keeps fresh runs on the unobserved fast
	// path.
	EpochCycles sim.Time

	mu   sync.Mutex
	runs map[runID]*run // the run table: every run asked for, by identity
	evMu sync.Mutex

	fresh    atomic.Uint64 // simulations started (see FreshRuns)
	quiesced atomic.Bool   // Quiesce called: no new simulations

	// Test seams: backoff overrides and the chaos-injection hook, which
	// runs at the top of every simulation attempt and may panic.
	backoffBase, backoffCap time.Duration
	testHook                func(cfg config.Config, bench string, attempt int)
}

// RunRecord is one row of the campaign's failure/retry ledger: the final
// disposition of a run, how it was obtained, and — for failures — why it
// died. The ledger lands in manifest.json so a degraded figure set is
// attributable without re-running anything.
type RunRecord struct {
	Hash      string  `json:"hash"`
	Benchmark string  `json:"benchmark"`
	Config    string  `json:"config"`
	Status    string  `json:"status"` // done | failed | interrupted
	Source    string  `json:"source"` // sim | cache | journal
	Attempts  int     `json:"attempts"`
	WallMS    float64 `json:"wall_ms"`
	Error     string  `json:"error,omitempty"`
}

// run is one entry of the run table. The caller that inserts it executes
// the run, sets res and err, and closes done; every other caller asking for
// the run waits on done and returns the same res and err. row, guarded by
// the Runner's mu, is the run's ledger row once it settles.
type run struct {
	done chan struct{}
	res  system.Result
	err  error
	row  *RunRecord
}

// NewRunner builds a campaign runner with no persistent cache; the front
// ends attach one with Flags.AttachCache.
func NewRunner(o Options) *Runner {
	return &Runner{Opt: o, runs: make(map[runID]*run)}
}

// DefaultJobs returns the campaign-wide concurrency default: the REPRO_JOBS
// environment variable when set to a positive integer, else GOMAXPROCS.
func DefaultJobs() int {
	if v := os.Getenv("REPRO_JOBS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

func (r *Runner) jobs() int {
	if r.Jobs > 0 {
		return r.Jobs
	}
	return DefaultJobs()
}

// apps returns the benchmark set this campaign covers.
func (r *Runner) apps() []string {
	if len(r.Apps) > 0 {
		return r.Apps
	}
	return Benchmarks
}

// FreshRuns returns the number of simulations this Runner started,
// including ones in flight, failed or interrupted (memo and
// persistent-cache hits excluded).
func (r *Runner) FreshRuns() uint64 { return r.fresh.Load() }

// CacheHits returns the number of runs recalled from the persistent cache:
// the ledger rows whose source is the cache.
func (r *Runner) CacheHits() uint64 {
	return uint64(len(r.rowsWhere(func(row RunRecord) bool { return row.Source == "cache" })))
}

// RecalledFailures returns the number of terminal failures replayed from
// the journal without re-simulation: the ledger rows whose source is the
// journal.
func (r *Runner) RecalledFailures() uint64 {
	return uint64(len(r.rowsWhere(func(row RunRecord) bool { return row.Source == "journal" })))
}

// Interrupted reports whether any run was skipped or cut off by campaign
// cancellation (SIGINT/SIGTERM or Ctx expiry): whether any ledger row is
// interrupted.
func (r *Runner) Interrupted() bool {
	return len(r.rowsWhere(func(row RunRecord) bool { return row.Status == PhaseInterrupted })) > 0
}

// Quiesce stops the campaign from starting new simulations: subsequent
// runs still recall settled runs, cache and journal entries, but a run that
// would need fresh simulation fails fast with ErrInterrupted. This is the
// drain half of graceful shutdown — in-flight runs finish, nothing new
// starts, and rendering proceeds from whatever completed.
func (r *Runner) Quiesce() { r.quiesced.Store(true) }

// context returns the campaign cancellation context.
func (r *Runner) context() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// Ledger returns the per-run disposition records of the settled runs,
// sorted by benchmark, configuration label and run hash.
func (r *Runner) Ledger() []RunRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RunRecord, 0, len(r.runs))
	for _, c := range r.runs {
		if c.row != nil {
			out = append(out, *c.row)
		}
	}
	slices.SortFunc(out, func(a, b RunRecord) int {
		return cmp.Or(cmp.Compare(a.Benchmark, b.Benchmark), cmp.Compare(a.Config, b.Config),
			cmp.Compare(a.Hash, b.Hash))
	})
	return out
}

// FailedRuns returns the ledger rows that did not complete: terminal
// failures and interrupted runs.
func (r *Runner) FailedRuns() []RunRecord {
	return r.rowsWhere(func(row RunRecord) bool { return row.Status != StatusDone })
}

// rowsWhere returns the ledger rows that satisfy keep, in Ledger's order.
func (r *Runner) rowsWhere(keep func(RunRecord) bool) []RunRecord {
	var out []RunRecord
	for _, row := range r.Ledger() {
		if keep(row) {
			out = append(out, row)
		}
	}
	return out
}

// record applies one transition of run c to every sink, in a fixed order:
// the journal first (write-ahead: an attempt's record lands before it does
// any work), then the fresh-run counter, then the ledger row of a terminal
// phase onto c, and Events last. Every transition execute decides on goes
// through here.
func (r *Runner) record(c *run, ev RunEvent) {
	if status, ok := journalStatus[ev.Phase]; ok {
		r.Journal.append(JournalEntry{Hash: ev.Hash, Key: ev.Benchmark + "@" + ev.Config,
			Status: status, Attempt: ev.Attempt, WallMS: ev.WallMS, Error: ev.Error})
	}
	row := RunRecord{Hash: ev.Hash, Benchmark: ev.Benchmark, Config: ev.Config,
		Status: ev.Phase, Source: "sim", Attempts: ev.Attempt, WallMS: ev.WallMS, Error: ev.Error}
	switch ev.Phase {
	case PhaseStart:
		r.fresh.Add(1)
	case PhaseCached:
		row.Status, row.Source = StatusDone, "cache"
	case PhaseRecalled:
		row.Status, row.Source = StatusFailed, "journal"
	}
	if ev.Phase != PhaseStart && ev.Phase != PhaseRetry { // an attempt is no disposition
		r.mu.Lock()
		c.row = &row
		r.mu.Unlock()
	}
	r.emitEvent(ev)
}

// resultStore returns where this Runner persists results: the explicit
// Store if set, else the local Cache (possibly nil — callers check).
func (r *Runner) resultStore() resultstore.Store {
	if r.Store != nil {
		return r.Store
	}
	if r.Cache != nil {
		return r.Cache
	}
	return nil
}

// ConfigLabel names a run's configuration for ledger rows and wrapped
// errors: the network kind plus the coherence scheme and scale, enough to
// find the run in any figure without the full key.
func ConfigLabel(cfg config.Config) string {
	return fmt.Sprintf("%v/%v%d/c%d", cfg.Network.Kind, cfg.Coherence.Kind,
		cfg.Coherence.Sharers, cfg.Cores)
}

// runID is a run's identity inside one process: the benchmark and the
// configuration as the simulator reads it (runConfig). config.Config holds
// only scalar fields, so runID is comparable and keys the run table
// directly.
type runID struct {
	cfg   config.Config
	bench string
}

// paperConfig supplies the values runConfig resets the energy-only fields to.
var paperConfig = config.Default()

// runConfig is the one definition of run identity: cfg with the fields only
// the post-hoc energy and area models read reset to the paper's values: the
// ATAC+ flavor, the core NDD fraction and peak power and the L1-I size to
// config.Default()'s, the technology scenario to the baseline under the
// canonical names BuildConfig gives it (so a baseline run echoes the config
// its front end built). Runs whose configs agree here are one simulation —
// Figs 7, 8 and 17 and the techsweep re-cost a single run per flavor, NDD
// fraction and scenario — and every other field is part of the identity.
func runConfig(cfg config.Config) config.Config {
	cfg.Network.Flavor = paperConfig.Network.Flavor
	cfg.Core.NDDFraction = paperConfig.Core.NDDFraction
	cfg.Core.PeakPowerW = paperConfig.Core.PeakPowerW
	cfg.Caches.L1IKB = paperConfig.Caches.L1IKB
	cfg.Tech, cfg.Optics = tech.Canonical(""), photonics.Canonical("")
	return cfg
}

// cacheKey is a run's identity across processes: the schema stamp, the
// benchmark, the campaign's scale, and the run config as JSON.
func (r *Runner) cacheKey(id runID) string {
	blob, err := json.Marshal(id.cfg)
	if err != nil {
		// Config is a plain value struct; marshaling cannot fail. Fall
		// back to an uncacheable key rather than risk a collision.
		return ""
	}
	// horizon=0 (runs are uncapped) stays in the key so every existing
	// run hash and cache entry keeps its name.
	return fmt.Sprintf("v%d|bench=%s|scale=%d|horizon=0|cfg=%s",
		cacheSchemaVersion, id.bench, r.Opt.Scale, blob)
}

// RunHash returns the run's persistent identity for this Runner's campaign
// options: the sha256 hex of its cacheKey — the name of its cache file, the
// key of its journal records, the Hash of its RunEvents and ledger row, and
// what the serving layer coalesces requests on.
func (r *Runner) RunHash(cfg config.Config, bench string) string {
	return resultstore.Hash(r.cacheKey(runID{runConfig(cfg), bench}))
}

// Run executes (or recalls) one benchmark on one configuration. Concurrent
// calls for the same run share a single execution.
func (r *Runner) Run(cfg config.Config, bench string) (system.Result, error) {
	return r.RunContext(r.context(), cfg, bench)
}

// RunContext is Run under an explicit cancellation context. Concurrent
// calls for the same run share a single execution regardless of which
// caller's context it runs under; a settled run is a receive on its closed
// done channel.
func (r *Runner) RunContext(ctx context.Context, cfg config.Config, bench string) (system.Result, error) {
	k := runID{runConfig(cfg), bench}
	r.mu.Lock()
	c, ok := r.runs[k]
	if !ok {
		c = &run{done: make(chan struct{})}
		r.runs[k] = c
	}
	r.mu.Unlock()
	if !ok {
		c.res, c.err = r.execute(ctx, k, c)
		close(c.done)
	}
	<-c.done
	return c.res, c.err
}

// execute performs one run, cheapest source first: persistent cache, then
// journal recall of known terminal failures, then panic-isolated
// simulation with bounded retry. It makes the decisions; every transition
// they lead to is one RunEvent, applied to the journal, counter, c's ledger
// row and Events by record.
func (r *Runner) execute(ctx context.Context, id runID, c *run) (system.Result, error) {
	cfg, bench := id.cfg, id.bench
	ck := r.cacheKey(id)
	hash := resultstore.Hash(ck)
	label := ConfigLabel(cfg)
	event := func(phase string) RunEvent {
		return RunEvent{Hash: hash, Benchmark: bench, Config: label, Phase: phase}
	}
	prefix := fmt.Sprintf("run %s (%s, %s", hash[:12], bench, label) // every error's prefix

	if store := r.resultStore(); store != nil && ck != "" {
		if res, ok := store.Get(ck); ok {
			ev := event(PhaseCached)
			ev.Cycles = uint64(res.Cycles)
			r.record(c, ev)
			return res, nil
		}
	}
	if r.Journal != nil && r.RecallFailures {
		if e, ok := r.Journal.Lookup(hash); ok && e.Status == StatusFailed {
			ev := event(PhaseRecalled)
			ev.Attempt, ev.WallMS, ev.Error = e.Attempt, e.WallMS, e.Error
			r.record(c, ev)
			// Reproduce the stored error verbatim: a resumed campaign then
			// renders byte-identical degraded figures. The ledger row's
			// Source field records that it came from the journal.
			return system.Result{}, errors.New(e.Error)
		}
	}
	if r.quiesced.Load() || ctx.Err() != nil {
		r.record(c, event(PhaseInterrupted))
		return system.Result{}, fmt.Errorf("%s): %w", prefix, ErrInterrupted)
	}

	attempts := r.Retries + 1
	var wall time.Duration
	for attempt := 1; ; attempt++ {
		ev := event(PhaseStart)
		if attempt > 1 {
			ev.Phase = PhaseRetry
		}
		ev.Attempt = attempt
		r.record(c, ev)

		start := time.Now()
		res, err := r.simulate(ctx, cfg, bench, hash, attempt)
		wall += time.Since(start)
		ev.WallMS = wallMS(wall)

		if err == nil {
			// The entry is written (or its failed write logged) before the
			// journal says done. Best effort: a failed write only costs a
			// re-run.
			if store := r.resultStore(); store != nil && ck != "" {
				_ = store.Put(ck, res)
			}
			ev.Phase, ev.Cycles, ev.Instructions = PhaseDone, uint64(res.Cycles), res.Instructions
			r.record(c, ev)
			return res, nil
		}
		if ctx.Err() == nil && attempt < attempts && transientFailure(err) {
			select {
			case <-time.After(RetryBackoff(hash, attempt, r.backoffBase, r.backoffCap)):
				continue
			case <-ctx.Done():
			}
		}
		// Campaign-level cancellation — during the attempt or its retry
		// backoff — is not a run failure: leave the journal record at
		// "running" so a resumed campaign re-runs it.
		if ctx.Err() != nil {
			ev.Phase, ev.Error = PhaseInterrupted, err.Error()
			r.record(c, ev)
			return system.Result{}, fmt.Errorf("%s): %w: %v", prefix, ErrInterrupted, err)
		}
		// Terminal: deterministic failure, or the attempt budget is spent.
		// The wrap carries the run hash and config name so a tripped
		// watchdog or exhausted event budget is attributable in the
		// failure ledger without re-running anything.
		wrapped := fmt.Errorf("%s, attempt %d/%d): %w", prefix, attempt, attempts, err)
		ev.Phase, ev.Error = PhaseFailed, wrapped.Error()
		r.record(c, ev)
		return system.Result{}, wrapped
	}
}

// simulate performs one panic-isolated attempt under the per-run deadline.
// A panic anywhere in the simulator surfaces as a *PanicError carrying the
// worker's stack instead of unwinding into the pool. Every fresh system
// run takes one path on the serial kernel; an epoch collector is attached
// only when an Events consumer wants epochs.
func (r *Runner) simulate(ctx context.Context, cfg config.Config, bench, hash string, attempt int) (res system.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	if r.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, r.RunTimeout, ErrRunDeadline)
		defer cancel()
	}
	if h := r.testHook; h != nil {
		h(cfg, bench, attempt) // chaos seam: may panic, by design
	}
	if sp, ok := ParseSynthBench(bench); ok {
		return r.runSynthetic(ctx, cfg, bench, sp)
	}
	spec, err := system.WorkloadFor(cfg, bench, r.Opt.Scale)
	if err != nil {
		return system.Result{}, err
	}
	sys, err := system.New(cfg)
	if err != nil {
		return system.Result{}, err
	}
	if r.EpochCycles > 0 && r.Events != nil {
		r.observe(sys, hash, bench, ConfigLabel(cfg))
	}
	return sys.RunContext(ctx, spec, 0)
}

// RunSpec names one (config, benchmark) simulation of a campaign.
type RunSpec struct {
	Cfg   config.Config
	Bench string
}

// RunAll executes every spec under ctx, up to Jobs concurrently, and
// returns the first error (the remaining runs still complete and are
// memoized — a panicking or failed run never takes the pool down). With
// Jobs <= 1 the specs execute serially in order, stopping at the first
// error — exactly the pre-parallel campaign behavior.
func (r *Runner) RunAll(ctx context.Context, specs []RunSpec) error {
	if ctx == nil {
		ctx = r.context()
	}
	specs = dedupSpecs(specs)
	if r.jobs() <= 1 || len(specs) <= 1 {
		for _, s := range specs {
			if _, err := r.RunContext(ctx, s.Cfg, s.Bench); err != nil {
				return err
			}
		}
		return nil
	}
	sem := make(chan struct{}, r.jobs())
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for _, s := range specs {
		wg.Add(1)
		go func(s RunSpec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if _, err := r.RunContext(ctx, s.Cfg, s.Bench); err != nil {
				errMu.Lock()
				if firstErr == nil || errors.Is(firstErr, ErrInterrupted) {
					// Prefer a real failure over an interrupt marker.
					firstErr = err
				}
				errMu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	return firstErr
}

// Prefetch warms the memo with every spec, saturating the worker pool.
// Errors are not reported here: a failed run is memoized, and the figure
// that needs it surfaces the identical error at the same table position a
// serial campaign would.
func (r *Runner) Prefetch(specs []RunSpec) {
	_ = r.RunAll(r.context(), specs)
}

// dedupSpecs drops duplicate runs, keeping first-occurrence order (the
// serial execution order of the declaring figure).
func dedupSpecs(specs []RunSpec) []RunSpec {
	seen := make(map[runID]bool, len(specs))
	out := specs[:0:0]
	for _, s := range specs {
		k := runID{runConfig(s.Cfg), s.Bench}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, s)
	}
	return out
}
