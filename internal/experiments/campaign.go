// Campaign execution engine: a concurrency-safe, memoizing, deduplicating
// scheduler for the (config, benchmark) simulation runs the figures share.
//
// Three layers cooperate:
//
//   - a singleflight memo: concurrent figures requesting the same run
//     (runConfig) share one simulation, and completed runs (including
//     failed ones — simulations are deterministic, so an error is as
//     cacheable as a result) are recalled from an in-process map;
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
	// Progress, if non-nil, receives one line per run disposition (fresh
	// simulation or persistent-cache hit). Lines are serialized behind an
	// internal mutex and prefixed with a [bench@network] label, so
	// concurrent workers never interleave partial lines.
	Progress func(string)
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
	// lifecycle transition (see hooks.go). Calls are serialized; the
	// consumer must not block.
	Events func(RunEvent)
	// EpochCycles, when positive and Events is set, attaches a metrics
	// collector to every fresh simulation and streams one PhaseEpoch
	// event per closed epoch — the live-progress feed behind the serving
	// daemon's SSE streams. Zero keeps fresh runs on the unobserved fast
	// path.
	EpochCycles sim.Time

	mu       sync.Mutex
	memo     map[runID]system.Result
	errs     map[runID]error
	inflight map[runID]*inflightRun
	ledger   map[runID]*RunRecord // per-run disposition
	progMu   sync.Mutex
	evMu     sync.Mutex

	fresh     atomic.Uint64 // simulations started (see FreshRuns)
	cacheHits atomic.Uint64 // runs recalled from the persistent cache
	recalled  atomic.Uint64 // failures recalled from the journal
	expected  atomic.Uint64 // campaign run-set size declared via Prefetch

	quiesced    atomic.Bool // Quiesce called: no new simulations
	interrupted atomic.Bool // at least one run was cut off or skipped

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

// inflightRun is the singleflight rendezvous for one executing run.
type inflightRun struct {
	done chan struct{}
	res  system.Result
	err  error
}

// NewRunner builds a campaign runner with no persistent cache; the front
// ends attach one with Flags.AttachCache.
func NewRunner(o Options) *Runner {
	return &Runner{
		Opt:      o,
		memo:     make(map[runID]system.Result),
		errs:     make(map[runID]error),
		inflight: make(map[runID]*inflightRun),
		ledger:   make(map[runID]*RunRecord),
	}
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

// CacheHits returns the number of runs recalled from the persistent cache.
func (r *Runner) CacheHits() uint64 { return r.cacheHits.Load() }

// RecalledFailures returns the number of terminal failures replayed from
// the journal without re-simulation.
func (r *Runner) RecalledFailures() uint64 { return r.recalled.Load() }

// Interrupted reports whether any run was skipped or cut off by campaign
// cancellation (SIGINT/SIGTERM or Ctx expiry).
func (r *Runner) Interrupted() bool { return r.interrupted.Load() }

// Quiesce stops the campaign from starting new simulations: subsequent
// runs still recall memo, cache, and journal entries, but a run that
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

// Ledger returns the per-run disposition records, sorted by benchmark,
// configuration label and run hash.
func (r *Runner) Ledger() []RunRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RunRecord, 0, len(r.ledger))
	for _, rec := range r.ledger {
		out = append(out, *rec)
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
	var out []RunRecord
	for _, rec := range r.Ledger() {
		if rec.Status != StatusDone {
			out = append(out, rec)
		}
	}
	return out
}

// settle records a run's final disposition, all of it derived from the
// run's terminal event: the ledger row, the cache-hit and recalled-failure
// counters and the interrupted flag. Then it emits the event.
func (r *Runner) settle(id runID, ev RunEvent) {
	rec := RunRecord{Hash: ev.Hash, Benchmark: ev.Benchmark, Config: ev.Config,
		Status: ev.Phase, Source: "sim", Attempts: ev.Attempt, WallMS: ev.WallMS, Error: ev.Error}
	switch ev.Phase {
	case PhaseCached:
		r.cacheHits.Add(1)
		rec.Status, rec.Source = StatusDone, "cache"
	case PhaseRecalled:
		r.recalled.Add(1)
		rec.Status, rec.Source = StatusFailed, "journal"
	case PhaseInterrupted:
		r.interrupted.Store(true)
	}
	r.mu.Lock()
	r.ledger[id] = &rec
	r.mu.Unlock()
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

// shortHash abbreviates a run hash for log lines and error messages.
func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
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
// only scalar fields, so runID is comparable and keys the memo, the
// in-flight table and the ledger directly.
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
// caller's context it runs under.
func (r *Runner) RunContext(ctx context.Context, cfg config.Config, bench string) (system.Result, error) {
	k := runID{runConfig(cfg), bench}
	r.mu.Lock()
	if res, ok := r.memo[k]; ok {
		r.mu.Unlock()
		return res, nil
	}
	if err, ok := r.errs[k]; ok {
		r.mu.Unlock()
		return system.Result{}, err
	}
	if c, ok := r.inflight[k]; ok {
		r.mu.Unlock()
		<-c.done
		return c.res, c.err
	}
	c := &inflightRun{done: make(chan struct{})}
	r.inflight[k] = c
	r.mu.Unlock()

	c.res, c.err = r.execute(ctx, k)

	r.mu.Lock()
	delete(r.inflight, k)
	if c.err != nil {
		r.errs[k] = c.err
	} else {
		r.memo[k] = c.res
	}
	r.mu.Unlock()
	close(c.done)
	return c.res, c.err
}

// execute performs one run, cheapest source first: persistent cache, then
// journal recall of known terminal failures, then panic-isolated
// simulation with bounded retry. Every state transition is write-ahead
// journaled, and the final disposition is settled from one event.
func (r *Runner) execute(ctx context.Context, id runID) (system.Result, error) {
	cfg, bench := id.cfg, id.bench
	ck := r.cacheKey(id)
	hash := resultstore.Hash(ck)
	label := ConfigLabel(cfg)
	key := bench + "@" + label // the journal's readable key
	event := func(phase string) RunEvent {
		return RunEvent{Hash: hash, Benchmark: bench, Config: label, Phase: phase}
	}

	if store := r.resultStore(); store != nil && ck != "" {
		if res, ok := store.Get(ck); ok {
			ev := event(PhaseCached)
			ev.Cycles = uint64(res.Cycles)
			r.settle(id, ev)
			r.progress(cfg, bench, "cached")
			return res, nil
		}
	}
	if r.Journal != nil && r.RecallFailures {
		if e, ok := r.Journal.Lookup(hash); ok && e.Status == StatusFailed {
			ev := event(PhaseRecalled)
			ev.Attempt, ev.WallMS, ev.Error = e.Attempt, e.WallMS, e.Error
			r.settle(id, ev)
			r.progress(cfg, bench, fmt.Sprintf("failed (recalled from journal, %d attempt(s))", e.Attempt))
			// Reproduce the stored error verbatim: a resumed campaign then
			// renders byte-identical degraded figures. The ledger row's
			// Source field records that it came from the journal.
			return system.Result{}, errors.New(e.Error)
		}
	}
	if r.quiesced.Load() || ctx.Err() != nil {
		r.settle(id, event(PhaseInterrupted))
		return system.Result{}, fmt.Errorf("run %s (%s, %s): %w",
			shortHash(hash), bench, label, ErrInterrupted)
	}

	// Counted as the first attempt starts, not at settle: the progress
	// lines' [done/total] counter includes the run it announces.
	r.fresh.Add(1)
	attempts := r.Retries + 1
	var wall time.Duration
	for attempt := 1; ; attempt++ {
		r.Journal.Begin(hash, key, attempt)
		msg := fmt.Sprintf("run (routing=%v, flit=%d, %v%d)",
			cfg.Network.Routing, cfg.Network.FlitBits,
			cfg.Coherence.Kind, cfg.Coherence.Sharers)
		if attempt > 1 {
			msg = fmt.Sprintf("retry %d/%d", attempt, attempts)
		}
		r.progress(cfg, bench, msg)
		phase := PhaseStart
		if attempt > 1 {
			phase = PhaseRetry
		}
		ev := event(phase)
		ev.Attempt = attempt
		r.emitEvent(ev)

		start := time.Now()
		res, err := r.simulate(ctx, cfg, bench, hash, attempt)
		wall += time.Since(start)
		ev.WallMS = float64(wall.Microseconds()) / 1e3

		if err == nil {
			r.Journal.Done(hash, key, attempt, wall)
			if store := r.resultStore(); store != nil && ck != "" {
				store.Put(ck, res) // best effort: a failed write only costs a re-run
			}
			ev.Phase, ev.Cycles, ev.Instructions = PhaseDone, uint64(res.Cycles), res.Instructions
			r.settle(id, ev)
			return res, nil
		}
		if ctx.Err() == nil && attempt < attempts && transientFailure(err) {
			d := RetryBackoff(hash, attempt, r.backoffBase, r.backoffCap)
			r.progress(cfg, bench, fmt.Sprintf("attempt %d/%d failed (%v); retrying in %v",
				attempt, attempts, err, d.Round(time.Millisecond)))
			select {
			case <-time.After(d):
				continue
			case <-ctx.Done():
			}
		}
		// Campaign-level cancellation — during the attempt or its retry
		// backoff — is not a run failure: leave the journal record at
		// "running" so a resumed campaign re-runs it.
		if ctx.Err() != nil {
			ev.Phase, ev.Error = PhaseInterrupted, err.Error()
			r.settle(id, ev)
			return system.Result{}, fmt.Errorf("run %s (%s, %s): %w: %v",
				shortHash(hash), bench, label, ErrInterrupted, err)
		}
		// Terminal: deterministic failure, or the attempt budget is spent.
		// The wrap carries the run hash and config name so a tripped
		// watchdog or exhausted event budget is attributable in the
		// failure ledger without re-running anything.
		wrapped := fmt.Errorf("run %s (%s, %s, attempt %d/%d): %w",
			shortHash(hash), bench, label, attempt, attempts, err)
		r.Journal.Fail(hash, key, attempt, wall, wrapped)
		ev.Phase, ev.Error = PhaseFailed, wrapped.Error()
		r.settle(id, ev)
		var pe *PanicError
		if errors.As(err, &pe) && len(pe.Stack) > 0 {
			r.progress(cfg, bench, fmt.Sprintf("panic isolated (stack captured, %d bytes)", len(pe.Stack)))
		}
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

// progress emits one serialized, labelled progress line. When the
// campaign's run-set size was declared up front (Prefetch), each line is
// prefixed with a [done/total] completion counter.
func (r *Runner) progress(cfg config.Config, bench, msg string) {
	if r.Progress == nil {
		return
	}
	line := fmt.Sprintf("[%s@%v] %s", bench, cfg.Network.Kind, msg)
	if tot := r.expected.Load(); tot > 0 {
		done := r.fresh.Load() + r.cacheHits.Load() + r.recalled.Load()
		if done > tot {
			done = tot // figure-local extras beyond the declared set
		}
		line = fmt.Sprintf("[%d/%d] %s", done, tot, line)
	}
	r.progMu.Lock()
	defer r.progMu.Unlock()
	r.Progress(line)
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
// serial campaign would. The deduplicated spec count also becomes the
// denominator of the [done/total] progress counter.
func (r *Runner) Prefetch(specs []RunSpec) {
	specs = dedupSpecs(specs)
	r.expected.Add(uint64(len(specs)))
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
