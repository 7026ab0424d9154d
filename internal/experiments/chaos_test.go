// Chaos tests for the resilience layer: injected panics, campaign
// interrupts, and per-run deadlines, plus the resume paths that follow
// them. These exercise the full stack — journal, retry/backoff, partial
// figure rendering, cache recall — through the same entry points the
// commands use.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/system"
	"repro/internal/workload"
)

// chaosRunner builds a small two-benchmark campaign runner wired to a
// cache+journal in dir, with test-speed backoff.
func chaosRunner(t *testing.T, dir string) *Runner {
	t.Helper()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(c.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(Options{Cores: 16, Scale: 1, Seed: 42})
	r.Cache = c
	r.Journal = j
	r.Apps = []string{"radix", "fmm"}
	r.Jobs = 2
	r.Partial = true
	r.RecallFailures = true
	r.backoffBase, r.backoffCap = 100*time.Microsecond, time.Millisecond
	return r
}

func TestChaosPanicIsolationAndJournalResume(t *testing.T) {
	dir := t.TempDir()

	// Campaign 1: one run (fmm on EMesh-Pure) panics. A panic is
	// deterministic, so even with a retry to spare it runs exactly once.
	r1 := chaosRunner(t, dir)
	r1.Retries = 1
	var panicked atomic.Int32
	r1.testHook = func(cfg config.Config, bench string, attempt int) {
		if bench == "fmm" && cfg.Network.Kind == config.EMeshPure {
			panicked.Add(1)
			panic(fmt.Sprintf("chaos: injected panic (attempt %d)", attempt))
		}
	}
	t1, err := r1.Figure("4")
	if err != nil {
		t.Fatalf("partial-mode figure aborted: %v", err)
	}
	if !t1.Degraded {
		t.Fatal("table not marked degraded")
	}
	// The poisoned benchmark renders as an annotated missing row; the
	// healthy one renders completely.
	var fmmRow, radixRow []string
	for _, row := range t1.Rows {
		switch row[0] {
		case "fmm":
			fmmRow = row
		case "radix":
			radixRow = row
		}
	}
	if fmmRow == nil || fmmRow[1] != missingCell {
		t.Fatalf("fmm row = %v, want missing-cell placeholders", fmmRow)
	}
	for i, cell := range radixRow {
		if cell == missingCell {
			t.Fatalf("radix row cell %d degraded, want complete row %v", i, radixRow)
		}
	}
	noted := false
	for _, n := range t1.Notes {
		if strings.Contains(n, "missing fmm") && strings.Contains(n, "panic") {
			noted = true
		}
	}
	if !noted {
		t.Fatalf("no missing-row note in %q", t1.Notes)
	}

	// One failure in the ledger after its first attempt, with the stack
	// captured as a panic classification; the campaign exits degraded.
	if n := panicked.Load(); n != 1 {
		t.Fatalf("panicking run simulated %d times under Retries = 1, want 1", n)
	}
	failed := r1.FailedRuns()
	if len(failed) != 1 {
		t.Fatalf("failed runs = %+v, want exactly 1", failed)
	}
	fr := failed[0]
	if fr.Status != StatusFailed || fr.Source != "sim" || fr.Attempts != 1 ||
		fr.Benchmark != "fmm" || !strings.Contains(fr.Error, "simulation panic") {
		t.Fatalf("failure record = %+v", fr)
	}
	if got := r1.ExitCode(); got != ExitDegraded {
		t.Fatalf("exit code = %d, want %d (degraded)", got, ExitDegraded)
	}
	if e, ok := r1.Journal.Lookup(fr.Hash); !ok || e.Status != StatusFailed || e.Attempt != 1 {
		t.Fatalf("journal entry = %+v", e)
	}
	if err := r1.Journal.Close(); err != nil {
		t.Fatal(err)
	}

	// Campaign 2 (resume): zero re-simulations — successes come from the
	// cache, the failure is recalled from the journal — and the rendered
	// figure is byte-identical, panics and all.
	r2 := chaosRunner(t, dir)
	r2.testHook = func(config.Config, string, int) {
		t.Error("resume ran a simulation; want zero")
	}
	t2, err := r2.Figure("4")
	if err != nil {
		t.Fatalf("resumed figure aborted: %v", err)
	}
	if got := r2.FreshRuns(); got != 0 {
		t.Fatalf("resume ran %d fresh simulations, want 0", got)
	}
	if hits, rec := r2.CacheHits(), r2.RecalledFailures(); hits != 5 || rec != 1 {
		t.Fatalf("resume: %d cache hits, %d journal recalls; want 5, 1", hits, rec)
	}
	if t1.String() != t2.String() {
		t.Fatalf("resumed figure differs:\n--- first\n%s\n--- resumed\n%s", t1, t2)
	}
	if got := r2.ExitCode(); got != ExitDegraded {
		t.Fatalf("resumed exit code = %d, want %d", got, ExitDegraded)
	}
	if err := r2.Journal.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestChaosInterruptResume(t *testing.T) {
	dir := t.TempDir()

	// Campaign 1: serial execution; the 5th of 6 runs cancels the campaign
	// context as it starts — the moral equivalent of a SIGINT landing
	// mid-campaign, after the drain window.
	r1 := chaosRunner(t, dir)
	r1.Jobs = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r1.Ctx = ctx
	r1.testHook = func(cfg config.Config, bench string, attempt int) {
		if bench == "fmm" && cfg.Network.Kind == config.EMeshBCast {
			cancel()
		}
	}
	specs := r1.FigureRuns("4")
	if len(specs) != 6 {
		t.Fatalf("fig 4 campaign has %d runs, want 6", len(specs))
	}
	err := r1.RunAll(ctx, specs)
	if err == nil || !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted campaign returned %v, want ErrInterrupted", err)
	}
	if !r1.Interrupted() || r1.ExitCode() != ExitInterrupted {
		t.Fatalf("interrupted=%v exit=%d, want true/%d", r1.Interrupted(), r1.ExitCode(), ExitInterrupted)
	}
	// Journal: the four completed runs are done; the cut-off run stays
	// "running" (so resume re-runs it); the never-started run has no
	// record at all.
	var done, running int
	for _, s := range specs {
		if e, ok := r1.Journal.Lookup(r1.RunHash(s.Cfg, s.Bench)); ok {
			switch e.Status {
			case StatusDone:
				done++
			case StatusRunning:
				running++
			}
		}
	}
	if done != 4 || running != 1 {
		t.Fatalf("journal after interrupt: %d done, %d running; want 4, 1", done, running)
	}
	if err := r1.Journal.Close(); err != nil {
		t.Fatal(err)
	}

	// Campaign 2 (resume): only the cut-off and never-started runs
	// simulate; the four completed ones come from the cache. No run
	// executes twice to completion.
	r2 := chaosRunner(t, dir)
	if err := r2.RunAll(nil, specs); err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if fresh, hits := r2.FreshRuns(), r2.CacheHits(); fresh != 2 || hits != 4 {
		t.Fatalf("resume: %d fresh, %d cached; want 2, 4", fresh, hits)
	}
	if r2.ExitCode() != ExitOK {
		t.Fatalf("resumed exit code = %d, want 0", r2.ExitCode())
	}
	t2, err := r2.Figure("4")
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Journal.Close(); err != nil {
		t.Fatal(err)
	}

	// The stitched-together campaign must be indistinguishable from one
	// that was never interrupted.
	ref := NewRunner(Options{Cores: 16, Scale: 1, Seed: 42})
	ref.Apps = []string{"radix", "fmm"}
	ref.Jobs = 2
	tRef, err := ref.Figure("4")
	if err != nil {
		t.Fatal(err)
	}
	if t2.String() != tRef.String() {
		t.Fatalf("resumed figure differs from uninterrupted reference:\n--- resumed\n%s\n--- reference\n%s", t2, tRef)
	}
}

// TestChaosInterruptDuringRetryBackoff cancels the campaign while a run
// cut by its per-run deadline waits out its retry backoff. The run must end
// like one cut off mid-attempt: an interrupted event after its start, a
// ledger row with the attempt's wall time, and an error that wraps
// ErrInterrupted and keeps the deadline as its cause — without waiting out
// the hour-long backoff.
func TestChaosInterruptDuringRetryBackoff(t *testing.T) {
	r := NewRunner(Options{Cores: 16, Scale: 1, Seed: 42})
	r.Retries = 1
	r.RunTimeout = time.Nanosecond // expired before the kernel's first poll
	r.backoffBase, r.backoffCap = time.Hour, time.Hour
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.testHook = func(_ config.Config, _ string, attempt int) {
		time.Sleep(2 * time.Millisecond) // a wall time the ledger row must keep
		if attempt == 1 {
			// The attempt fails at the kernel's first poll, so the cancel
			// lands in the hour-long backoff that follows it.
			time.AfterFunc(50*time.Millisecond, cancel)
		}
	}
	var events []RunEvent
	r.Events = func(ev RunEvent) { events = append(events, ev) }

	start := time.Now()
	_, err := r.RunContext(ctx, r.Opt.Config(config.ATACPlus), "radix")
	if took := time.Since(start); took > time.Minute {
		t.Fatalf("cancelled run took %v: the backoff was waited out", took)
	}
	cause := ErrRunDeadline.Error()
	if !errors.Is(err, ErrInterrupted) || !strings.Contains(err.Error(), cause) {
		t.Fatalf("error %v: want ErrInterrupted carrying the attempt's deadline", err)
	}
	var phases []string
	for _, ev := range events {
		phases = append(phases, ev.Phase)
	}
	if len(events) != 2 || events[0].Phase != PhaseStart || events[1].Phase != PhaseInterrupted {
		t.Fatalf("events %v, want [start interrupted]", phases)
	}
	if ev := events[1]; ev.Attempt != 1 || !strings.Contains(ev.Error, cause) {
		t.Fatalf("interrupted event: attempt %d, error %q", ev.Attempt, ev.Error)
	}
	ledger := r.Ledger()
	if len(ledger) != 1 {
		t.Fatalf("ledger has %d rows, want 1", len(ledger))
	}
	if row := ledger[0]; row.Status != "interrupted" || row.Attempts != 1 || row.WallMS < 2 ||
		!strings.Contains(row.Error, cause) {
		t.Fatalf("ledger row %+v: want interrupted after 1 attempt, its wall time and its deadline", row)
	}
	if !r.Interrupted() {
		t.Fatal("runner not marked interrupted")
	}
}

// TestQuiesce covers the drain half of graceful shutdown: after Quiesce a
// memoized run is still served, while a run that needs fresh simulation
// fails fast with ErrInterrupted, simulates nothing, and leaves the Runner
// reporting Interrupted.
func TestQuiesce(t *testing.T) {
	r := testCampaignRunner()
	cfg := testCampaignOpts().Config(config.ATACPlus)
	want, err := r.Run(cfg, "radix")
	if err != nil {
		t.Fatal(err)
	}
	r.Quiesce()
	if r.Interrupted() {
		t.Fatal("Quiesce alone reported an interrupted run")
	}
	got, err := r.Run(cfg, "radix")
	if err != nil || got.Cycles != want.Cycles || got.Instructions != want.Instructions {
		t.Fatalf("memoized run after Quiesce: %d cycles, err %v; want %d cycles", got.Cycles, err, want.Cycles)
	}
	if _, err := r.Run(cfg, "dynamic_graph"); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("fresh run after Quiesce returned %v, want ErrInterrupted", err)
	}
	if r.FreshRuns() != 1 || !r.Interrupted() {
		t.Errorf("after Quiesce: %d fresh runs (want 1), interrupted=%v (want true)", r.FreshRuns(), r.Interrupted())
	}
}

func TestChaosRunDeadlineIsTransientAndRetried(t *testing.T) {
	r := NewRunner(Options{Cores: 16, Scale: 1, Seed: 42})
	r.Retries = 2
	r.RunTimeout = time.Nanosecond // expired before the kernel's first poll
	r.backoffBase, r.backoffCap = 100*time.Microsecond, time.Millisecond
	lastAttempt := 0
	r.testHook = func(_ config.Config, _ string, attempt int) { lastAttempt = attempt }

	_, err := r.Run(r.Opt.Config(config.ATACPlus), "radix")
	if err == nil {
		t.Fatal("deadline-doomed run succeeded")
	}
	if !errors.Is(err, ErrRunDeadline) {
		t.Fatalf("error %v does not wrap ErrRunDeadline", err)
	}
	if lastAttempt != 3 {
		t.Fatalf("deadline failure retried to attempt %d, want 3 (transient classification)", lastAttempt)
	}
	if !strings.Contains(err.Error(), "attempt 3/3") {
		t.Fatalf("error %v does not carry the attempt count", err)
	}
	if len(r.FailedRuns()) != 1 {
		t.Fatalf("ledger = %+v, want one failure", r.Ledger())
	}
}

// A panic inside a workload Program surfaces from the kernel event that
// resumed it — on the serial engine directly, on the sharded engine
// re-raised from the shard worker — so the Runner's panic isolation turns
// it into a failed run carrying the panic value instead of losing the
// process, and the machine's other program coroutines do not outlive the
// run. The hook stands in for a catalog workload with a bug.
func TestChaosWorkloadPanicIsFailedRun(t *testing.T) {
	spec := workload.Spec{Name: "buggy", Program: func(p *cpu.Proc) {
		p.Compute(10)
		if p.ID() == 3 {
			panic("chaos: workload bug")
		}
		p.Store(uint64(0x1000+64*p.ID()), 1)
	}}
	for _, shards := range []int{1, 2} {
		before := runtime.NumGoroutine()
		r := NewRunner(Options{Cores: 16, Scale: 1, Seed: 42})
		r.testHook = func(cfg config.Config, _ string, _ int) {
			sys, err := system.NewSharded(cfg, shards)
			if err != nil {
				t.Error(err)
				return
			}
			if sys.Shards != shards {
				t.Errorf("NewSharded(cfg, %d) built %d shards", shards, sys.Shards)
			}
			sys.Run(spec, 0)
			t.Errorf("shards=%d: run with a panicking program returned", shards)
		}
		_, err := r.Run(r.Opt.Config(config.ATACPlus), "radix")
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("shards=%d: error %v is not a PanicError", shards, err)
		}
		for _, want := range []string{"chaos: workload bug", "core 3"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("shards=%d: error lacks %q: %v", shards, want, err)
			}
		}
		if fr := r.FailedRuns(); len(fr) != 1 || fr[0].Status != StatusFailed {
			t.Errorf("shards=%d: ledger = %+v, want one failed run", shards, r.Ledger())
		}
		// Shard workers exit just after Close returns; wait for them.
		for end := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(end); {
			runtime.Gosched()
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("shards=%d: %d goroutines after the failed run, %d before", shards, got, before)
		}
	}
}

// TestLedgerMatchesTerminalEvents checks that every ledger row and every
// journal record agrees with its run's last event (status, attempts, wall
// time, error) across fresh, failed, cached and journal-recalled runs, a
// deadline-cut run retried to completion and a run interrupted in its
// retry backoff, and that a recalled failure's event carries the wall time
// its journal record kept.
func TestLedgerMatchesTerminalEvents(t *testing.T) {
	dir := t.TempDir()
	for pass, wantSources := range []string{"sim", "cache journal"} {
		r := chaosRunner(t, dir)
		r.Apps = []string{"radix"}
		r.testHook = func(cfg config.Config, _ string, _ int) {
			if cfg.Network.Kind == config.EMeshPure {
				panic("chaos: injected panic")
			}
		}
		last := map[string]RunEvent{}
		starts := 0
		r.Events = func(ev RunEvent) {
			last[ev.Hash] = ev
			if ev.Phase == PhaseStart {
				starts++
			}
		}
		if _, err := r.Figure("4"); err != nil {
			t.Fatal(err)
		}
		ledger := r.Ledger()
		if len(ledger) != 3 {
			t.Fatalf("pass %d: %d ledger rows, want 3", pass, len(ledger))
		}
		for _, row := range ledger {
			ev := last[row.Hash]
			status := map[string]string{PhaseCached: StatusDone, PhaseRecalled: StatusFailed}[ev.Phase]
			if status == "" {
				status = ev.Phase
			}
			if row.Status != status || row.Attempts != ev.Attempt || row.WallMS != ev.WallMS || row.Error != ev.Error {
				t.Errorf("pass %d: ledger row %+v disagrees with its last event %+v", pass, row, ev)
			}
			if !strings.Contains(wantSources, row.Source) {
				t.Errorf("pass %d: row source %q, want one of %q", pass, row.Source, wantSources)
			}
			if row.Status == StatusFailed && row.WallMS <= 0 {
				t.Errorf("pass %d: failed row %+v has no wall time", pass, row)
			}
			checkJournalRecord(t, r.Journal, ev)
		}
		checkCounters(t, fmt.Sprintf("pass %d", pass), r, starts)
		if err := r.Journal.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Two dispositions a figure does not reach, one run each, with their
	// whole event sequence. Every attempt's deadline has expired before the
	// kernel's first poll.
	for _, c := range []struct {
		name   string
		arm    func(r *Runner, cancel context.CancelFunc)
		phases string
	}{
		{"retry then done", func(r *Runner, _ context.CancelFunc) {
			r.testHook = func(_ config.Config, _ string, attempt int) {
				if attempt == 1 {
					r.RunTimeout = 0 // this attempt's deadline is already set
				}
			}
		}, "start retry done"},
		{"interrupted during backoff", func(r *Runner, cancel context.CancelFunc) {
			r.backoffBase, r.backoffCap = time.Hour, time.Hour
			r.testHook = func(_ config.Config, _ string, attempt int) {
				if attempt == 1 {
					time.AfterFunc(50*time.Millisecond, cancel)
				}
			}
		}, "start interrupted"},
	} {
		r := chaosRunner(t, t.TempDir())
		r.Retries, r.RunTimeout = 1, time.Nanosecond
		ctx, cancel := context.WithCancel(context.Background())
		c.arm(r, cancel)
		var phases []string
		var last RunEvent
		r.Events = func(ev RunEvent) { phases = append(phases, ev.Phase); last = ev }
		_, _ = r.RunContext(ctx, r.Opt.Config(config.ATACPlus), "radix")
		cancel()
		if got := strings.Join(phases, " "); got != c.phases {
			t.Errorf("%s: events [%s], want [%s]", c.name, got, c.phases)
		}
		ledger := r.Ledger()
		if len(ledger) != 1 {
			t.Fatalf("%s: %d ledger rows, want 1", c.name, len(ledger))
		}
		if row := ledger[0]; row.Status != last.Phase || row.Attempts != last.Attempt ||
			row.WallMS != last.WallMS || row.Error != last.Error {
			t.Errorf("%s: ledger row %+v disagrees with its last event %+v", c.name, row, last)
		}
		checkJournalRecord(t, r.Journal, last)
		checkCounters(t, c.name, r, strings.Count(" "+c.phases+" ", " "+PhaseStart+" "))
		if err := r.Journal.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// checkJournalRecord checks a run's last journal record against its
// terminal event. A cached run keeps the record of the run that stored
// its entry, and an interrupted one the record its last attempt began.
func checkJournalRecord(t *testing.T, j *Journal, ev RunEvent) {
	t.Helper()
	e, ok := j.Lookup(ev.Hash)
	want := JournalEntry{Hash: ev.Hash, Key: ev.Benchmark + "@" + ev.Config, Status: ev.Phase,
		Attempt: ev.Attempt, WallMS: ev.WallMS, Error: ev.Error, At: e.At}
	switch ev.Phase {
	case PhaseCached:
		want.Status, want.Attempt, want.WallMS = StatusDone, e.Attempt, e.WallMS
	case PhaseRecalled:
		want.Status = StatusFailed
	case PhaseInterrupted:
		want.Status, want.WallMS, want.Error = StatusRunning, 0, ""
	}
	if !ok || e != want {
		t.Errorf("journal record %+v (found %v) disagrees with the terminal event %+v", e, ok, ev)
	}
}

// checkCounters holds a Runner's counters to what defines them: FreshRuns
// to the start events it emitted, CacheHits to the ledger rows sourced from
// the cache, RecalledFailures to those sourced from the journal, and
// Interrupted to whether any row is interrupted.
func checkCounters(t *testing.T, name string, r *Runner, starts int) {
	t.Helper()
	var cache, journal uint64
	interrupted := false
	for _, row := range r.Ledger() {
		switch row.Source {
		case "cache":
			cache++
		case "journal":
			journal++
		}
		interrupted = interrupted || row.Status == PhaseInterrupted
	}
	if got := r.FreshRuns(); got != uint64(starts) {
		t.Errorf("%s: FreshRuns %d, want %d start events", name, got, starts)
	}
	if got := r.CacheHits(); got != cache {
		t.Errorf("%s: CacheHits %d, want %d cache rows", name, got, cache)
	}
	if got := r.RecalledFailures(); got != journal {
		t.Errorf("%s: RecalledFailures %d, want %d journal rows", name, got, journal)
	}
	if got := r.Interrupted(); got != interrupted {
		t.Errorf("%s: Interrupted %v, want %v from the ledger", name, got, interrupted)
	}
}
