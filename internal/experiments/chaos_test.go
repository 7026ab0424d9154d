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

	// Campaign 1: one run (fmm on EMesh-Pure) panics on every attempt.
	r1 := chaosRunner(t, dir)
	r1.Retries = 1
	r1.testHook = func(cfg config.Config, bench string, attempt int) {
		if bench == "fmm" && cfg.Network.Kind == config.EMeshPure {
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

	// One failure in the ledger, with both attempts spent and the stack
	// captured as a panic classification; the campaign exits degraded.
	failed := r1.FailedRuns()
	if len(failed) != 1 {
		t.Fatalf("failed runs = %+v, want exactly 1", failed)
	}
	fr := failed[0]
	if fr.Status != StatusFailed || fr.Source != "sim" || fr.Attempts != 2 ||
		fr.Benchmark != "fmm" || !strings.Contains(fr.Error, "simulation panic") {
		t.Fatalf("failure record = %+v", fr)
	}
	if got := r1.ExitCode(); got != ExitDegraded {
		t.Fatalf("exit code = %d, want %d (degraded)", got, ExitDegraded)
	}
	if e, ok := r1.Journal.Lookup(fr.Hash); !ok || e.Status != StatusFailed || e.Attempt != 2 {
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
	ref.Cache = nil
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

func TestChaosRunDeadlineIsTransientAndRetried(t *testing.T) {
	r := NewRunner(Options{Cores: 16, Scale: 1, Seed: 42})
	r.Cache = nil
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
		r.Cache = nil
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
