// Graceful-shutdown plumbing shared by the campaign commands
// (cmd/figures, cmd/sweep): two-stage SIGINT/SIGTERM handling and the
// process exit-code policy.
//
// Stage one (first signal) quiesces the Runner — in-flight simulations
// drain to completion, runs that would need fresh simulation fail fast
// with ErrInterrupted, and rendering proceeds degraded from whatever
// completed. Stage two (a second signal, or the grace period expiring)
// hard-cancels the campaign context; the sim kernels notice at their next
// cancellation poll and abandon their runs, whose journal records stay
// "running" so a resumed campaign re-runs exactly those.
package experiments

import (
	"context"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// Process exit codes for campaign commands. Distinct codes let scripts
// (and the CI interrupt-resume smoke test) tell a clean campaign from a
// degraded one from an interrupted one.
const (
	ExitOK          = 0 // every run completed
	ExitFatal       = 1 // setup or I/O error; nothing meaningful produced
	ExitDegraded    = 3 // campaign finished, but some runs terminally failed
	ExitInterrupted = 4 // SIGINT/SIGTERM cut the campaign short
)

// ExitCode maps the campaign's final state to a process exit code. An
// interrupt dominates run failures: the caller's next move is to resume,
// not to investigate.
func (r *Runner) ExitCode() int {
	switch {
	case r.Interrupted():
		return ExitInterrupted
	case len(r.FailedRuns()) > 0:
		return ExitDegraded
	}
	return ExitOK
}

// InstallSignalHandler wires two-stage graceful shutdown into the Runner
// and returns the campaign's hard-cancellation context plus a stop
// function. Call stop when the campaign is over: it detaches the signal
// handler (restoring default signal behavior) and releases the context.
// logf, if non-nil, receives progress messages ("draining", "cancelling").
// onDrain, if non-nil, runs when the first signal quiesces the Runner. The
// serving daemon uses it to stop admitting work and to flip /healthz while
// the same two-stage machinery drains the queue.
func (r *Runner) InstallSignalHandler(grace time.Duration, logf func(format string, args ...any), onDrain func()) (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	r.Ctx = ctx

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case s := <-sigs:
			if logf != nil {
				logf("%v: draining in-flight runs (signal again to cancel now; hard cancel in %v)", s, grace)
			}
			r.Quiesce()
			if onDrain != nil {
				onDrain()
			}
			timer := time.NewTimer(grace)
			defer timer.Stop()
			select {
			case <-timer.C:
			case <-sigs:
			case <-done:
				return
			}
			if logf != nil {
				logf("cancelling in-flight runs")
			}
			cancel()
		case <-done:
		}
	}()

	var once sync.Once
	stop := func() {
		once.Do(func() {
			signal.Stop(sigs)
			close(done)
			cancel()
		})
	}
	return ctx, stop
}
