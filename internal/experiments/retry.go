// Failure classification and retry policy for campaign runs.
//
// A run can die three ways, and each gets a different response:
//
//   - a per-run wall-clock deadline: *transient* — host load can differ
//     between attempts, so the run is retried with bounded exponential
//     backoff before being marked failed;
//   - a panic in the simulator (worker isolation catches it with its
//     stack), a watchdog trip, event-budget exhaustion, horizon overrun,
//     or validation failure: *deterministic* — the simulation will
//     reproduce it exactly, so the run fails fast on the first attempt;
//   - campaign-level cancellation (SIGINT/SIGTERM): not a failure at all —
//     the run is left "running" in the journal so a resumed campaign
//     simply runs it again.
package experiments

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"
)

// ErrRunDeadline is the cancellation cause installed by a per-run
// wall-clock deadline (Runner.RunTimeout), distinguishing "this run was
// too slow" from "the whole campaign was interrupted".
var ErrRunDeadline = errors.New("per-run wall-clock deadline exceeded")

// ErrInterrupted marks a run the campaign never simulated (or abandoned
// mid-flight) because the campaign itself was cancelled or quiesced.
var ErrInterrupted = errors.New("campaign interrupted before this run completed")

// PanicError is a panic captured from an isolated simulation worker,
// preserving the panic value and the goroutine stack at the point of
// recovery.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("simulation panic: %v", e.Value)
}

// transientFailure reports whether a retry could plausibly change the
// outcome (see the package comment's failure taxonomy).
func transientFailure(err error) bool { return errors.Is(err, ErrRunDeadline) }

// Default backoff schedule: 100ms, 200ms, 400ms, ... capped at 5s, each
// jittered. Tests shrink these via the Runner's unexported overrides.
const (
	defaultBackoffBase = 100 * time.Millisecond
	defaultBackoffCap  = 5 * time.Second
)

// RetryBackoff returns the pause before re-attempting an operation:
// exponential in the attempt number, capped, with deterministic jitter in
// [d/2, d] seeded from the key and attempt — so a retrying campaign (or a
// reconnecting atacctl client, which keys on the request path) is
// reproducible, yet simultaneous retries of different keys do not
// stampede in phase. Non-positive base or cap take the campaign defaults.
func RetryBackoff(key string, attempt int, base, cap time.Duration) time.Duration {
	if base <= 0 {
		base = defaultBackoffBase
	}
	if cap <= 0 {
		cap = defaultBackoffCap
	}
	d := base
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|attempt=%d", key, attempt)
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + int64(h.Sum64()%uint64(half+1)))
}
