// Package trace provides a lightweight ring-buffer event tracer for
// debugging protocol and network behaviour: components record one-line
// events with their simulated timestamp; the ring keeps the most recent N
// and can be dumped on demand (atacsim -trace) or when a test fails.
// Recording through a nil *Ring is a no-op, so tracing costs nothing when
// disabled. Each event is a metrics.Instant, the point event the Chrome
// trace export merges onto its timeline.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Ring is a fixed-capacity event recorder. The zero value is unusable;
// create with New. A nil ring ignores all records.
type Ring struct {
	entries []metrics.Instant
	next    int
	total   uint64
	clock   sim.Clock
}

// New creates a ring holding the most recent n events.
func New(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{entries: make([]metrics.Instant, 0, n)}
}

// BindClock attaches the simulated-time source Recordf stamps entries
// from. The first bound clock wins, so call sites can bind idempotently;
// binding the kernel keeps trace timestamps on the same sim.Time axis as
// the metrics layer's epochs (one clock, no parallel plumbing).
func (r *Ring) BindClock(c sim.Clock) {
	if r != nil && r.clock == nil {
		r.clock = c
	}
}

// Clock returns the bound simulated-time source (nil if unbound).
func (r *Ring) Clock() sim.Clock {
	if r == nil {
		return nil
	}
	return r.clock
}

// Recordf adds an event stamped from the bound clock. Callers that have
// bound a clock use this instead of plumbing the kernel's Now through
// every call site. An unbound ring stamps time zero.
func (r *Ring) Recordf(kind, format string, args ...any) {
	if r == nil {
		return
	}
	var at sim.Time
	if r.clock != nil {
		at = r.clock.Now()
	}
	r.Record(at, kind, format, args...)
}

// Record adds an event of category kind (e.g. "dir", "net", "cache").
// Arguments are formatted only when the ring is non-nil.
func (r *Ring) Record(at sim.Time, kind, format string, args ...any) {
	if r == nil {
		return
	}
	e := metrics.Instant{At: at, Cat: kind, Name: fmt.Sprintf(format, args...)}
	if len(r.entries) < cap(r.entries) {
		r.entries = append(r.entries, e)
	} else {
		r.entries[r.next] = e
	}
	r.next = (r.next + 1) % cap(r.entries)
	r.total++
}

// Total returns how many events were recorded (including overwritten ones).
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Entries returns the retained events in chronological order.
func (r *Ring) Entries() []metrics.Instant {
	if r == nil || len(r.entries) == 0 {
		return nil
	}
	if len(r.entries) < cap(r.entries) {
		return append([]metrics.Instant(nil), r.entries...)
	}
	out := make([]metrics.Instant, 0, len(r.entries))
	out = append(out, r.entries[r.next:]...)
	out = append(out, r.entries[:r.next]...)
	return out
}

// Dump renders the retained events, one per line.
func (r *Ring) Dump() string {
	var sb strings.Builder
	for _, e := range r.Entries() {
		fmt.Fprintf(&sb, "%10d [%s] %s\n", e.At, e.Cat, e.Name)
	}
	return sb.String()
}
