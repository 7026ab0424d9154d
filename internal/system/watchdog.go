// Simulation health: a progress watchdog that detects wedged runs
// (deadlock or livelock) long before the horizon, and reports which cores
// are stuck and why instead of silently burning the remaining cycles.
package system

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// watchdog samples global progress (retired instructions and delivered
// network flits) at every multiple of its interval, between engine runs
// (runKernel), on either engine: it adds no event, and Run(until) moves
// the clock to until even on a drained queue, so an idle deadlock still
// reaches the next check. After maxStalls consecutive windows with no
// progress on either axis it trips with an ErrStalled error carrying a
// per-core blocked-state report.
type watchdog struct {
	s         *System
	interval  sim.Time
	maxStalls int
	next      sim.Time // cycle of the next check

	lastInstr     uint64
	lastDelivered uint64
	stalls        int
}

// newWatchdog returns the watchdog the Fault section arms, or nil when
// WatchdogInterval is 0. WatchdogStalls 0 means 3.
func newWatchdog(s *System) *watchdog {
	f := s.Cfg.Fault
	if f.WatchdogInterval == 0 {
		return nil
	}
	if f.WatchdogStalls == 0 {
		f.WatchdogStalls = 3
	}
	iv := sim.Time(f.WatchdogInterval)
	return &watchdog{s: s, interval: iv, maxStalls: f.WatchdogStalls, next: s.eng.Now() + iv}
}

// check samples global progress at the check cycle and returns the stall
// error after maxStalls stagnant windows.
func (w *watchdog) check() error {
	w.next += w.interval
	var instr uint64
	for _, c := range w.s.Core {
		instr += c.Instructions
	}
	delivered := w.s.Net.Stats().Delivered
	if instr == w.lastInstr && delivered == w.lastDelivered {
		w.stalls++
	} else {
		w.stalls = 0
	}
	w.lastInstr, w.lastDelivered = instr, delivered
	if w.stalls < w.maxStalls {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrStalled, w.blockedReport())
}

// blockedReport names every unfinished core and its coherence-layer
// blocked state at trip time.
func (w *watchdog) blockedReport() string {
	var b strings.Builder
	window := sim.Time(w.maxStalls) * w.interval
	fmt.Fprintf(&b, "no progress for %d cycles (instr=%d, delivered=%d) at cycle %d; stuck cores:",
		window, w.lastInstr, w.lastDelivered, w.s.eng.Now())
	stuck := 0
	for _, c := range w.s.Core {
		if c.Finished {
			continue
		}
		stuck++
		fmt.Fprintf(&b, "\n  core %d: %s", c.ID, w.s.Coh.CoreState(c.ID))
	}
	if stuck == 0 {
		b.WriteString(" (none — all cores finished; in-flight traffic stalled)")
	}
	return b.String()
}
