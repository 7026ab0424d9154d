// Simulation health: a progress watchdog that detects wedged runs
// (deadlock or livelock) long before the horizon, and reports which cores
// are stuck and why instead of silently burning the remaining cycles.
package system

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// watchdog periodically samples global progress (retired instructions and
// delivered network flits). After a configured number of consecutive
// sample windows with no progress on either axis it trips: it halts the
// engine with an ErrStalled cause carrying a per-core blocked-state
// report, so Run returns immediately rather than at the horizon.
//
// The watchdog's own periodic event doubles as the heartbeat that keeps
// simulated time advancing when every core is asleep on a spin-wait (an
// idle deadlock drains the event queue — without the heartbeat the kernel
// would stop the clock and the stall would go undetected until the
// horizon).
type watchdog struct {
	s         *System
	interval  sim.Time
	maxStalls int

	lastInstr     uint64
	lastDelivered uint64
	stalls        int
}

// startWatchdog arms the watchdog; interval and maxStalls must be
// positive (the caller gates on the config).
//
// On a serial engine the watchdog is one self-rescheduling kernel event.
// On a sharded engine the progress check must not run inside a shard's
// events (it reads every shard's counters, and the shards run a window
// one after another), so it is split: a heartbeat event on shard 0 keeps
// simulated time — and with it the window barriers — advancing through
// idle phases, while the check itself runs as a barrier hook, where every
// shard has finished the window and all clocks agree. A trip halts the engine, so neither the heartbeat nor the
// hook runs again.
func startWatchdog(s *System, interval sim.Time, maxStalls int) {
	w := &watchdog{s: s, interval: interval, maxStalls: maxStalls}
	if s.sh != nil {
		var beat func()
		beat = func() { s.K.Schedule(w.interval, beat) }
		s.K.Schedule(w.interval, beat)
		next := w.interval
		s.sh.AddBarrierHook(func(now sim.Time) {
			if now < next {
				return
			}
			next = now + w.interval
			w.check()
		})
		return
	}
	s.K.Schedule(interval, w.tick)
}

func (w *watchdog) tick() {
	if !w.check() {
		w.s.K.Schedule(w.interval, w.tick)
	}
}

// check samples global progress and trips after maxStalls stagnant
// windows, halting the engine. Reports whether the watchdog tripped.
func (w *watchdog) check() bool {
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
		return false
	}
	// The serial kernel stops at the next event boundary, the sharded
	// engine at the next window barrier; every queued event survives for
	// post-mortem inspection.
	w.s.eng.Halt(fmt.Errorf("%w: %s", ErrStalled, w.blockedReport()))
	return true
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
