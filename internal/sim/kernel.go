// Package sim provides a deterministic discrete-event simulation kernel.
//
// All architectural components in this repository (cores, caches, network
// routers, optical links, memory controllers) are driven by a single Kernel.
// Events for the same cycle run in scheduling order (FIFO), which makes
// every simulation fully deterministic for a given configuration and seed.
//
// The kernel is a hierarchical timing wheel: events within the wheel
// horizon (4096 cycles — covering every latency in the modelled system)
// go to O(1) per-cycle buckets; rarer far-future events go to a small
// binary heap and are folded into their bucket when their cycle begins.
// Within a cycle, events run in the order they joined its bucket: a near
// event joins when it is scheduled, a far one when the clock arrives at
// its cycle (after the near events already there, in scheduling order,
// and before anything the cycle's own events schedule).
//
// Neither queue allocates per event in steady state: the heap sifts a
// typed slice (no event is boxed in an interface), and a drained bucket's
// array goes onto a spare list that the next empty or outgrown bucket
// takes, so the wheel holds arrays for its live buckets only, not 4096
// arrays each grown to the busiest cycle they ever held. The spare list
// itself keeps at most maxSpare arrays, so a burst that once made many
// buckets live at the same time does not pin their arrays for the rest of
// the run.
//
// A run that ends early says why through one latch: the event budget
// latches ErrEventBudget and the cancellation poll the error it returns,
// each at the event boundary where it happens (a livelock spinning inside
// one cycle never returns from Run). Stopped reads the cause back; Run and
// Step execute nothing while one is latched, and queued events stay.
package sim

import (
	"errors"
	"fmt"
)

// ErrEventBudget is the stop cause a kernel latches when the event budget
// set by SetEventBudget (the livelock backstop) runs out.
var ErrEventBudget = errors.New("sim: event budget exhausted")

// Time is simulated time measured in clock cycles. All components in this
// repository share a single 1 GHz clock domain (Table I of the paper), so a
// cycle is also a nanosecond.
type Time uint64

// Clock is the read-only simulated-time source. The observability layers
// (internal/trace, internal/metrics) take a Clock instead of a full
// *Kernel so that every timestamp in a run — trace entries, metric epochs,
// exported Chrome trace events — is stamped from the one kernel clock and
// the two packages cannot drift apart.
type Clock interface {
	Now() Time
}

// Forever is a sentinel time far beyond any realistic simulation horizon.
const Forever = Time(1) << 62

// maxSpare bounds the spare list. A 1024-core ATAC+ radix run needs a few
// dozen live buckets most of the time, but its bursts need up to 760
// arrays (2.9 MB), which an unbounded list keeps between them and after
// the last.
const maxSpare = 256

const (
	wheelBits = 12
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

type farEvent struct {
	at  Time
	seq uint64
	fn  func()
}

// before is the heap order. seq is unique, so (at, seq) is a total order
// and any correct heap pops the same sequence.
func (e farEvent) before(o farEvent) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// farHeap is a binary min-heap of far events on (at, seq).
type farHeap []farEvent

func (h *farHeap) push(e farEvent) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = e
}

// pop removes the earliest event and returns its function.
func (h *farHeap) pop() func() {
	s := *h
	fn := s[0].fn
	n := len(s) - 1
	last := s[n]
	s[n] = farEvent{}
	s = s[:n]
	*h = s
	if n == 0 {
		return fn
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].before(s[c]) {
			c++
		}
		if !s[c].before(last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
	return fn
}

// Kernel is a discrete-event simulator. The zero value is ready to use.
type Kernel struct {
	now Time

	wheel      [wheelSize][]func()
	wheelCount int        // unprocessed events currently in the wheel
	idx        int        // next unprocessed index in the current cycle's bucket
	spare      [][]func() // drained bucket arrays, most recent last

	far    farHeap
	farSeq uint64

	// Executed-event budget (livelock backstop). budgeted distinguishes
	// "no budget set" from "budget of zero": the zero-value kernel runs
	// unbounded, exactly as before the budget existed.
	budget   uint64
	budgeted bool

	// Cooperative cancellation (SetPoll): poll is consulted every
	// pollEvery executed events. Unlike the event budget — which counts
	// simulated work — the poll escapes to wall clock, so a livelocked
	// run spinning on one cycle is still interruptible.
	poll      func() error
	pollEvery uint64
	pollLeft  uint64

	stop error // latched stop cause (budget or poll); nil while running

	// gated is set while a budget or a poll is in place, so Run's event
	// loop tests one flag before calling spend (too large to inline) for
	// every event.
	gated bool
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Schedule runs fn after delay cycles (delay 0 means later this cycle,
// after all currently pending work for this cycle).
func (k *Kernel) Schedule(delay Time, fn func()) {
	k.At(k.now+delay, fn)
}

// SetEventBudget allows Run/Step to execute at most n further events;
// once they are spent the kernel latches ErrEventBudget and stops before
// the clock moves again. The budget is a backstop, not a scheduler:
// queued events stay queued when it runs out.
func (k *Kernel) SetEventBudget(n uint64) {
	k.budget = n
	k.budgeted = true
	k.regate()
}

// SetPoll arms a cancellation check: fn is called before the first event
// and then every `every` executed events, and a non-nil return is latched
// as the stop cause at the current event boundary. The poll is how a
// wall-clock deadline (context cancellation) reaches a simulation that
// never drains its queue — the event budget bounds simulated work, the
// poll bounds real time. A nil fn disarms the check.
func (k *Kernel) SetPoll(every uint64, fn func() error) {
	if every == 0 {
		every = 1
	}
	k.poll = fn
	k.pollEvery = every
	k.pollLeft = 0
	k.regate()
}

// Stopped returns the latched stop cause: ErrEventBudget or the
// cancellation poll's error. Nil means a Run that returned ran out of
// events or reached its time limit.
func (k *Kernel) Stopped() error { return k.stop }

func (k *Kernel) regate() { k.gated = k.poll != nil || k.budgeted }

// spend gates one event's execution: a latched stop first, then the
// cancellation poll (wall clock), then the event budget (simulated work).
// It reports false when any says stop, latching the poll's or the
// budget's cause.
func (k *Kernel) spend() bool {
	if k.stop != nil {
		return false
	}
	if k.poll != nil {
		if k.pollLeft == 0 {
			if err := k.poll(); err != nil {
				k.stop = err
				return false
			}
			k.pollLeft = k.pollEvery
		}
		k.pollLeft--
	}
	if !k.budgeted {
		return true
	}
	if k.budget == 0 {
		k.stop = ErrEventBudget
		return false
	}
	k.budget--
	return true
}

// At runs fn at absolute time t. Scheduling in the past panics: it is
// always a component bug.
//
// The wheel fast path is kept branch-light so Schedule inlines into a
// direct At call at the NoC and coherence call sites; far-future events
// and full buckets take the slow paths (atFar, grow). A time before now
// underflows the unsigned subtraction to a huge delta, so the past-check
// lives in atFar.
func (k *Kernel) At(t Time, fn func()) {
	if t-k.now >= wheelSize {
		k.atFar(t, fn)
		return
	}
	b := &k.wheel[t&wheelMask]
	if n := len(*b); n < cap(*b) {
		*b = (*b)[:n+1]
		(*b)[n] = fn
	} else {
		k.grow(b, fn)
	}
	k.wheelCount++
}

// grow appends fn to a full bucket. When the most recently drained array
// (still warm in cache) is larger than the bucket's, the bucket's events
// move into it and the bucket's own array, if it has one, takes its place
// on the spare list: a bucket that was given a small array before any
// array had drained (a run that schedules a whole window up front) then
// borrows a pooled one instead of growing a private copy of it.
func (k *Kernel) grow(b *[]func(), fn func()) {
	if n := len(k.spare); n > 0 && cap(k.spare[n-1]) > cap(*b) {
		old := *b
		*b = append(k.spare[n-1], old...)
		if cap(old) > 0 {
			clear(old)
			k.spare[n-1] = old[:0]
		} else {
			k.spare[n-1] = nil
			k.spare = k.spare[:n-1]
		}
	}
	*b = append(*b, fn)
}

// atFar handles the rare cases At keeps off its fast path: events beyond
// the wheel horizon go to the binary heap, and past times panic.
func (k *Kernel) atFar(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event in the past: t=%d < now=%d", t, k.now))
	}
	k.farSeq++
	k.far.push(farEvent{at: t, seq: k.farSeq, fn: fn})
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return k.wheelCount + len(k.far) }

// NextEventTime returns the cycle of the earliest queued event at or
// after now (including unprocessed events left in the current cycle's
// bucket), or false when no events remain. The sharded synchronizer uses
// it to place lookahead windows and to jump over idle gaps; cost is
// proportional to the distance to the next event, capped by the wheel
// size.
func (k *Kernel) NextEventTime() (Time, bool) {
	var best Time
	found := false
	if k.wheelCount > 0 {
		if k.idx < len(k.wheel[k.now&wheelMask]) {
			return k.now, true
		}
		for t := k.now + 1; t < k.now+wheelSize; t++ {
			if len(k.wheel[t&wheelMask]) > 0 {
				best, found = t, true
				break
			}
		}
	}
	// Far events are folded into buckets only when their cycle arrives,
	// so the heap head can predate anything the wheel scan saw.
	if len(k.far) > 0 && (!found || k.far[0].at < best) {
		best, found = k.far[0].at, true
	}
	return best, found
}

// wheelOccupancy counts unprocessed events actually present in wheel
// buckets, independent of the wheelCount accounting. Test hook for the
// invariant wheelCount == wheelOccupancy (executed events are nil'd but
// stay in the current bucket until it recycles, hence the idx
// correction).
func (k *Kernel) wheelOccupancy() int {
	n := 0
	for i := range k.wheel {
		n += len(k.wheel[i])
	}
	return n - k.idx
}

// advance outcomes.
const (
	advNone   = iota // no events left
	advFound         //  positioned at a cycle with an unprocessed event
	advBeyond        // next event lies beyond the limit; clock stopped at limit
)

// advance positions the kernel at the next cycle holding an unprocessed
// event whose time does not exceed limit.
func (k *Kernel) advance(limit Time) int {
	for {
		b := k.wheel[k.now&wheelMask]
		if k.idx < len(b) {
			return advFound
		}
		// The current cycle is exhausted: its array (every slot already
		// nil'd) goes to the spare list for the next empty bucket. A full
		// list keeps the larger of it and the list's top, in the top's
		// place (grow swaps in the top only when it is larger), and drops
		// the other.
		if k.idx > 0 {
			switch n := len(k.spare); {
			case n < maxSpare:
				k.spare = append(k.spare, b[:0])
			case cap(b) > cap(k.spare[n-1]):
				k.spare[n-1] = b[:0]
			}
			k.wheel[k.now&wheelMask] = nil
			k.idx = 0
		}
		if k.wheelCount == 0 {
			if len(k.far) == 0 {
				return advNone
			}
			if k.far[0].at > limit {
				// Safe to jump: the wheel is empty, so no aliasing.
				k.now = limit
				return advBeyond
			}
			k.now = k.far[0].at
		} else {
			if k.now == limit {
				return advBeyond
			}
			k.now++
		}
		// Fold far events whose cycle has arrived into the bucket.
		for len(k.far) > 0 && k.far[0].at == k.now {
			k.At(k.now, k.far.pop())
		}
	}
}

// Step executes the single earliest event, advancing time to it.
// It returns false when no events remain.
func (k *Kernel) Step() bool {
	if k.stop != nil || k.advance(^Time(0)) != advFound || !k.spend() {
		return false
	}
	fn := k.wheel[k.now&wheelMask][k.idx]
	k.wheel[k.now&wheelMask][k.idx] = nil
	k.idx++
	k.wheelCount--
	fn()
	return true
}

// Run executes events until the queue is empty or simulated time would
// exceed until, and returns the number of events executed. On return the
// clock stands at until, drained queue or not, unless a stop cause is
// latched.
func (k *Kernel) Run(until Time) int {
	n := 0
	for {
		// A latched stop, or a budget spent by the last event, stops the
		// run before the clock moves again — including the idle jump to
		// `until` when the queue is empty (a budget spent by the last
		// queued event must stop the clock at the trip cycle, not the
		// horizon).
		if k.stop != nil {
			return n
		}
		if k.budgeted && k.budget == 0 {
			k.stop = ErrEventBudget
			return n
		}
		switch k.advance(until) {
		case advNone:
			if k.now < until {
				k.now = until
			}
			return n
		case advBeyond:
			return n
		}
		bucket := &k.wheel[k.now&wheelMask]
		for k.idx < len(*bucket) {
			// An event may arm a budget or a poll, so test per event.
			if k.gated && !k.spend() {
				return n
			}
			fn := (*bucket)[k.idx]
			(*bucket)[k.idx] = nil
			k.idx++
			k.wheelCount--
			fn()
			n++
		}
	}
}

// RunAll executes events until none remain and returns the count executed.
// A simulation that generates events forever will not return; callers that
// cannot prove termination should use Run with a horizon.
func (k *Kernel) RunAll() int {
	n := 0
	for k.Step() {
		n++
	}
	return n
}
