package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestZeroKernel(t *testing.T) {
	var k Kernel
	if k.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", k.Now())
	}
	if k.Step() {
		t.Fatal("Step on empty kernel returned true")
	}
	if n := k.RunAll(); n != 0 {
		t.Fatalf("RunAll on empty kernel executed %d events", n)
	}
}

func TestScheduleOrder(t *testing.T) {
	var k Kernel
	var got []int
	k.Schedule(10, func() { got = append(got, 2) })
	k.Schedule(5, func() { got = append(got, 1) })
	k.Schedule(20, func() { got = append(got, 3) })
	k.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", got)
	}
	if k.Now() != 20 {
		t.Fatalf("Now() = %d, want 20", k.Now())
	}
}

func TestSameCycleFIFO(t *testing.T) {
	var k Kernel
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.Schedule(7, func() { got = append(got, i) })
	}
	k.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events reordered: got[%d] = %d", i, v)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var k Kernel
	var times []Time
	k.Schedule(1, func() {
		times = append(times, k.Now())
		k.Schedule(4, func() {
			times = append(times, k.Now())
			k.Schedule(0, func() { times = append(times, k.Now()) })
		})
	})
	k.RunAll()
	want := []Time{1, 5, 5}
	if len(times) != len(want) {
		t.Fatalf("got %d events, want %d", len(times), len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestRunHorizon(t *testing.T) {
	var k Kernel
	ran := 0
	k.Schedule(10, func() { ran++ })
	k.Schedule(30, func() { ran++ })
	n := k.Run(20)
	if n != 1 || ran != 1 {
		t.Fatalf("Run(20) executed %d events (ran=%d), want 1", n, ran)
	}
	if k.Now() != 20 {
		t.Fatalf("Now() = %d, want 20 (the horizon)", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1 (event at 30 retained)", k.Pending())
	}
	n = k.Run(100)
	if n != 1 || ran != 2 {
		t.Fatalf("second Run executed %d events, want 1", n)
	}
	// Queue empty: Run should advance the clock to the horizon.
	k.Run(200)
	if k.Now() != 200 {
		t.Fatalf("Now() = %d, want 200", k.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var k Kernel
	k.Schedule(10, func() {})
	k.RunAll()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("At in the past did not panic")
		}
		// The message must name both the requested time and the clock.
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "t=5") || !strings.Contains(msg, "now=10") {
			t.Fatalf("panic message %q lacks t/now diagnostics", msg)
		}
	}()
	k.At(5, func() {})
}

func TestEventBudgetStopsRun(t *testing.T) {
	var k Kernel
	ran := 0
	// A self-perpetuating event chain: unbounded without a budget.
	var tick func()
	tick = func() { ran++; k.Schedule(1, tick) }
	k.Schedule(0, tick)
	k.SetEventBudget(100)
	n := k.Run(Forever)
	if n != 100 || ran != 100 {
		t.Fatalf("executed %d events (callback saw %d), want 100", n, ran)
	}
	if k.Stopped() != ErrEventBudget {
		t.Fatalf("Stopped() = %v, want ErrEventBudget", k.Stopped())
	}
	// Topping the budget up and clearing the latch resumes exactly where
	// it stopped.
	k.SetEventBudget(50)
	k.stop = nil
	if n := k.Run(Forever); n != 50 || ran != 150 {
		t.Fatalf("resumed run executed %d events (total %d)", n, ran)
	}
}

func TestEventBudgetZeroHaltsImmediately(t *testing.T) {
	var k Kernel
	ran := 0
	k.Schedule(0, func() { ran++ })
	k.Schedule(5, func() { ran++ })
	k.SetEventBudget(0)
	if n := k.Run(Forever); n != 0 || ran != 0 {
		t.Fatalf("zero budget executed %d events", n)
	}
	if k.Stopped() != ErrEventBudget {
		t.Fatalf("Stopped() = %v, want ErrEventBudget", k.Stopped())
	}
	if k.Pending() != 2 {
		t.Fatalf("queued events lost: Pending() = %d", k.Pending())
	}
	if k.Step() {
		t.Fatal("Step executed an event with a spent budget")
	}
}

func TestNoBudgetRunsUnbounded(t *testing.T) {
	var k Kernel
	ran := 0
	for i := 0; i < 1000; i++ {
		k.Schedule(Time(i), func() { ran++ })
	}
	if n := k.RunAll(); n != 1000 || ran != 1000 {
		t.Fatalf("unbudgeted kernel executed %d events", n)
	}
	if k.Stopped() != nil {
		t.Fatalf("unbudgeted kernel stopped: %v", k.Stopped())
	}
}

// Property: for any set of delays, events execute in nondecreasing time
// order and the kernel visits exactly the multiset of scheduled times.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		var k Kernel
		var visited []Time
		for _, d := range delays {
			k.Schedule(Time(d), func() { visited = append(visited, k.Now()) })
		}
		k.RunAll()
		if len(visited) != len(delays) {
			return false
		}
		want := make([]Time, len(delays))
		for i, d := range delays {
			want[i] = Time(d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if visited[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving nested scheduling with random delays never
// executes an event before the time it was scheduled for.
func TestCausalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var k Kernel
	bad := false
	var spawn func(depth int)
	spawn = func(depth int) {
		if depth == 0 {
			return
		}
		at := k.Now()
		d := Time(rng.Intn(50))
		k.Schedule(d, func() {
			if k.Now() < at+d {
				bad = true
			}
			spawn(depth - 1)
		})
	}
	for i := 0; i < 50; i++ {
		spawn(5)
	}
	k.RunAll()
	if bad {
		t.Fatal("event executed before its scheduled time")
	}
}

// BenchmarkKernelSchedule measures the enqueue fast path alone: every
// event lands within the timing wheel, so the cost is the inlined At()
// wheel append (the hot path of every router tick and core step).
func BenchmarkKernelSchedule(b *testing.B) {
	var k Kernel
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Schedule(Time(i&1023), fn)
		if k.Pending() >= 1<<16 {
			b.StopTimer()
			k.RunAll()
			b.StartTimer()
		}
	}
	b.StopTimer()
	k.RunAll()
}

// BenchmarkKernelRun measures the dispatch side: draining pre-scheduled
// wheel events, including wheel-slot reuse across wraparounds.
func BenchmarkKernelRun(b *testing.B) {
	var k Kernel
	fn := func() {}
	b.ReportAllocs()
	const batch = 1 << 14
	for done := 0; done < b.N; done += batch {
		n := batch
		if b.N-done < n {
			n = b.N - done
		}
		b.StopTimer()
		for i := 0; i < n; i++ {
			k.Schedule(Time(i&4095), fn)
		}
		b.StartTimer()
		k.RunAll()
	}
}

func BenchmarkKernelScheduleRun(b *testing.B) {
	var k Kernel
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Schedule(Time(i%64), func() {})
		if k.Pending() > 1024 {
			k.Run(k.Now() + 16)
		}
	}
	k.RunAll()
}

func TestFarEventsBeyondWheel(t *testing.T) {
	// Events beyond the 4096-cycle wheel horizon go to the far heap and
	// must still run in order, interleaved with near events.
	var k Kernel
	var got []Time
	rec := func() { got = append(got, k.Now()) }
	k.Schedule(10, rec)
	k.Schedule(5000, rec)  // far
	k.Schedule(4096, rec)  // exactly at the horizon: far
	k.Schedule(4095, rec)  // last wheel slot
	k.Schedule(20000, rec) // far
	k.RunAll()
	want := []Time{10, 4095, 4096, 5000, 20000}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestFarEventFIFOAtSameCycle(t *testing.T) {
	// Two far events for the same cycle keep scheduling order.
	var k Kernel
	var got []int
	k.Schedule(9000, func() { got = append(got, 1) })
	k.Schedule(9000, func() { got = append(got, 2) })
	k.RunAll()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("far same-cycle order: %v", got)
	}
	if k.Now() != 9000 {
		t.Fatalf("Now = %d", k.Now())
	}
}

func TestFarJumpSkipsIdleGap(t *testing.T) {
	// With an empty wheel, the kernel jumps directly to the far event
	// rather than walking cycles (completes instantly even for huge gaps).
	var k Kernel
	ran := false
	k.Schedule(1, func() {
		k.Schedule(50_000_000, func() { ran = true })
	})
	k.RunAll()
	if !ran || k.Now() != 50_000_001 {
		t.Fatalf("far jump failed: ran=%v now=%d", ran, k.Now())
	}
}

func TestRunHorizonWithFarPending(t *testing.T) {
	// Run(until) with only a far event beyond the horizon must stop the
	// clock at the horizon and keep the event queued.
	var k Kernel
	ran := false
	k.Schedule(100000, func() { ran = true })
	k.Run(500)
	if ran || k.Now() != 500 || k.Pending() != 1 {
		t.Fatalf("ran=%v now=%d pending=%d", ran, k.Now(), k.Pending())
	}
	k.RunAll()
	if !ran {
		t.Fatal("far event lost")
	}
}

func TestEventDuringCurrentCycle(t *testing.T) {
	// Schedule(0) from inside an event runs later the same cycle, before
	// any later-cycle event.
	var k Kernel
	var got []string
	k.Schedule(5, func() {
		k.Schedule(0, func() { got = append(got, "same-cycle") })
	})
	k.Schedule(6, func() { got = append(got, "next-cycle") })
	k.RunAll()
	if len(got) != 2 || got[0] != "same-cycle" {
		t.Fatalf("order %v", got)
	}
}

func TestWheelReuseAcrossManyCycles(t *testing.T) {
	// Hammer the wheel well past several wraparounds.
	var k Kernel
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 20000 {
			k.Schedule(1, tick)
		}
	}
	k.Schedule(1, tick)
	k.RunAll()
	if count != 20000 || k.Now() != 20000 {
		t.Fatalf("count=%d now=%d", count, k.Now())
	}
}

func TestPollCancelsRun(t *testing.T) {
	// A poll that trips after a while must stop Run mid-stream, leave the
	// remaining events queued, and keep the clock at the cancellation
	// cycle rather than jumping to the horizon.
	var k Kernel
	executed := 0
	var tick func()
	tick = func() {
		executed++
		k.Schedule(1, tick)
	}
	k.Schedule(1, tick)
	calls := 0
	errCancel := errors.New("cancelled")
	k.SetPoll(10, func() error {
		calls++
		if calls < 5 {
			return nil
		}
		return errCancel
	})
	k.Run(1 << 20)
	if k.Stopped() != errCancel {
		t.Fatalf("Stopped() = %v, want the poll's error", k.Stopped())
	}
	// 4 successful polls cover 4*10 events; the 5th poll fires before
	// event 41 and trips.
	if executed != 40 {
		t.Fatalf("executed %d events, want 40", executed)
	}
	if k.Pending() == 0 {
		t.Fatal("cancellation dropped the queued events")
	}
	if k.Now() >= 1<<20 {
		t.Fatalf("clock jumped to the horizon (now=%d)", k.Now())
	}
	// A second Run on a cancelled kernel stops immediately.
	if n := k.Run(1 << 20); n != 0 {
		t.Fatalf("cancelled kernel executed %d more events", n)
	}
}

func TestPollHarmlessWhenHealthy(t *testing.T) {
	// An always-true poll must not change what executes or where the
	// clock ends up.
	var run Kernel
	var ref Kernel
	for _, k := range []*Kernel{&run, &ref} {
		k := k
		count := 0
		var tick func()
		tick = func() {
			count++
			if count < 100 {
				k.Schedule(3, tick)
			}
		}
		k.Schedule(1, tick)
	}
	run.SetPoll(7, func() error { return nil })
	n1 := run.Run(5000)
	n2 := ref.Run(5000)
	if n1 != n2 || run.Now() != ref.Now() || run.Stopped() != nil {
		t.Fatalf("poll perturbed the run: n=%d/%d now=%d/%d stopped=%v",
			n1, n2, run.Now(), ref.Now(), run.Stopped())
	}
	// Disarming restores the unpolled kernel.
	run.SetPoll(1, nil)
	if run.poll != nil {
		t.Fatal("SetPoll(nil) did not disarm")
	}
}

func TestPollAndBudgetCompose(t *testing.T) {
	// The budget still applies under an armed (healthy) poll.
	var k Kernel
	for i := 0; i < 50; i++ {
		k.Schedule(Time(i+1), func() {})
	}
	k.SetPoll(3, func() error { return nil })
	k.SetEventBudget(20)
	k.Run(1 << 20)
	if k.Stopped() != ErrEventBudget {
		t.Fatalf("Stopped() = %v, want ErrEventBudget", k.Stopped())
	}
	if k.Pending() != 30 {
		t.Fatalf("pending=%d, want 30", k.Pending())
	}
}

// bucketArrays counts the arrays the wheel holds — in buckets and on the
// spare list — and their capacity in bytes.
func (k *Kernel) bucketArrays() (arrays, bytes int) {
	const slot = int(unsafe.Sizeof(func() {}))
	for _, b := range k.wheel {
		if cap(b) > 0 {
			arrays++
			bytes += cap(b) * slot
		}
	}
	for _, b := range k.spare {
		arrays++
		bytes += cap(b) * slot
	}
	return arrays, bytes
}

// TestSpareListBounded: a burst that makes twice maxSpare buckets live at
// once drains into a spare list of maxSpare arrays, and a larger array
// drained onto the full list takes the top's place, where the next
// outgrown bucket finds it.
func TestSpareListBounded(t *testing.T) {
	var k Kernel
	nop := func() {}
	for c := Time(1); c <= 2*maxSpare; c++ {
		k.At(c, nop)
	}
	k.RunAll()
	if n := len(k.spare); n != maxSpare {
		t.Fatalf("spare list holds %d arrays after the burst, want %d", n, maxSpare)
	}
	for i := 0; i < 100; i++ {
		k.Schedule(1, nop)
	}
	k.RunAll()
	if n, top := len(k.spare), cap(k.spare[len(k.spare)-1]); n != maxSpare || top < 100 {
		t.Errorf("spare list holds %d arrays, top of %d slots; want %d, top of at least 100", n, top, maxSpare)
	}
}

func TestFarAtAllocatesNothing(t *testing.T) {
	// Once the heap's array and one bucket array exist, a far event costs
	// no allocation: not at At, not at the fold into its bucket, and not
	// when the drained bucket is recycled.
	var k Kernel
	fn := func() {}
	far := func() {
		for i := Time(0); i < 8; i++ {
			k.Schedule(wheelSize+(i*37)%11, fn) // equal-time far events too
		}
		k.RunAll()
	}
	for i := 0; i < 100; i++ {
		far()
	}
	if got := testing.AllocsPerRun(1000, far); got != 0 {
		t.Errorf("8 far events: %.2f allocs per round, want 0", got)
	}
}

func TestWheelHoldsLiveBucketsOnly(t *testing.T) {
	// A steady 100k-cycle run where each cycle schedules 16 events 1..8
	// cycles ahead: every one of the 4096 buckets is used, but at most 9
	// are live at once, so the wheel must hold a handful of arrays — not
	// one per bucket grown to the busiest cycle it ever held.
	var k Kernel
	nop := func() {}
	var tick func()
	tick = func() {
		c := k.Now()
		for i := Time(0); i < 16; i++ {
			k.Schedule(1+(c+i)%8, nop)
		}
		if c < 100_000 {
			k.Schedule(1, tick)
		}
	}
	k.Schedule(0, tick)
	k.RunAll()
	const live, peak = 9, 17 // buckets ahead of a tick, events in one cycle
	arrays, bytes := k.bucketArrays()
	slot := int(unsafe.Sizeof(nop))
	if limit := 2 * live * 2 * peak * slot; arrays > 2*live || bytes > limit {
		t.Errorf("wheel holds %d arrays, %d bytes; want at most %d and %d (4096 x peak would be %d bytes)",
			arrays, bytes, 2*live, limit, wheelSize*peak*slot)
	}
}

func TestWheelPoolsPrescheduledBuckets(t *testing.T) {
	// The shape of an open-loop traffic window: one event per cycle for
	// 3 x 4096 cycles, all scheduled before the run (the first 4096 fill
	// every bucket while the spare list is still empty, so each bucket
	// starts with a private one-slot array), and each scheduling 64 events
	// for the next cycle. Buckets must borrow the drained arrays rather
	// than grow 4096 private ones to 65 slots.
	const cycles, fanout = 3 * wheelSize, 64
	var k Kernel
	nop := func() {}
	inject := func() {
		for i := 0; i < fanout; i++ {
			k.Schedule(1, nop)
		}
	}
	for c := Time(0); c < cycles; c++ {
		k.At(c, inject)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if n := k.RunAll(); n != cycles*(fanout+1) {
		t.Fatalf("ran %d events, want %d", n, cycles*(fanout+1))
	}
	runtime.ReadMemStats(&after)
	_, bytes := k.bucketArrays()
	slots := bytes / int(unsafe.Sizeof(nop))
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("run allocated %d bytes (%d mallocs), want under 1 MB", alloc, after.Mallocs-before.Mallocs)
	}
	if slots >= 16<<10 {
		t.Errorf("wheel and spare list retain %d slots, want fewer than %d", slots, 16<<10)
	}
}

// BenchmarkKernelFar measures one far event end to end: a chain whose
// every event schedules the next beyond the wheel horizon, so each costs a
// heap push, a pop, a fold into its bucket and that bucket's recycling.
func BenchmarkKernelFar(b *testing.B) {
	var k Kernel
	left := b.N
	var fn func()
	fn = func() {
		if left--; left > 0 {
			k.Schedule(5000, fn)
		}
	}
	b.ReportAllocs()
	k.Schedule(5000, fn)
	k.RunAll()
}
