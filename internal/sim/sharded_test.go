package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

func TestNextEventTime(t *testing.T) {
	var k Kernel
	if _, ok := k.NextEventTime(); ok {
		t.Fatal("empty kernel reports a next event")
	}
	k.Schedule(17, func() {})
	if at, ok := k.NextEventTime(); !ok || at != 17 {
		t.Fatalf("NextEventTime = %d,%v, want 17,true", at, ok)
	}
	// A far event earlier than anything in the wheel must win.
	k2 := &Kernel{}
	k2.Schedule(1, func() { // move clock off zero, then schedule far
		k2.Schedule(9000, func() {})
	})
	k2.RunAll()
	if at, ok := k2.NextEventTime(); ok || at != 0 {
		t.Fatalf("drained kernel: NextEventTime = %d,%v", at, ok)
	}
	var k3 Kernel
	k3.Schedule(5000, func() {}) // far heap only
	if at, ok := k3.NextEventTime(); !ok || at != 5000 {
		t.Fatalf("far-only NextEventTime = %d,%v, want 5000,true", at, ok)
	}
	k3.Schedule(4095, func() {}) // last wheel slot, earlier than far head
	if at, ok := k3.NextEventTime(); !ok || at != 4095 {
		t.Fatalf("wheel-vs-far NextEventTime = %d,%v, want 4095,true", at, ok)
	}
}

func TestNextEventTimeCurrentBucketLeftovers(t *testing.T) {
	// An event left unprocessed in the current cycle's bucket (run stopped
	// by a budget) must report now as the next event time.
	var k Kernel
	k.Schedule(3, func() {})
	k.Schedule(3, func() {})
	k.SetEventBudget(1)
	k.Run(Forever)
	if k.Stopped() != ErrEventBudget {
		t.Fatal("budget did not trip")
	}
	if at, ok := k.NextEventTime(); !ok || at != k.Now() {
		t.Fatalf("NextEventTime = %d,%v, want now=%d", at, ok, k.Now())
	}
}

// Satellite: the wheelCount accounting must never drift from actual
// bucket occupancy, in particular across the cancellation-poll stop path
// (PR 4) which halts runs at arbitrary event boundaries, and across
// resumed runs and far-event folding.
func TestWheelCountMatchesOccupancy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var k Kernel
	check := func(stage string) {
		t.Helper()
		if k.wheelCount != k.wheelOccupancy() {
			t.Fatalf("%s: wheelCount=%d occupancy=%d", stage, k.wheelCount, k.wheelOccupancy())
		}
		if k.Pending() != k.wheelCount+len(k.far) {
			t.Fatalf("%s: Pending=%d wheel=%d far=%d", stage, k.Pending(), k.wheelCount, len(k.far))
		}
	}
	var churn func()
	churn = func() {
		// Random mix of near, same-cycle, and far re-scheduling.
		switch rng.Intn(4) {
		case 0:
			k.Schedule(0, churn)
		case 1:
			k.Schedule(Time(1+rng.Intn(100)), churn)
		case 2:
			k.Schedule(Time(4096+rng.Intn(4096)), churn)
		}
	}
	for i := 0; i < 64; i++ {
		k.Schedule(Time(rng.Intn(5000)), churn)
	}
	check("after scheduling")
	// Repeatedly cancel mid-run via the poll, re-arm, and continue.
	for round := 0; round < 20; round++ {
		polls := 0
		k.SetPoll(uint64(1+rng.Intn(7)), func() error {
			polls++
			if polls < 3 {
				return nil
			}
			return errors.New("cancelled")
		})
		k.stop = nil
		k.Run(k.Now() + Time(1+rng.Intn(300)))
		check(fmt.Sprintf("round %d (stopped=%v)", round, k.Stopped()))
	}
	k.SetPoll(1, nil)
	k.SetEventBudget(1 << 20)
	k.stop = nil
	k.Run(k.Now() + 100000)
	check("after drain")
}

// miniModel is a deterministic message-passing model for engine parity
// tests, built on the same staging discipline as the NoC (DESIGN.md):
// arrivals land in a stamped inbox and become visible only to steps at
// strictly later cycles, so same-cycle delivery order — the one thing a
// partitioned engine cannot reproduce — is behaviorally irrelevant, while
// everything else (amounts, cycles, fan-out) must match exactly.
type stampedMsg struct {
	w  uint64
	at Time
}

type miniModel struct {
	inbox   [][]stampedMsg
	count   []uint64
	horizon Time
}

func runMini(t *testing.T, shards, nodes int, look Time, horizon Time) []uint64 {
	t.Helper()
	m := &miniModel{inbox: make([][]stampedMsg, nodes), count: make([]uint64, nodes), horizon: horizon}
	of := make([]int, nodes)
	if shards > 0 {
		per := nodes / shards
		for i := range of {
			of[i] = i / per
			if of[i] >= shards {
				of[i] = shards - 1
			}
		}
	}
	var d *Domain
	var eng *Sharded
	if shards == 0 { // plain serial kernel as the reference engine
		d = SerialDomain(&Kernel{}, nodes)
	} else {
		eng = NewSharded(shards, look)
		d = NewDomain(eng, of)
	}
	var step func(node int) func()
	step = func(node int) func() {
		return func() {
			k := d.K(node)
			// Consume messages that arrived before this cycle; keep the
			// rest. Sum is commutative, so arrival order never matters.
			var sum uint64
			keep := m.inbox[node][:0]
			for _, msg := range m.inbox[node] {
				if msg.at < k.Now() {
					sum += msg.w
				} else {
					keep = append(keep, msg)
				}
			}
			m.inbox[node] = keep
			m.count[node] += 1 + sum%7
			// Deterministic pseudo-random fan-out, identical across engines.
			h := m.count[node]*2654435761 + uint64(node)
			for j := 0; j < 2; j++ {
				dst := int((h >> (8 * j)) % uint64(nodes))
				w := h>>(16+8*j)%13 + 1
				lat := look + Time(h>>(32+8*j)%3)
				at := k.Now() + lat
				if at > m.horizon {
					continue
				}
				arrive := func() { m.inbox[dst] = append(m.inbox[dst], stampedMsg{w: w, at: at}) }
				src, dsh := d.Shard(node), d.Shard(dst)
				if src == dsh {
					d.K(dst).At(at, arrive)
				} else {
					d.Post(src, dsh, func() { d.K(dst).At(at, arrive) })
				}
			}
			if next := k.Now() + 1 + Time(h%5); next <= m.horizon {
				k.At(next, step(node))
			}
		}
	}
	for i := 0; i < nodes; i++ {
		d.K(i).At(Time(1+i%3), step(i))
	}
	if eng != nil {
		defer eng.Close()
		eng.Run(horizon)
		if got := eng.Now(); got != horizon {
			t.Fatalf("sharded clock = %d, want %d", got, horizon)
		}
	} else {
		d.K(0).Run(horizon)
	}
	return m.count
}

// A cross-shard message posted at cycle c lands at c+look or later, while
// a same-shard message at the same latency is scheduled directly; since
// inbox accumulation commutes, every shard count must produce identical
// final state. This is the engine-level determinism contract the NoC
// parity test (internal/system) checks end-to-end.
func TestShardedParityWithSerial(t *testing.T) {
	const nodes, horizon = 24, 4000
	for _, look := range []Time{1, 2} {
		ref := runMini(t, 0, nodes, look, horizon)
		for _, shards := range []int{1, 2, 3, 4, 8} {
			got := runMini(t, shards, nodes, look, horizon)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("look=%d shards=%d: node %d count %d != serial %d",
						look, shards, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestShardedChunkedRunKeepsBarriers: cutting a run into several Runs
// (as an observer does between chunks) moves no window barrier. Shard 0
// posts to shard 1 every cycle, and each post records the cycle of the
// barrier that applies it; the record is the same whole or in chunks.
func TestShardedChunkedRunKeepsBarriers(t *testing.T) {
	barriers := func(chunks []Time) []Time {
		s := NewSharded(2, 4)
		k0, k1 := s.Shard(0), s.Shard(1)
		var at []Time
		var tick func()
		tick = func() {
			s.Post(0, 1, func() { at = append(at, k1.Now()) })
			if k0.Now() < 40 {
				k0.Schedule(1+k0.Now()%3, tick)
			}
		}
		k0.At(1, tick)
		for _, until := range chunks {
			s.Run(until)
		}
		return at
	}
	want := barriers([]Time{Forever})
	for _, chunks := range [][]Time{{2, Forever}, {3, 5, 6, 17, 18, 31, Forever}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, Forever}} {
		if got := barriers(chunks); !slices.Equal(got, want) {
			t.Fatalf("chunks %v: barriers %v, want %v", chunks, got, want)
		}
	}
}

func TestShardedIdleJump(t *testing.T) {
	s := NewSharded(2, 1)
	defer s.Close()
	ran := false
	s.Shard(1).At(1_000_000, func() { ran = true })
	n := s.Run(2_000_000)
	if n != 1 || !ran {
		t.Fatalf("executed %d events (ran=%v), want 1", n, ran)
	}
	// Queues drained: both clocks must stand at the horizon.
	if s.Now() != 2_000_000 || s.Shard(0).Now() != 2_000_000 {
		t.Fatalf("clocks = %d/%d, want horizon", s.Shard(0).Now(), s.Shard(1).Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d", s.Pending())
	}
}

func TestShardedRunHorizonKeepsLaterEvents(t *testing.T) {
	s := NewSharded(2, 1)
	defer s.Close()
	ran := 0
	s.Shard(0).At(10, func() { ran++ })
	s.Shard(1).At(30, func() { ran++ })
	if n := s.Run(20); n != 1 || ran != 1 {
		t.Fatalf("Run(20) executed %d (ran=%d), want 1", n, ran)
	}
	if s.Now() != 20 || s.Pending() != 1 {
		t.Fatalf("now=%d pending=%d, want 20/1", s.Now(), s.Pending())
	}
	if n := s.Run(100); n != 1 || ran != 2 {
		t.Fatalf("second Run executed %d, want 1", n)
	}
}

func TestShardedPostOrderDeterministic(t *testing.T) {
	// Posts from different source shards to the same destination apply in
	// source-shard order at the barrier, regardless of which worker
	// finished first.
	for trial := 0; trial < 20; trial++ {
		s := NewSharded(4, 1)
		var order []int
		for src := 1; src < 4; src++ {
			src := src
			s.Shard(src).At(1, func() {
				s.Post(src, 0, func() { order = append(order, src) })
				s.Post(src, 0, func() { order = append(order, src*10) })
			})
		}
		s.Run(2)
		s.Close()
		want := []int{1, 10, 2, 20, 3, 30}
		if len(order) != len(want) {
			t.Fatalf("order = %v", order)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("trial %d: order = %v, want %v", trial, order, want)
			}
		}
	}
}

func TestShardedBudgetAndCancel(t *testing.T) {
	s := NewSharded(2, 1)
	defer s.Close()
	for i := 0; i < 2; i++ {
		k := s.Shard(i)
		var tick func()
		tick = func() { k.Schedule(1, tick) }
		k.At(1, tick)
	}
	s.SetEventBudget(100)
	s.Run(Forever)
	if s.Stopped() != ErrEventBudget {
		t.Fatalf("Stopped() = %v, want ErrEventBudget", s.Stopped())
	}
	// Top up, clear the latch and cancel via the poll instead.
	s.SetEventBudget(1 << 30)
	for _, k := range s.ks {
		k.stop = nil
	}
	var polls atomic.Int64
	errCancel := errors.New("cancelled")
	s.SetPoll(10, func() error {
		if polls.Add(1) < 20 {
			return nil
		}
		return errCancel
	})
	s.Run(Forever)
	if s.Stopped() != errCancel {
		t.Fatalf("Stopped() = %v, want the poll's error", s.Stopped())
	}
	if s.Pending() == 0 {
		t.Fatal("cancellation dropped queued events")
	}
}

func TestShardedPanicPropagates(t *testing.T) {
	s := NewSharded(2, 1)
	defer s.Close()
	s.Shard(1).At(5, func() { panic("boom in shard") })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("shard panic did not propagate to the caller")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "shard 1") || !strings.Contains(msg, "boom in shard") {
			t.Fatalf("panic lost diagnostics: %q", msg)
		}
	}()
	s.Run(10)
}

func TestShardedCloseRespawns(t *testing.T) {
	s := NewSharded(2, 1)
	ran := 0
	s.Shard(0).At(1, func() { ran++ })
	s.Run(5)
	s.Close()
	s.Close() // idempotent
	s.Shard(1).At(10, func() { ran++ })
	s.Run(20)
	s.Close()
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
}

// BenchmarkShardedKernel measures synchronizer scaling: S shards each
// carrying an equal slice of a fixed population of self-perpetuating
// event chains with periodic cross-shard posts (1 in 16 events), lookahead
// 1 — the worst case (a barrier every cycle), matching the real model's
// minimum link latency. Compare ns/op across shard counts for the
// parallel efficiency of the window barrier.
func BenchmarkShardedKernel(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			const chains = 256
			s := NewSharded(shards, 1)
			defer s.Close()
			var posted [8]uint64
			for c := 0; c < chains; c++ {
				sh := c * shards / chains
				k := s.Shard(sh)
				n := 0
				var tick func()
				tick = func() {
					n++
					if n%16 == 0 && shards > 1 {
						dst := (sh + 1) % shards
						at := k.Now() + 1
						s.Post(sh, dst, func() {
							s.Shard(dst).At(at, func() { posted[dst]++ })
						})
					}
					k.Schedule(1, tick)
				}
				k.At(1, tick)
			}
			b.ReportAllocs()
			b.ResetTimer()
			// Each op is one simulated cycle across all chains.
			s.Run(Time(b.N))
		})
	}
}
