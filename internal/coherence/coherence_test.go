package coherence

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/sim"
)

// fixture builds a 16-core system over an EMesh-BCast network (broadcast
// support keeps ACKwise overflow paths exercised).
func fixture(t *testing.T, mut func(*config.Config)) (*sim.Kernel, *System) {
	t.Helper()
	cfg := config.Tiny()
	cfg.Network.Kind = config.EMeshBCast
	if mut != nil {
		mut(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var k sim.Kernel
	n := &cfg.Network
	mesh := noc.NewMesh(&k, cfg.MeshDim(), n.FlitBits, n.BufFlits, n.RouterDelay, n.LinkDelay, true)
	cfgp := cfg
	return &k, NewSystem(&k, &cfgp, mesh)
}

// atacFixture builds the system over the ATAC+ fabric, where distance
// routing genuinely reorders broadcasts against unicasts.
func atacFixture(t *testing.T, mut func(*config.Config)) (*sim.Kernel, *System) {
	t.Helper()
	cfg := config.Tiny()
	if mut != nil {
		mut(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var k sim.Kernel
	a := noc.NewAtac(&k, &cfg)
	return &k, NewSystem(&k, a.Cfg, a)
}

// do issues a single access from within the kernel and returns its result
// after the kernel drains.
func do(k *sim.Kernel, s *System, core int, op AccessOp, addr, val uint64) uint64 {
	var out uint64
	k.Schedule(0, func() {
		s.Access(core, op, addr, val, nil, func(v uint64) { out = v })
	})
	k.RunAll()
	return out
}

// seq runs a chain of operations on one core, each issued when the
// previous completes.
type oper struct {
	core int
	op   AccessOp
	addr uint64
	val  uint64
}

func runChain(k *sim.Kernel, s *System, ops []oper, results *[]uint64) {
	var step func(i int)
	step = func(i int) {
		if i == len(ops) {
			return
		}
		o := ops[i]
		s.Access(o.core, o.op, o.addr, o.val, nil, func(v uint64) {
			*results = append(*results, v)
			step(i + 1)
		})
	}
	k.Schedule(0, func() { step(0) })
}

func TestLoadStoreRoundTrip(t *testing.T) {
	k, s := fixture(t, nil)
	if got := do(k, s, 3, OpStore, 0x1000, 42); got != 42 {
		t.Fatalf("store returned %d", got)
	}
	if got := do(k, s, 7, OpLoad, 0x1000, 0); got != 42 {
		t.Fatalf("remote load = %d, want 42", got)
	}
	if got := do(k, s, 3, OpLoad, 0x1000, 0); got != 42 {
		t.Fatalf("writer reload = %d, want 42", got)
	}
	if !s.Quiesced() {
		t.Fatal("directory not quiesced")
	}
}

func TestColdLoadIsZero(t *testing.T) {
	k, s := fixture(t, nil)
	if got := do(k, s, 0, OpLoad, 0xdead00, 0); got != 0 {
		t.Fatalf("cold load = %d, want 0", got)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	k, s := fixture(t, nil)
	// Many cores read the line; then one writes; then all re-read.
	for c := 0; c < 16; c++ {
		do(k, s, c, OpLoad, 0x2000, 0)
	}
	// ACKwise4 with 16 sharers: the sharer list must have overflowed,
	// so the write triggers a broadcast invalidation.
	do(k, s, 5, OpStore, 0x2000, 99)
	if s.Stats().InvBroadcasts == 0 {
		t.Error("expected a broadcast invalidation after sharer overflow")
	}
	for c := 0; c < 16; c++ {
		if got := do(k, s, c, OpLoad, 0x2000, 0); got != 99 {
			t.Fatalf("core %d sees %d, want 99", c, got)
		}
	}
}

func TestUnicastInvalidationUnderK(t *testing.T) {
	k, s := fixture(t, nil)
	// Only 3 sharers (< K=4): invalidations must be unicasts.
	for _, c := range []int{1, 2, 3} {
		do(k, s, c, OpLoad, 0x3000, 0)
	}
	pre := s.Stats().InvBroadcasts
	do(k, s, 8, OpStore, 0x3000, 7)
	if s.Stats().InvBroadcasts != pre {
		t.Error("unexpected broadcast for under-K sharers")
	}
	if s.Stats().InvUnicasts != 3 {
		t.Errorf("InvUnicasts = %d, want 3", s.Stats().InvUnicasts)
	}
}

func TestUpgradeFastPath(t *testing.T) {
	k, s := fixture(t, nil)
	do(k, s, 4, OpLoad, 0x4000, 0)
	do(k, s, 4, OpStore, 0x4000, 5)
	if s.Stats().UpgradeFastPath != 1 {
		t.Errorf("UpgradeFastPath = %d, want 1", s.Stats().UpgradeFastPath)
	}
}

func TestDirtyLineMigration(t *testing.T) {
	k, s := fixture(t, nil)
	do(k, s, 0, OpStore, 0x5000, 11) // core 0 owns M
	// Remote read forces a write-back demotion.
	if got := do(k, s, 9, OpLoad, 0x5000, 0); got != 11 {
		t.Fatalf("reader got %d", got)
	}
	// Remote write forces a flush of... now Shared{0,9}: invalidations.
	if got := do(k, s, 2, OpStore, 0x5000, 12); got != 12 {
		t.Fatalf("writer got %d", got)
	}
	// And a flush when a fourth core writes over the new owner.
	if got := do(k, s, 3, OpStore, 0x5000, 13); got != 13 {
		t.Fatalf("second writer got %d", got)
	}
	if got := do(k, s, 0, OpLoad, 0x5000, 0); got != 13 {
		t.Fatalf("final read %d, want 13", got)
	}
}

func TestFetchAddAtomicity(t *testing.T) {
	// The decisive coherence test: concurrent fetch-adds must never lose
	// an update. 16 cores x 25 increments on one word.
	k, s := fixture(t, nil)
	const per = 25
	doneCnt := 0
	for c := 0; c < 16; c++ {
		c := c
		var step func(i int)
		step = func(i int) {
			if i == per {
				doneCnt++
				return
			}
			s.Access(c, OpRMW, 0x6000, 0, func(v uint64) uint64 { return v + 1 }, func(uint64) {
				step(i + 1)
			})
		}
		k.Schedule(sim.Time(c), func() { step(0) })
	}
	k.RunAll()
	if doneCnt != 16 {
		t.Fatalf("only %d cores completed", doneCnt)
	}
	if got := s.Vals.Read(0x6000); got != 16*per {
		t.Fatalf("counter = %d, want %d (lost updates!)", got, 16*per)
	}
	if !s.Quiesced() {
		t.Fatal("not quiesced")
	}
}

func TestEvictionPressure(t *testing.T) {
	// Tiny L2 (1 KB = 16 lines) forces constant evictions; values must
	// survive through memory.
	k, s := fixture(t, func(c *config.Config) {
		c.Caches.L1DKB = 1
		c.Caches.L2KB = 1
		c.Caches.L1Assoc = 2
		c.Caches.L2Assoc = 2
	})
	const words = 256 // 32 lines x 8 words, far exceeding the L2
	for i := uint64(0); i < words; i++ {
		do(k, s, 0, OpStore, 0x10000+i*8, i+1)
	}
	for i := uint64(0); i < words; i++ {
		if got := do(k, s, 0, OpLoad, 0x10000+i*8, 0); got != i+1 {
			t.Fatalf("word %d = %d, want %d", i, got, i+1)
		}
	}
	if s.Stats().EvictionsM == 0 {
		t.Error("expected dirty evictions under pressure")
	}
	if !s.Quiesced() {
		t.Fatal("not quiesced")
	}
}

func TestSharedEvictionNotifiesACKwise(t *testing.T) {
	k, s := fixture(t, func(c *config.Config) {
		c.Caches.L1DKB = 1
		c.Caches.L2KB = 1
	})
	// Fill with clean shared lines only: evictions must send EvictS.
	for i := uint64(0); i < 64; i++ {
		do(k, s, 0, OpLoad, 0x20000+i*512, 0) // distinct lines, same set region
	}
	if s.Stats().EvictionsS == 0 {
		t.Error("ACKwise must notify shared evictions")
	}
}

func TestDirKBSilentEvictions(t *testing.T) {
	k, s := fixture(t, func(c *config.Config) {
		c.Coherence.Kind = config.DirKB
		c.Caches.L1DKB = 1
		c.Caches.L2KB = 1
	})
	for i := uint64(0); i < 64; i++ {
		do(k, s, 0, OpLoad, 0x20000+i*512, 0)
	}
	if s.Stats().EvictionsS != 0 {
		t.Errorf("DirkB must evict shared lines silently, saw %d EvictS", s.Stats().EvictionsS)
	}
	// Re-reading after silent eviction must still work (stale directory
	// list tolerated).
	if got := do(k, s, 1, OpStore, 0x20000, 77); got != 77 {
		t.Fatal("write after silent eviction failed")
	}
}

func TestDirKBBroadcastAcksFromAll(t *testing.T) {
	k, s := fixture(t, func(c *config.Config) {
		c.Coherence.Kind = config.DirKB
	})
	for c := 0; c < 16; c++ {
		do(k, s, c, OpLoad, 0x7000, 0)
	}
	pre := s.Stats().AcksCollected
	do(k, s, 0, OpStore, 0x7000, 1)
	acks := s.Stats().AcksCollected - pre
	if acks != 16 {
		t.Errorf("DirkB collected %d acks, want 16 (all cores)", acks)
	}
}

func TestACKwiseBroadcastAcksFromSharersOnly(t *testing.T) {
	k, s := fixture(t, nil)
	for c := 0; c < 8; c++ {
		do(k, s, c, OpLoad, 0x8000, 0)
	}
	pre := s.Stats().AcksCollected
	do(k, s, 0, OpStore, 0x8000, 1)
	acks := s.Stats().AcksCollected - pre
	// 8 sharers (including the writer, which also acks the broadcast).
	if acks != 8 {
		t.Errorf("ACKwise collected %d acks, want 8 (actual sharers)", acks)
	}
}

// randomStress drives random concurrent traffic and then verifies the
// final memory image against a sequentially-applied oracle... the oracle
// here is indirect: we verify protocol liveness, quiescence, and the
// single-writer and inclusion invariants sampled at completion. The
// accesses pick words of the given number of 64-byte lines: a few lines
// keep every core contending, hundreds make a 1 KB cache evict.
func randomStress(t *testing.T, k *sim.Kernel, s *System, seed int64, nops, lines int) {
	t.Helper()
	if completed := stressRun(k, s, seed, nops, lines); completed != s.Cfg.Cores*nops {
		t.Fatalf("completed %d of %d accesses", completed, s.Cfg.Cores*nops)
	}
	if !s.Quiesced() {
		t.Fatal("not quiesced")
	}
	checkSingleWriter(t, s)
}

// stressRun is randomStress's workload without its checks: every core
// issues nops random loads, stores and RMWs over the given number of
// lines, each when its previous one completes, and the kernel runs dry.
// It returns how many accesses completed.
func stressRun(k *sim.Kernel, s *System, seed int64, nops, lines int) int {
	rng := rand.New(rand.NewSource(seed))
	completed := 0
	for c := 0; c < s.Cfg.Cores; c++ {
		c := c
		var step func(n int)
		step = func(n int) {
			if n == 0 {
				return
			}
			addr := 0x9000 + uint64(rng.Intn(8*lines))*8
			op := OpLoad
			switch rng.Intn(3) {
			case 1:
				op = OpStore
			case 2:
				op = OpRMW
			}
			s.Access(c, op, addr, uint64(n), func(v uint64) uint64 { return v + 1 }, func(uint64) {
				completed++
				step(n - 1)
			})
		}
		k.Schedule(sim.Time(rng.Intn(10)), func() { step(nops) })
	}
	k.RunAll()
	return completed
}

// checkSingleWriter verifies the MSI invariant across all caches at
// quiescence: for each line, either one Modified holder and no Shared
// holders, or any number of Shared holders. It also checks inclusion:
// every valid L1 line is in the same core's L2, in the same state.
func checkSingleWriter(t *testing.T, s *System) {
	t.Helper()
	type holders struct{ m, sh int }
	lines := make(map[uint64]*holders)
	for _, c := range s.ctrls {
		c.l1.eachLine(func(line uint64, st State) {
			if s2 := c.l2.peek(line); s2 != st {
				t.Fatalf("core %d: line %#x is %v in the L1 but %v in the L2", c.id, line, st, s2)
			}
		})
		c.l2.eachLine(func(line uint64, st State) {
			h := lines[line]
			if h == nil {
				h = &holders{}
				lines[line] = h
			}
			if st == Modified {
				h.m++
			} else {
				h.sh++
			}
		})
	}
	for line, h := range lines {
		if h.m > 1 || (h.m == 1 && h.sh > 0) {
			t.Fatalf("line %#x: %d Modified, %d Shared holders", line, h.m, h.sh)
		}
	}
}

func TestRandomStressACKwiseMesh(t *testing.T) {
	k, s := fixture(t, nil)
	randomStress(t, k, s, 1, 40, 4)
}

func TestRandomStressDirKBMesh(t *testing.T) {
	k, s := fixture(t, func(c *config.Config) { c.Coherence.Kind = config.DirKB })
	randomStress(t, k, s, 2, 40, 4)
}

func TestRandomStressACKwiseATAC(t *testing.T) {
	k, s := atacFixture(t, nil)
	randomStress(t, k, s, 3, 40, 4)
}

func TestRandomStressATACSmallCache(t *testing.T) {
	k, s := atacFixture(t, func(c *config.Config) {
		c.Caches.L1DKB = 1
		c.Caches.L2KB = 1
	})
	randomStress(t, k, s, 4, 40, 256)
	if st := s.Stats(); st.EvictionsS+st.EvictionsM == 0 {
		t.Error("no L2 evictions: the inclusion check saw no victims")
	}
}

func TestRandomStressDirKBATAC(t *testing.T) {
	k, s := atacFixture(t, func(c *config.Config) { c.Coherence.Kind = config.DirKB })
	randomStress(t, k, s, 5, 40, 4)
}

// TestACKwiseStressStalls pins a known ACKwise deadlock as an expected-
// failure list: 120 stress runs (EMesh-BCast and ATAC+, 32, 128 and 256
// lines, seeds 1-20; one sharer pointer, 1 KB L1 and L2, 60 accesses per
// core), of which exactly the listed ones stall. Every stall has one
// shape: a core evicting line L holds a broadcast for L buffered until
// its EvictAck, while its EvictS waits in L's directory queue behind the
// busy transaction that broadcast belongs to, which waits for that core's
// ack. A protocol change that mends the deadlock, or stalls another run,
// fails here and updates the list with the evidence.
func TestACKwiseStressStalls(t *testing.T) {
	want := map[string][]int64{
		"mesh/128":  {1, 7, 9, 13, 14, 17, 19},
		"mesh/256":  {2, 6, 9, 11, 13, 18, 19, 20},
		"ATAC+/128": {1, 8, 9, 11, 14},
		"ATAC+/256": {1, 3, 5, 11, 12, 17},
	}
	got := map[string][]int64{}
	for _, atac := range []bool{false, true} {
		net, build := "mesh", fixture
		if atac {
			net, build = "ATAC+", atacFixture
		}
		for _, lines := range []int{32, 128, 256} {
			name := fmt.Sprintf("%s/%d", net, lines)
			for seed := int64(1); seed <= 20; seed++ {
				k, s := build(t, func(c *config.Config) {
					c.Coherence.Kind = config.ACKwise
					c.Coherence.Sharers = 1
					c.Caches.L1DKB = 1
					c.Caches.L2KB = 1
				})
				if stressRun(k, s, seed, 60, lines) == s.Cfg.Cores*60 {
					continue
				}
				got[name] = append(got[name], seed)
				if !evictBcastDeadlock(s) {
					t.Errorf("%s seed %d stalls without an evicting core's EvictS queued behind its buffered broadcast", name, seed)
				}
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stalled runs by fabric/lines: got %v, want %v", got, want)
	}
}

// evictBcastDeadlock reports whether some core evicting a line holds a
// buffered broadcast for it while its EvictS for that line waits in the
// line's busy directory entry.
func evictBcastDeadlock(s *System) bool {
	for _, c := range s.ctrls {
		for line, buf := range c.bcastBuf {
			if !c.evicting[line] || len(buf) == 0 {
				continue
			}
			e := s.dirs[buf[0].Slice].entries[line]
			if e == nil || !e.busy {
				continue
			}
			for _, q := range e.queue {
				if q.Type == MsgEvictS && q.From == c.id {
					return true
				}
			}
		}
	}
	return false
}

func TestFetchAddAtomicityATAC(t *testing.T) {
	// Same atomicity check across the reordering ATAC+ fabric.
	k, s := atacFixture(t, nil)
	const per = 25
	for c := 0; c < 16; c++ {
		c := c
		var step func(i int)
		step = func(i int) {
			if i == per {
				return
			}
			s.Access(c, OpRMW, 0x6000, 0, func(v uint64) uint64 { return v + 1 }, func(uint64) {
				step(i + 1)
			})
		}
		k.Schedule(sim.Time(c), func() { step(0) })
	}
	k.RunAll()
	if got := s.Vals.Read(0x6000); got != 16*per {
		t.Fatalf("counter = %d, want %d", got, 16*per)
	}
}

func TestWaitChangeWakesOnInvalidation(t *testing.T) {
	k, s := fixture(t, nil)
	woke := false
	// Core 1 loads the flag (becomes a sharer), then waits for change.
	k.Schedule(0, func() {
		s.Access(1, OpLoad, 0xa000, 0, nil, func(uint64) {
			s.WaitChange(1, 0xa000, func() { woke = true })
		})
	})
	// Core 2 writes the flag later: invalidation must wake core 1.
	k.Schedule(200, func() {
		s.Access(2, OpStore, 0xa000, 1, nil, func(uint64) {})
	})
	k.RunAll()
	if !woke {
		t.Fatal("waiter not woken by invalidation")
	}
}

func TestWaitChangeImmediateWhenAbsent(t *testing.T) {
	k, s := fixture(t, nil)
	woke := false
	k.Schedule(0, func() { s.WaitChange(4, 0xb000, func() { woke = true }) })
	k.RunAll()
	if !woke {
		t.Fatal("absent-line waiter must fire immediately")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64, sim.Time) {
		k, s := atacFixture(t, nil)
		rng := rand.New(rand.NewSource(9))
		for c := 0; c < 16; c++ {
			c := c
			var step func(n int)
			step = func(n int) {
				if n == 0 {
					return
				}
				addr := 0xc000 + uint64(rng.Intn(16))*8
				s.Access(c, OpRMW, addr, 0, func(v uint64) uint64 { return v + 3 }, func(uint64) { step(n - 1) })
			}
			k.Schedule(sim.Time(c%4), func() { step(30) })
		}
		k.RunAll()
		return s.Stats().DirAccesses, s.Stats().InvBroadcasts, k.Now()
	}
	a1, b1, t1 := run()
	a2, b2, t2 := run()
	if a1 != a2 || b1 != b2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", a1, b1, t1, a2, b2, t2)
	}
}

func TestValueStore(t *testing.T) {
	v := NewValueStore()
	if v.Read(0x40) != 0 {
		t.Error("cold read not zero")
	}
	v.Write(0x40, 7)
	if v.Read(0x40) != 7 || v.Read(0x44) != 7 {
		t.Error("word aliasing broken") // 0x44 shares the 8-byte word
	}
	if v.Read(0x48) != 0 {
		t.Error("adjacent word contaminated")
	}
}

func TestSeqArithmetic(t *testing.T) {
	if !seqLE(1, 2) || seqLE(2, 1) || !seqLE(5, 5) {
		t.Error("basic comparisons broken")
	}
	// Wraparound: 65535 <= 2 in serial arithmetic.
	if !seqLE(65535, 2) || seqLE(2, 65535) {
		t.Error("wraparound comparison broken")
	}
}

func TestCacheArrayLRU(t *testing.T) {
	c := newCacheArray(4*64, 64, 2) // 4 lines, 2-way: 2 sets
	// Same-set lines (set = line % 2): 0, 2, 4 conflict.
	c.insert(0, Shared)
	c.insert(2, Shared)
	c.lookup(0) // refresh 0
	vl, vs, ev := c.insert(4, Modified)
	if !ev || vl != 2 || vs != Shared {
		t.Fatalf("evicted (%d,%v,%v), want line 2 Shared", vl, vs, ev)
	}
	if c.peek(0) != Shared || c.peek(4) != Modified {
		t.Error("survivors corrupted")
	}
}

func TestCacheArrayStateOps(t *testing.T) {
	c := newCacheArray(1024, 64, 4)
	if c.lookup(5) != Invalid {
		t.Error("phantom hit")
	}
	c.setState(5, Modified)
	c.invalidate(5)
	if c.peek(5) != Invalid || len(c.chunks) != 0 {
		t.Errorf("state ops on a never-filled set allocated %d chunks", len(c.chunks))
	}
	c.insert(5, Shared)
	c.setState(5, Modified)
	if c.peek(5) != Modified {
		t.Error("setState failed")
	}
	c.invalidate(5)
	if c.peek(5) != Invalid {
		t.Error("invalidate failed")
	}
	valid := 0
	c.eachLine(func(uint64, State) { valid++ })
	if valid != 0 || c.blocks != 1 {
		t.Errorf("%d valid lines in %d blocks after invalidate, want 0 in 1", valid, c.blocks)
	}
}

// TestCacheEntryIs16Bytes: a tag entry is its packed tag alone, 8 bytes,
// since a set's recency order is its way order and no LRU timestamp is
// kept (an 8-way set is one 64-byte host line); the state shares the line
// word, and the widest line a valid config can name keeps every state
// intact.
func TestCacheEntryIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(cacheEntry{}); n != 8 {
		t.Fatalf("cacheEntry is %d bytes, want 8", n)
	}
	const widest = uint64(1)<<61 - 1 // addr / LineBytes, LineBytes >= 8
	for _, line := range []uint64{0, 1, widest} {
		for _, st := range []State{Invalid, Shared, Modified} {
			e := cacheEntry{tag: packTag(line, st)}
			if e.line() != line || e.state() != st || e.holds(line) != (st != Invalid) {
				t.Errorf("packTag(%#x, %v): line %#x state %v holds %v", line, st, e.line(), e.state(), e.holds(line))
			}
		}
	}
}

// dropNet accepts every message and delivers none.
type dropNet struct{ stats noc.Stats }

func (*dropNet) Send(*noc.Message)          {}
func (*dropNet) SetDeliver(noc.DeliverFunc) {}
func (d *dropNet) Stats() *noc.Stats        { return &d.stats }

// TestProtocolMessageIsOneAllocation: a protocol message and its network
// envelope are one object, from a cache controller and from a directory
// slice alike, and with tracing off a directory transaction boxes none of
// its trace arguments. The line is above 255 because Go boxes a smaller
// integer without allocating, which would hide an unguarded trace call.
func TestProtocolMessageIsOneAllocation(t *testing.T) {
	cfg := config.Tiny()
	var k sim.Kernel
	s := NewSystem(&k, &cfg, &dropNet{})
	const line = 0x4000
	d := s.dirs[s.SliceOf(line)]
	bcast := &Msg{Type: MsgInvBcast, Line: line, From: d.core, Slice: d.slice, Seq: 1}
	if n := testing.AllocsPerRun(100, func() { s.ctrls[5].ack(bcast) }); n != 1 {
		t.Errorf("Ctrl.ack: %v allocations per message, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { d.reply(MsgShRep, 5, line, false) }); n != 1 {
		t.Errorf("DirSlice.reply: %v allocations per message, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { d.bcastInv(line) }); n != 1 {
		t.Errorf("DirSlice.bcastInv: %v allocations per message, want 1", n)
	}
	// An EvictS on a listed line with no owner: only its EvictAck.
	e := d.entry(line)
	evict := &Msg{Type: MsgEvictS, Line: line, From: 5, Slice: d.slice}
	if n := testing.AllocsPerRun(100, func() {
		e.state, e.sharers = Shared, append(e.sharers[:0], 5, 6)
		d.start(e, evict)
	}); n != 1 {
		t.Errorf("DirSlice.start(EvictS): %v allocations per request, want 1", n)
	}
}

func TestRandomStressAdaptiveRouting(t *testing.T) {
	// Adaptive routing varies the path per message; the fabric's
	// per-pair FIFO restoration must keep the protocol sound.
	k, s := atacFixture(t, func(c *config.Config) {
		c.Network.Routing = config.AdaptiveRouting
		c.Network.AdaptiveQueueMax = 1 // divert aggressively
	})
	randomStress(t, k, s, 6, 40, 4)
}

// TestStatsMergeFrom: MergeFrom, which sums several runs' blocks, adds
// every counter. Every field is filled through reflection with its own
// value, so a counter the merge dropped or crossed with another shows; and
// every field must stay a uint64, the one kind the reflective merge
// handles.
func TestStatsMergeFrom(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		if k := typ.Field(i).Type.Kind(); k != reflect.Uint64 {
			t.Fatalf("Stats.%s is a %v: MergeFrom merges uint64 fields only", typ.Field(i).Name, k)
		}
	}
	fill := func(base uint64) Stats {
		var s Stats
		v := reflect.ValueOf(&s).Elem()
		for i := 0; i < v.NumField(); i++ {
			v.Field(i).SetUint(base + 3*uint64(i) + 1)
		}
		return s
	}
	for _, tc := range []struct {
		name string
		a, b Stats
	}{
		{"IntoZero", Stats{}, fill(1000)},
		{"ZeroIn", fill(1000), Stats{}},
		{"Filled", fill(1000), fill(5000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.a
			got.MergeFrom(&tc.b)
			g, a, b := reflect.ValueOf(got), reflect.ValueOf(tc.a), reflect.ValueOf(tc.b)
			for i := 0; i < g.NumField(); i++ {
				if want := a.Field(i).Uint() + b.Field(i).Uint(); g.Field(i).Uint() != want {
					t.Errorf("%s = %d, want %d", typ.Field(i).Name, g.Field(i).Uint(), want)
				}
			}
		})
	}
}
