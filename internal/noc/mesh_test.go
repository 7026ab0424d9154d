package noc

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

func newTestMesh(k *sim.Kernel, dim int, multicast bool) *EMesh {
	return NewMesh(k, dim, 64, 4, 1, 1, multicast)
}

// collector records deliveries per destination.
type collector struct {
	got map[int][]*Message
}

func newCollector(n Network) *collector {
	c := &collector{got: make(map[int][]*Message)}
	n.SetDeliver(func(dst int, m *Message) { c.got[dst] = append(c.got[dst], m) })
	return c
}

func TestMeshUnicastDelivery(t *testing.T) {
	var k sim.Kernel
	m := newTestMesh(&k, 8, false)
	c := newCollector(m)
	msg := &Message{Src: 0, Dst: 63, Bits: 64}
	m.Send(msg)
	k.RunAll()
	if len(c.got[63]) != 1 || c.got[63][0] != msg {
		t.Fatalf("destination 63 got %v deliveries", len(c.got[63]))
	}
	if len(c.got) != 1 {
		t.Fatalf("stray deliveries: %v", c.got)
	}
	if !m.Drained() {
		t.Fatal("mesh not drained")
	}
}

// TestMeshDrainedSeesFlitOnLink: a flit that has left its router but not
// yet landed downstream (a 4-cycle link) counts as traffic in the mesh.
func TestMeshDrainedSeesFlitOnLink(t *testing.T) {
	var k sim.Kernel
	m := NewMesh(&k, 2, 64, 4, 1, 4, false)
	c := newCollector(m)
	m.Send(&Message{Src: 0, Dst: 1, Bits: 64})
	src, dst := m.enet.routers[0], m.enet.routers[1]
	for src.occ != 0 {
		if !k.Step() {
			t.Fatal("kernel ran dry before the flit left its source router")
		}
	}
	if dst.occ == 0 || dst.landed != 0 {
		t.Fatalf("flit not on the link: downstream occ %b, landed %d", dst.occ, dst.landed)
	}
	if m.ENet().Drained() || m.Drained() {
		t.Fatal("Drained with a flit on a link")
	}
	k.RunAll()
	if len(c.got[1]) != 1 || !m.Drained() {
		t.Fatalf("%d deliveries at core 1, drained %v", len(c.got[1]), m.Drained())
	}
}

func TestMeshZeroLoadLatency(t *testing.T) {
	var k sim.Kernel
	m := newTestMesh(&k, 8, false)
	newCollector(m)
	m.Send(&Message{Src: 0, Dst: 63, Bits: 64})
	k.RunAll()
	// 14 hops at 2 cycles/hop (1 router + 1 link) plus injection and
	// ejection stages: expect ~28-34 cycles.
	lat := m.Stats().AvgLatency()
	if lat < 25 || lat > 40 {
		t.Errorf("zero-load latency %v cycles across 14 hops, want ~30", lat)
	}
	// A 1-hop message should be far cheaper.
	var k2 sim.Kernel
	m2 := newTestMesh(&k2, 8, false)
	newCollector(m2)
	m2.Send(&Message{Src: 0, Dst: 1, Bits: 64})
	k2.RunAll()
	if l := m2.Stats().AvgLatency(); l > 8 {
		t.Errorf("1-hop latency %v, want <= 8", l)
	}
}

func TestMeshSelfSend(t *testing.T) {
	var k sim.Kernel
	m := newTestMesh(&k, 4, false)
	c := newCollector(m)
	m.Send(&Message{Src: 5, Dst: 5, Bits: 64})
	k.RunAll()
	if len(c.got[5]) != 1 {
		t.Fatalf("self-send: got %d deliveries", len(c.got[5]))
	}
}

func TestMeshMultiFlitMessage(t *testing.T) {
	var k sim.Kernel
	m := newTestMesh(&k, 4, false)
	c := newCollector(m)
	m.Send(&Message{Src: 0, Dst: 15, Bits: 600}) // 10 flits
	k.RunAll()
	if len(c.got[15]) != 1 {
		t.Fatalf("got %d deliveries", len(c.got[15]))
	}
	// 10 flits over 6 hops: serialization adds ~9 cycles over head latency.
	if lat := m.Stats().AvgLatency(); lat < 18 || lat > 40 {
		t.Errorf("10-flit latency = %v", lat)
	}
}

func TestMeshBroadcastMulticast(t *testing.T) {
	var k sim.Kernel
	m := newTestMesh(&k, 8, true)
	c := newCollector(m)
	m.Send(&Message{Src: 27, Dst: BroadcastDst, Bits: 104})
	k.RunAll()
	for d := 0; d < 64; d++ {
		if len(c.got[d]) != 1 {
			t.Fatalf("core %d received %d copies, want exactly 1", d, len(c.got[d]))
		}
	}
	if !m.Drained() {
		t.Fatal("mesh not drained after broadcast")
	}
}

func TestMeshBroadcastSerialized(t *testing.T) {
	var k sim.Kernel
	m := newTestMesh(&k, 8, false)
	c := newCollector(m)
	m.Send(&Message{Src: 0, Dst: BroadcastDst, Bits: 104})
	k.RunAll()
	for d := 0; d < 64; d++ {
		if len(c.got[d]) != 1 {
			t.Fatalf("core %d received %d copies", d, len(c.got[d]))
		}
		if !c.got[d][0].IsBroadcast() {
			t.Fatalf("core %d clone not marked broadcast", d)
		}
	}
	if got := m.Stats().BroadcastRecv; got != 64 {
		t.Errorf("BroadcastRecv = %d, want 64", got)
	}
}

func TestSerializedBroadcastSlowerThanMulticast(t *testing.T) {
	// The motivation for EMesh-BCast: source serialization makes
	// EMesh-Pure broadcasts drastically slower (Fig 4 discussion).
	run := func(multicast bool) uint64 {
		var k sim.Kernel
		m := newTestMesh(&k, 8, multicast)
		newCollector(m)
		m.Send(&Message{Src: 0, Dst: BroadcastDst, Bits: 104})
		k.RunAll()
		return m.Stats().LatencyMax
	}
	pure, bcast := run(false), run(true)
	if pure < 2*bcast {
		t.Errorf("serialized broadcast max latency %d not >> multicast %d", pure, bcast)
	}
}

func TestMeshCornerBroadcasts(t *testing.T) {
	// Broadcast from each corner and an edge must still reach everyone.
	for _, src := range []int{0, 7, 56, 63, 3, 24} {
		var k sim.Kernel
		m := newTestMesh(&k, 8, true)
		c := newCollector(m)
		m.Send(&Message{Src: src, Dst: BroadcastDst, Bits: 104})
		k.RunAll()
		for d := 0; d < 64; d++ {
			if len(c.got[d]) != 1 {
				t.Fatalf("src %d: core %d got %d copies", src, d, len(c.got[d]))
			}
		}
	}
}

func TestMeshRandomTrafficConservation(t *testing.T) {
	// Property: every injected message is delivered exactly once, under
	// random concurrent load, and the mesh fully drains.
	rng := rand.New(rand.NewSource(7))
	var k sim.Kernel
	m := newTestMesh(&k, 8, true)
	newCollector(m)
	const N = 2000
	sent := 0
	for i := 0; i < N; i++ {
		at := sim.Time(rng.Intn(4000))
		src := rng.Intn(64)
		bits := 104
		if rng.Intn(3) == 0 {
			bits = 600
		}
		dst := rng.Intn(64)
		if rng.Intn(50) == 0 {
			dst = BroadcastDst
		}
		k.At(at, func() { m.Send(&Message{Src: src, Dst: dst, Bits: bits}) })
		sent++
	}
	k.RunAll()
	if !m.Drained() {
		t.Fatal("mesh not drained")
	}
	st := m.Stats()
	wantDeliveries := st.UnicastSent + st.BroadcastSent*64
	if st.Delivered != wantDeliveries {
		t.Fatalf("Delivered = %d, want %d", st.Delivered, wantDeliveries)
	}
	if st.UnicastSent+st.BroadcastSent != uint64(sent) {
		t.Fatalf("sent accounting: %d + %d != %d", st.UnicastSent, st.BroadcastSent, sent)
	}
}

func TestMeshDeterminism(t *testing.T) {
	run := func() (uint64, float64) {
		rng := rand.New(rand.NewSource(3))
		var k sim.Kernel
		m := newTestMesh(&k, 8, true)
		newCollector(m)
		for i := 0; i < 500; i++ {
			at := sim.Time(rng.Intn(1000))
			src, dst := rng.Intn(64), rng.Intn(64)
			k.At(at, func() { m.Send(&Message{Src: src, Dst: dst, Bits: 104}) })
		}
		k.RunAll()
		return m.Stats().MeshLinkFlits, m.Stats().AvgLatency()
	}
	f1, l1 := run()
	f2, l2 := run()
	if f1 != f2 || l1 != l2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", f1, l1, f2, l2)
	}
}

func TestMeshHotspotBackpressure(t *testing.T) {
	// All cores hammer core 0; latency must rise well above zero-load
	// but every message still arrives.
	var k sim.Kernel
	m := newTestMesh(&k, 8, false)
	c := newCollector(m)
	n := 0
	for src := 1; src < 64; src++ {
		for i := 0; i < 10; i++ {
			src := src
			k.At(sim.Time(i), func() { m.Send(&Message{Src: src, Dst: 0, Bits: 600}) })
			n++
		}
	}
	k.RunAll()
	if len(c.got[0]) != n {
		t.Fatalf("hotspot received %d of %d", len(c.got[0]), n)
	}
	// 630 x 10-flit messages into one ejection port: >= 6300 cycles.
	if k.Now() < 6000 {
		t.Errorf("hotspot drained implausibly fast: %d cycles", k.Now())
	}
}

func TestFlitsFor(t *testing.T) {
	cases := []struct{ bits, flit, want int }{
		{64, 64, 1}, {65, 64, 2}, {600, 64, 10}, {104, 64, 2},
		{0, 64, 1}, {600, 256, 3}, {600, 16, 38},
	}
	for _, c := range cases {
		if got := FlitsFor(c.bits, c.flit); got != c.want {
			t.Errorf("FlitsFor(%d,%d) = %d, want %d", c.bits, c.flit, got, c.want)
		}
	}
}

func TestMeshSaturation(t *testing.T) {
	// Latency must grow monotonically (roughly) with offered load and
	// explode near saturation — the Fig 3 mechanism.
	latAt := func(load float64) float64 {
		rng := rand.New(rand.NewSource(11))
		var k sim.Kernel
		m := newTestMesh(&k, 8, false)
		newCollector(m)
		horizon := 3000
		for t := 0; t < horizon; t++ {
			for c := 0; c < 64; c++ {
				if rng.Float64() < load {
					src, dst := c, rng.Intn(64)
					k.At(sim.Time(t), func() { m.Send(&Message{Src: src, Dst: dst, Bits: 64}) })
				}
			}
		}
		k.Run(sim.Time(horizon))
		k.RunAll()
		return m.Stats().AvgLatency()
	}
	low, high := latAt(0.005), latAt(0.5)
	if high < 2*low {
		t.Errorf("no congestion signal: latency %v at low load vs %v at high", low, high)
	}
}

// TestRouterInputFeedsTwoOutputsPerCycle names the allocator behaviour the
// goldens rest on: outputs are served in ascending order within a tick, and
// the flit behind one just forwarded is considered for the outputs not yet
// visited. So one input holding worms for N (output 0) then E (output 2)
// forwards both in one cycle, N first; holding them in the other order it
// forwards E, and N a cycle later — never two flits backwards.
func TestRouterInputFeedsTwoOutputsPerCycle(t *testing.T) {
	type ejection struct {
		dst int
		at  sim.Time
	}
	for _, tc := range []struct {
		name      string
		dsts      [2]int // sent in this order from the centre of a 3x3 mesh
		firstTick uint64 // flits the centre router moves in its first tick
		gap       sim.Time
	}{
		{"ascending", [2]int{1, 5}, 2, 0},
		{"descending", [2]int{5, 1}, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var k sim.Kernel
			m := newTestMesh(&k, 3, false)
			var got []ejection
			m.SetDeliver(func(dst int, _ *Message) { got = append(got, ejection{dst, k.Now()}) })
			for _, d := range tc.dsts {
				m.Send(&Message{Src: 4, Dst: d, Bits: 64})
			}
			k.Run(1) // injected at 0, arbitrable from 1: the first tick
			if moved := m.enet.routers[4].fwdFlits; moved != tc.firstTick {
				t.Fatalf("first tick moved %d flits, want %d", moved, tc.firstTick)
			}
			k.RunAll()
			if len(got) != 2 || got[0].dst != tc.dsts[0] || got[1].dst != tc.dsts[1] || got[1].at-got[0].at != tc.gap {
				t.Fatalf("ejections %v, want dsts %v in that order, %d cycle(s) apart", got, tc.dsts, tc.gap)
			}
			checkMeshInvariants(t, m.enet)
		})
	}
}

// TestFlitAndRouterSizes guards the hot path's footprint: every hop copies
// a flit into the downstream ring, and a tick reads one router's state.
func TestFlitAndRouterSizes(t *testing.T) {
	if got := unsafe.Sizeof(flit{}); got > 16 {
		t.Errorf("flit is %d bytes, want <= 16", got)
	}
	if got := unsafe.Sizeof(router{}); got > 440 {
		t.Errorf("router is %d bytes, want <= 440", got)
	}
}

// TestFlitReadyAcrossWrap checks ready's serial-number comparison where
// the clock's low 32 bits wrap: a flit visible from a cycle just past
// 2^32 is not ready a cycle before it, and is from that cycle on, however
// far the clock has run.
func TestFlitReadyAcrossWrap(t *testing.T) {
	for _, base := range []sim.Time{0, 1 << 32, 5 << 32} {
		for _, vis := range []sim.Time{base + 1<<32 - 2, base + 1<<32 - 1, base + 1<<32, base + 1<<32 + 3} {
			f := flit{vis: uint32(vis)}
			for _, now := range []sim.Time{vis - 1<<30, vis - 2, vis - 1, vis, vis + 1, vis + 1<<30} {
				if got, want := f.ready(now), now >= vis; got != want {
					t.Errorf("flit visible from %#x: ready(%#x) = %v, want %v", vis, now, got, want)
				}
			}
		}
	}
}

// TestFlitBitsRoundTrip checks the packed port, marks and phase stay
// apart: setting one leaves the others as they were.
func TestFlitBitsRoundTrip(t *testing.T) {
	for _, ph := range []mcPhase{phaseNone, phaseRow, phaseCol} {
		for _, mark := range []uint8{0, markHead, markTail, markHead | markTail} {
			for p := uint8(0); p < numPorts; p++ {
				f := flit{bits: uint8(ph)<<phaseShift | mark}
				f.setPort(numPorts - 1)
				f.setPort(p)
				if f.port() != int(p) || f.phase() != ph || f.head() != (mark&markHead != 0) || f.tail() != (mark&markTail != 0) {
					t.Errorf("phase %d mark %#x port %d: read back port %d phase %d head %v tail %v",
						ph, mark, p, f.port(), f.phase(), f.head(), f.tail())
				}
			}
		}
	}
}

// TestMessageSize pins a Message at 64 bytes: every Send allocates one, and
// a flag or count added to it must fit in the padding after its bools.
func TestMessageSize(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got != 64 {
		t.Errorf("Message is %d bytes, want 64", got)
	}
}

// TestRRPickMatchesScan checks rrPick against the round-robin it replaced,
// a scan of the inputs from the pointer for a candidate with a worm head in
// front, for every candidate set, head set and pointer: the same grant and
// the same next pointer, and no grant exactly when the scan finds none.
func TestRRPickMatchesScan(t *testing.T) {
	for cand := 0; cand < 1<<numPorts; cand++ {
		for heads := 0; heads < 1<<numPorts; heads++ {
			for rr := 0; rr < numPorts; rr++ {
				want, wantRR := -1, rr
				for k := 0; k < numPorts; k++ {
					if p := (rr + k) % numPorts; cand&(1<<p) != 0 && heads&(1<<p) != 0 {
						want, wantRR = p, (p+1)%numPorts
						break
					}
				}
				got, gotRR := -1, rr
				if e := uint8(cand & heads); e != 0 {
					var next uint8
					got, next = rrPick(e, uint8(rr))
					gotRR = int(next)
				}
				if got != want || gotRR != wantRR {
					t.Fatalf("cand=%05b heads=%05b rr=%d: rrPick grants %d (next %d), scan grants %d (next %d)",
						cand, heads, rr, got, gotRR, want, wantRR)
				}
			}
		}
	}
}

// TestSign checks the branch-free sign route uses, at the edges of int.
func TestSign(t *testing.T) {
	for _, c := range []struct{ v, want int }{
		{0, 0}, {1, 1}, {-1, -1}, {31, 1}, {-31, -1}, {math.MaxInt, 1}, {math.MinInt + 1, -1},
	} {
		if got := sign(c.v); got != c.want {
			t.Errorf("sign(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}
