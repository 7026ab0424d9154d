package noc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/sim"
)

func TestMeshNarrowFlitBroadcast(t *testing.T) {
	// A 104-bit broadcast at 16-bit flits is a 7-flit worm, longer than
	// the 4-flit buffers: replication must still deliver exactly once
	// everywhere (worms stream; they are never fully buffered).
	var k sim.Kernel
	m := NewMesh(&k, 8, 16, 4, 1, 1, true)
	c := newCollector(m)
	m.Send(&Message{Src: 19, Dst: BroadcastDst, Bits: 104})
	k.RunAll()
	for d := 0; d < 64; d++ {
		if len(c.got[d]) != 1 {
			t.Fatalf("core %d got %d copies", d, len(c.got[d]))
		}
	}
	if !m.Drained() {
		t.Fatal("not drained")
	}
}

func TestMeshWideFlit(t *testing.T) {
	// 256-bit flits: a data message is 3 flits; everything must still
	// deliver and be faster than at 16-bit flits.
	run := func(flit int) sim.Time {
		var k sim.Kernel
		m := NewMesh(&k, 8, flit, 4, 1, 1, false)
		newCollector(m)
		for i := 0; i < 50; i++ {
			i := i
			k.At(sim.Time(i), func() { m.Send(&Message{Src: i % 64, Dst: 63 - i%64, Bits: 616}) })
		}
		k.RunAll()
		return k.Now()
	}
	wide, narrow := run(256), run(16)
	if wide >= narrow {
		t.Errorf("256-bit flits (%d cycles) not faster than 16-bit (%d)", wide, narrow)
	}
}

func TestMeshMinimumDim(t *testing.T) {
	var k sim.Kernel
	m := NewMesh(&k, 2, 64, 4, 1, 1, true)
	c := newCollector(m)
	m.Send(&Message{Src: 0, Dst: 3, Bits: 64})
	m.Send(&Message{Src: 1, Dst: BroadcastDst, Bits: 104})
	k.RunAll()
	if len(c.got[3]) != 2 { // unicast + broadcast copy
		t.Fatalf("corner got %d messages", len(c.got[3]))
	}
}

func TestNewMeshPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for dim=0")
		}
	}()
	var k sim.Kernel
	NewMesh(&k, 0, 64, 4, 1, 1, false)
}

func TestNewAtacPanicsOnElectricalKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for electrical config")
		}
	}()
	cfg := config.Small().WithNetwork(config.EMeshPure)
	var k sim.Kernel
	NewAtac(&k, &cfg)
}

func TestAtacRxInOrderDelivery(t *testing.T) {
	// Two broadcasts from the same source must be delivered in order at
	// every core even with two parallel StarNets (the coherence layer's
	// FIFO-among-broadcasts assumption).
	k, a, _ := atacFixture(t, nil)
	order := make(map[int][]int)
	a.SetDeliver(func(dst int, m *Message) {
		order[dst] = append(order[dst], m.Payload.(int))
	})
	// A long data unicast occupies one StarNet; two broadcasts follow.
	k.Schedule(0, func() {
		a.Send(&Message{Src: 0, Dst: 34, Bits: 616, Payload: 0})
		a.Send(&Message{Src: 0, Dst: BroadcastDst, Bits: 104, Payload: 1})
		a.Send(&Message{Src: 0, Dst: BroadcastDst, Bits: 104, Payload: 2})
	})
	k.RunAll()
	for dst, seq := range order {
		b1, b2 := -1, -1
		for i, p := range seq {
			if p == 1 {
				b1 = i
			}
			if p == 2 {
				b2 = i
			}
		}
		if b1 < 0 || b2 < 0 || b1 > b2 {
			t.Fatalf("core %d saw broadcasts out of order: %v", dst, seq)
		}
	}
}

func TestAtacBNetBroadcastEnergyCounters(t *testing.T) {
	// In BNet mode even unicasts drive the whole fan-out tree: the flit
	// counter feeding the energy model must reflect that.
	k, a, _ := atacFixture(t, func(c *config.Config) { *c = c.WithNetwork(config.ATAC) })
	a.Send(&Message{Src: 0, Dst: 63, Bits: 616}) // 10 flits via ONet
	k.RunAll()
	st := a.Stats()
	if st.BNetFlits != 10 {
		t.Errorf("BNetFlits = %d, want 10", st.BNetFlits)
	}
}

func TestAtacSaturationPerHub(t *testing.T) {
	// Each hub's optical channel transmits one flit per cycle: pushing
	// far more than that from one cluster must back up and stretch the
	// drain time beyond the serialized minimum.
	k, a, _ := atacFixture(t, nil)
	cluster0 := []int{0, 1, 8, 9} // the 2x2 cluster at the origin
	n := 0
	for i := 0; i < 200; i++ {
		src := cluster0[i%4]
		k.At(0, func() { a.Send(&Message{Src: src, Dst: 60, Bits: 616}) })
		n++
	}
	k.RunAll()
	if got := k.Now(); got < sim.Time(n*10) {
		t.Errorf("drained in %d cycles; %d 10-flit messages on one channel need >= %d", got, n, n*10)
	}
}

func TestMeshFuzzManySeeds(t *testing.T) {
	// Conservation fuzz across seeds and mesh sizes.
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dim := 3 + rng.Intn(5)
		var k sim.Kernel
		m := NewMesh(&k, dim, 64, 2+rng.Intn(4), 1, 1, seed%2 == 0)
		newCollector(m)
		nb, nu := 0, 0
		for i := 0; i < 300; i++ {
			at := sim.Time(rng.Intn(1500))
			src := rng.Intn(dim * dim)
			dst := rng.Intn(dim * dim)
			if rng.Intn(20) == 0 {
				dst = BroadcastDst
				nb++
			} else {
				nu++
			}
			bits := []int{64, 104, 616}[rng.Intn(3)]
			k.At(at, func() { m.Send(&Message{Src: src, Dst: dst, Bits: bits}) })
		}
		k.RunAll()
		st := m.Stats()
		want := uint64(nu) + uint64(nb*dim*dim)
		if st.Delivered != want {
			t.Fatalf("seed %d dim %d: delivered %d, want %d", seed, dim, st.Delivered, want)
		}
		if !m.Drained() {
			t.Fatalf("seed %d: not drained", seed)
		}
	}
}

// Property: the mesh route function always returns a legal output port
// that makes progress toward the destination.
func TestRouteProgressProperty(t *testing.T) {
	var k sim.Kernel
	m := NewMesh(&k, 8, 64, 4, 1, 1, false)
	f := func(srcRaw, dstRaw uint8) bool {
		src, dst := int(srcRaw)%64, int(dstRaw)%64
		r := m.routers[src]
		out := r.route(phaseNone, dst)
		if src == dst || out == portLocal {
			return src == dst && out == portLocal
		}
		// The chosen output must strictly reduce the Manhattan distance.
		nbr := r.nbr[out]
		if nbr == nil {
			return false
		}
		dx0, dy0 := absDiff(r.x, dst%8), absDiff(r.y, dst/8)
		dx1, dy1 := absDiff(nbr.x, dst%8), absDiff(nbr.y, dst/8)
		return dx1+dy1 == dx0+dy0-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func absDiff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

// Property: FlitsFor is monotone in bits and inversely monotone in width.
func TestFlitsForProperty(t *testing.T) {
	f := func(bitsRaw uint16, widthRaw uint8) bool {
		bits := int(bitsRaw)
		width := int(widthRaw)%256 + 1
		n := FlitsFor(bits, width)
		if n < 1 {
			return false
		}
		if n*width < bits {
			return false // must cover the payload
		}
		if bits > 0 && (n-1)*width >= bits {
			return false // must be minimal
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
