package traffic

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/sim"
)

func TestPatternsByName(t *testing.T) {
	for _, name := range Patterns() {
		p, err := ByName(name, 8, 0.001)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("%s: Name() = %s", name, p.Name())
		}
		rng := rand.New(rand.NewSource(1))
		for src := 0; src < 64; src++ {
			d := p.Dst(src, rng)
			if d != noc.BroadcastDst && (d < 0 || d >= 64) {
				t.Fatalf("%s: Dst(%d) = %d out of range", name, src, d)
			}
		}
	}
	if _, err := ByName("nope", 8, 0); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestPatternGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Transpose of (3,1) on an 8x8 mesh is (1,3) = core 25.
	if d := (Transpose{Dim: 8}).Dst(1*8+3, rng); d != 3*8+1 {
		t.Errorf("transpose = %d, want 25", d)
	}
	if d := (BitComplement{Cores: 64}).Dst(0, rng); d != 63 {
		t.Errorf("bitcomp = %d, want 63", d)
	}
	if d := (Neighbor{Dim: 8}).Dst(7, rng); d != 0 { // row wrap
		t.Errorf("neighbor wrap = %d, want 0", d)
	}
	if d := (Tornado{Dim: 8}).Dst(0, rng); d != 4 {
		t.Errorf("tornado = %d, want 4", d)
	}
}

func TestUniformBroadcastFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	u := Uniform{Cores: 64, BcastFrac: 0.5}
	bc := 0
	for i := 0; i < 1000; i++ {
		if u.Dst(0, rng) == noc.BroadcastDst {
			bc++
		}
	}
	if bc < 400 || bc > 600 {
		t.Errorf("broadcast fraction %d/1000, want ~500", bc)
	}
}

func TestHotspotConcentration(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := Hotspot{Cores: 64, Hot: 32, HotFrac: 0.2}
	hot := 0
	for i := 0; i < 1000; i++ {
		if h.Dst(5, rng) == 32 {
			hot++
		}
	}
	// 20% directed + ~1/64 of the uniform remainder.
	if hot < 150 || hot > 280 {
		t.Errorf("hotspot hits %d/1000", hot)
	}
}

func TestDriveOnMesh(t *testing.T) {
	var k sim.Kernel
	m := noc.NewMesh(&k, 8, 64, 4, 1, 1, false)
	p, _ := ByName("uniform", 8, 0)
	res := Drive(&k, m, 64, p, 0.02, 64, 500, 2000, 5000, 7)
	if res.Injected == 0 {
		t.Fatal("nothing injected")
	}
	if res.Delivered < res.Injected {
		t.Errorf("delivered %d < injected %d after drain", res.Delivered, res.Injected)
	}
	if res.Latency.Mean() <= 0 {
		t.Error("no latency measured")
	}
	if res.Latency.Percentile(99) < res.Latency.Percentile(50) {
		t.Error("percentiles inverted")
	}
}

func TestDriveOnAtac(t *testing.T) {
	cfg := config.Small()
	var k sim.Kernel
	a := noc.NewAtac(&k, &cfg)
	p, _ := ByName("uniform", 8, 0.001)
	res := Drive(&k, a, 64, p, 0.02, 64, 500, 2000, 5000, 7)
	if res.Delivered == 0 || res.Latency.Mean() <= 0 {
		t.Fatalf("no measurements: %+v", res)
	}
}

func TestAdversarialPatternsCongestMore(t *testing.T) {
	// Tornado concentrates row traffic; at the same load its latency
	// must exceed neighbor traffic's.
	lat := func(name string) float64 {
		var k sim.Kernel
		m := noc.NewMesh(&k, 8, 64, 4, 1, 1, false)
		p, err := ByName(name, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		res := Drive(&k, m, 64, p, 0.15, 64, 1000, 4000, 20000, 9)
		return res.Latency.Mean()
	}
	nb, tor := lat("neighbor"), lat("tornado")
	if tor <= nb {
		t.Errorf("tornado latency %.1f not above neighbor %.1f", tor, nb)
	}
}

func TestDriveDeterminism(t *testing.T) {
	run := func() (uint64, float64) {
		var k sim.Kernel
		m := noc.NewMesh(&k, 8, 64, 4, 1, 1, false)
		p, _ := ByName("hotspot", 8, 0)
		res := Drive(&k, m, 64, p, 0.05, 64, 200, 1000, 5000, 11)
		return res.Delivered, res.Latency.Mean()
	}
	d1, l1 := run()
	d2, l2 := run()
	if d1 != d2 || l1 != l2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", d1, l1, d2, l2)
	}
}

// queueProbe records the kernel's queue length when Drive's first message
// is sent, i.e. after every injection has been scheduled.
type queueProbe struct {
	noc.Network
	k       *sim.Kernel
	pending int
}

func (q *queueProbe) Send(m *noc.Message) {
	if q.pending < 0 {
		q.pending = q.k.Pending()
	}
	q.Network.Send(m)
}

func TestDriveQueueIndependentOfLoad(t *testing.T) {
	// Drive queues one event per cycle of its window, however many
	// messages those cycles inject.
	const horizon = 6000
	for _, load := range []float64{0.02, 0.5} {
		var k sim.Kernel
		q := &queueProbe{Network: noc.NewMesh(&k, 8, 64, 4, 1, 1, false), k: &k, pending: -1}
		p, _ := ByName("uniform", 8, 0)
		Drive(&k, q, 64, p, load, 64, 1000, horizon-1000, 20000, 7)
		if q.pending < 0 || q.pending >= horizon {
			t.Errorf("load %g: %d events queued at the first send, want < %d", load, q.pending, horizon)
		}
	}
}

func TestDriveAllocBudget(t *testing.T) {
	// Drive allocates the Message per send and O(cycles) besides (the
	// kernel's bucket arrays, one per pre-scheduled cycle within the wheel,
	// growing to that cycle's load; latency-histogram growth; the mesh's
	// pools): no closure per message, and no boxed heap entry per far
	// injection.
	const cycles = 20000
	var k sim.Kernel
	m := noc.NewMesh(&k, 8, 64, 4, 1, 1, false)
	p, _ := ByName("uniform", 8, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := Drive(&k, m, 64, p, 0.05, 64, 0, cycles, 5000, 7)
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	if budget := res.Injected + 2*cycles; allocs > budget {
		t.Errorf("%d allocs for %d messages over %d cycles, budget %d", allocs, res.Injected, cycles, budget)
	}
}
