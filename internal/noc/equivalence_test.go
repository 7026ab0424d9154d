package noc

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// delivery is one ejection as the fabric's owner sees it.
type delivery struct {
	at             sim.Time
	dst, src, mdst int
	inject         sim.Time
}

// equivalenceRun drives one seeded injection through the 64-core fabric of
// the given kind (mut edits the config first) and returns every delivery
// in the order the fabric made it, plus the final counters. The injection
// is drawn before the run, so it is the same message stream on every
// fabric whatever the fabric does with it.
func equivalenceRun(t *testing.T, kind config.NetworkKind, bcastFrac float64, mut func(*config.Config)) ([]delivery, Stats) {
	t.Helper()
	cfg := config.Small().WithNetwork(kind)
	if mut != nil {
		mut(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var k sim.Kernel
	net, err := New(&k, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []delivery
	net.SetDeliver(func(dst int, m *Message) {
		got = append(got, delivery{k.Now(), dst, m.Src, m.Dst, m.Inject})
	})
	rng := rand.New(rand.NewSource(45))
	for c := sim.Time(0); c < 1500; c++ {
		var msgs []*Message
		for src := 0; src < cfg.Cores; src++ {
			if rng.Float64() >= 0.04 {
				continue
			}
			m := &Message{Src: src, Dst: rng.Intn(cfg.Cores), Bits: []int{16, 64, 200, 512}[rng.Intn(4)]}
			if rng.Float64() < bcastFrac {
				m.Dst = BroadcastDst
			}
			msgs = append(msgs, m)
		}
		k.At(c, func() {
			for _, m := range msgs {
				net.Send(m)
			}
		})
	}
	k.RunAll()
	return got, *net.Stats()
}

// TestDegenerateEquivalence: a fabric whose optical part carries nothing
// is the electrical mesh it is built on, delivery for delivery and counter
// for counter. A hybrid whose RThres exceeds the mesh span sends no
// unicast express and multicasts broadcasts on its mesh, so it is
// EMesh-BCast; on unicast traffic multicast never comes into play, so
// EMesh-BCast is EMesh-Pure; and ATAC+ under distance routing with that
// RThres keeps every unicast on its ENet, which is EMesh-Pure.
func TestDegenerateEquivalence(t *testing.T) {
	beyondSpan := func(c *config.Config) { c.Network.RThres = 2 * c.MeshDim() }
	cases := []struct {
		name      string
		a, b      config.NetworkKind
		mutA      func(*config.Config)
		bcastFrac float64
	}{
		{"HybridBeyondSpanIsEMeshBCast", config.HybridMesh, config.EMeshBCast, beyondSpan, 0.01},
		{"EMeshBCastUnicastIsEMeshPure", config.EMeshBCast, config.EMeshPure, nil, 0},
		{"ATACPlusBeyondSpanIsEMeshPure", config.ATACPlus, config.EMeshPure, beyondSpan, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gotA, stA := equivalenceRun(t, tc.a, tc.bcastFrac, tc.mutA)
			gotB, stB := equivalenceRun(t, tc.b, tc.bcastFrac, nil)
			if len(gotA) == 0 || stA.MeshLinkFlits == 0 {
				t.Fatalf("%v carried no traffic", tc.a)
			}
			if len(gotA) != len(gotB) {
				t.Fatalf("%v made %d deliveries, %v %d", tc.a, len(gotA), tc.b, len(gotB))
			}
			for i := range gotA {
				if gotA[i] != gotB[i] {
					t.Fatalf("delivery %d: %v %+v, %v %+v", i, tc.a, gotA[i], tc.b, gotB[i])
				}
			}
			va, vb := reflect.ValueOf(stA), reflect.ValueOf(stB)
			for i := 0; i < va.NumField(); i++ {
				if x, y := va.Field(i).Uint(), vb.Field(i).Uint(); x != y {
					t.Errorf("Stats.%s: %v %d, %v %d", va.Type().Field(i).Name, tc.a, x, tc.b, y)
				}
			}
			t.Logf("%d deliveries", len(gotA))
		})
	}
}
