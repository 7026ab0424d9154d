// Flit-conservation property tests: every injected message is delivered
// exactly once at its destination (unicast) or exactly once at every
// core including the sender's (broadcast) — no loss, no duplication —
// across every fabric backend, under randomized traffic, and with fault
// injection forcing retransmission and rerouting. The same property
// backs the fuzz targets in fuzz_test.go.
package noc

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/sim"
)

// sentMsg records one injected message for the conservation check.
// Messages are identified by a unique int payload: EMesh-Pure serializes
// a broadcast into per-destination clones, so pointer identity cannot
// name a logical message — the payload survives cloning.
type sentMsg struct {
	id    int
	src   int
	dst   int // BroadcastDst for broadcasts
	bcast bool
}

// conservationHarness drives randomized traffic into a network and
// asserts the conservation property after the kernel drains, and that
// every delivered message carries the flit count its size needs.
type conservationHarness struct {
	net   Network
	k     *sim.Kernel
	cores int
	sent  []sentMsg
	// got[id][dst] counts deliveries of logical message id at core dst.
	got map[int]map[int]int
	// badFlits lists deliveries whose message did not carry the flit
	// count its size needs at the fabric's flit width.
	badFlits []string
}

func newConservationHarness(k *sim.Kernel, net Network, cores int) *conservationHarness {
	h := &conservationHarness{net: net, k: k, cores: cores, got: map[int]map[int]int{}}
	flitBits := net.(interface{ ENet() *Mesh }).ENet().FlitBits
	net.SetDeliver(func(dst int, m *Message) {
		id := m.Payload.(int)
		if want := FlitsFor(m.Bits, flitBits); int(m.flits) != want {
			h.badFlits = append(h.badFlits, fmt.Sprintf("message %d (%d bits) at core %d carries %d flits, want %d",
				id, m.Bits, dst, m.flits, want))
		}
		if h.got[id] == nil {
			h.got[id] = map[int]int{}
		}
		h.got[id][dst]++
	})
	return h
}

// inject sends n messages with sources, destinations, sizes and
// unicast/broadcast mix drawn from rng.
func (h *conservationHarness) inject(rng *rand.Rand, n int, bcastFrac float64) {
	for i := 0; i < n; i++ {
		m := sentMsg{id: len(h.sent), src: rng.Intn(h.cores)}
		if rng.Float64() < bcastFrac {
			m.dst, m.bcast = BroadcastDst, true
		} else {
			m.dst = rng.Intn(h.cores)
			for m.dst == m.src {
				m.dst = rng.Intn(h.cores)
			}
		}
		h.sent = append(h.sent, m)
		bits := []int{16, 64, 512}[rng.Intn(3)]
		h.net.Send(&Message{Src: m.src, Dst: m.dst, Bits: bits, Payload: m.id})
	}
}

// check runs the kernel to drain and asserts exactly-once delivery.
func (h *conservationHarness) check(t testing.TB) {
	t.Helper()
	h.k.RunAll()
	if len(h.badFlits) > 0 {
		t.Fatalf("%d deliveries with a wrong flit count, first: %s", len(h.badFlits), h.badFlits[0])
	}
	for _, s := range h.sent {
		deliveries := h.got[s.id]
		if s.bcast {
			if len(deliveries) != h.cores {
				t.Fatalf("broadcast %d from %d reached %d of %d cores", s.id, s.src, len(deliveries), h.cores)
			}
			for dst, n := range deliveries {
				if n != 1 {
					t.Fatalf("broadcast %d delivered %d times at core %d", s.id, n, dst)
				}
			}
		} else {
			if n := deliveries[s.dst]; n != 1 {
				t.Fatalf("unicast %d (%d->%d) delivered %d times at its destination", s.id, s.src, s.dst, n)
			}
			if len(deliveries) != 1 {
				t.Fatalf("unicast %d (%d->%d) leaked to other cores: %v", s.id, s.src, s.dst, deliveries)
			}
		}
	}
	d, ok := h.net.(Drainer)
	if !ok {
		t.Fatalf("%T does not implement noc.Drainer", h.net)
	}
	if !d.Drained() {
		t.Fatal("network not drained after RunAll")
	}
}

// Every fabric backend must satisfy Drainer so the harness check above —
// and the system layer's end-of-run accounting — hold by construction.
var (
	_ Drainer = (*EMesh)(nil)
	_ Drainer = (*Atac)(nil)
	_ Drainer = (*Crossbar)(nil)
	_ Drainer = (*Hybrid)(nil)
)

// opticalFixture builds the 16-core fabric of the given optical kind
// (ATAC+, Corona, or the 4-gateway radius-1 hybrid) with optional faults;
// mut, if given, edits the config before validation.
func opticalFixture(t testing.TB, kind config.NetworkKind, fc config.Fault, mut ...func(*config.Config)) (*sim.Kernel, Network) {
	t.Helper()
	cfg := config.Tiny().WithNetwork(kind)
	cfg.Fault = fc // set ahead of construction: the fabric sizes its fault-aware state from it
	for _, f := range mut {
		f(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var k sim.Kernel
	net, err := New(&k, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if inj := fault.NewInjector(cfg.Fault, cfg.Network.FlitBits, cfg.Seed, &k); inj != nil {
		net.(interface{ SetFaults(*fault.Injector) }).SetFaults(inj)
	}
	return &k, net
}

// TestNew: the factory maps every kind to its fabric and refuses the rest.
func TestNew(t *testing.T) {
	for kind, want := range map[config.NetworkKind]string{
		config.EMeshPure: "*noc.EMesh", config.EMeshBCast: "*noc.EMesh",
		config.ATAC: "*noc.Atac", config.ATACPlus: "*noc.Atac",
		config.Corona: "*noc.Crossbar", config.HybridMesh: "*noc.Hybrid",
	} {
		cfg := config.Tiny().WithNetwork(kind)
		var k sim.Kernel
		net, err := New(&k, &cfg)
		if got := fmt.Sprintf("%T", net); err != nil || got != want {
			t.Errorf("%v: %s, %v; want %s", kind, got, err, want)
		}
	}
	cfg := config.Tiny()
	cfg.Network.Kind = 99
	if net, err := New(&sim.Kernel{}, &cfg); err == nil || net != nil {
		t.Errorf("kind 99: %T, %v; want an error", net, err)
	}
}

// opticalFaultProfile is the shared faulty-fixture profile: optical and
// mesh error rates high enough to force retransmission, degradation armed
// at its default, no watchdog (the harness drives raw kernels).
func opticalFaultProfile(seed int64) config.Fault {
	fc := config.DefaultFault()
	fc.Enabled = true
	fc.OpticalBER = 1e-3
	fc.MeshBER = 2e-4
	fc.WatchdogInterval = 0
	fc.Seed = seed
	return fc
}

func TestFlitConservation(t *testing.T) {
	clean := func(int64) config.Fault { return config.Fault{} }
	optical := func(kind config.NetworkKind, fc func(int64) config.Fault, mut ...func(*config.Config)) func(testing.TB, int64) (*sim.Kernel, Network) {
		return func(t testing.TB, seed int64) (*sim.Kernel, Network) {
			return opticalFixture(t, kind, fc(seed), mut...)
		}
	}
	ablate := func(cfg *config.Config) { cfg.Network.BcastAsUnicast = true }
	cases := []struct {
		name  string
		build func(t testing.TB, seed int64) (*sim.Kernel, Network)
	}{
		{"EMeshPure", func(t testing.TB, seed int64) (*sim.Kernel, Network) {
			var k sim.Kernel
			return &k, newTestMesh(&k, 4, false)
		}},
		{"EMeshBCast", func(t testing.TB, seed int64) (*sim.Kernel, Network) {
			var k sim.Kernel
			return &k, newTestMesh(&k, 4, true)
		}},
		{"MeshFaulty", func(t testing.TB, seed int64) (*sim.Kernel, Network) {
			var k sim.Kernel
			m := newTestMesh(&k, 4, true)
			m.SetFaults(fault.NewInjector(config.Fault{Enabled: true, MeshBER: 1e-3}, 64, seed, &k))
			return &k, m
		}},
		{"EMeshPureFaulty", func(t testing.TB, seed int64) (*sim.Kernel, Network) {
			var k sim.Kernel
			m := newTestMesh(&k, 4, false)
			m.SetFaults(fault.NewInjector(config.Fault{Enabled: true, MeshBER: 1e-3}, 64, seed, &k))
			return &k, m
		}},
		{"PlainATAC", optical(config.ATAC, clean)},
		{"PlainATACFaulty", optical(config.ATAC, opticalFaultProfile)},
		{"ATACPlus", optical(config.ATACPlus, clean)},
		{"ATACFaulty", optical(config.ATACPlus, opticalFaultProfile)},
		{"ATACBcastAsUnicast", optical(config.ATACPlus, clean, ablate)},
		{"ATACBcastAsUnicastFaulty", optical(config.ATACPlus, opticalFaultProfile, ablate)},
		{"Corona", optical(config.Corona, clean)},
		{"CoronaFaulty", optical(config.Corona, opticalFaultProfile)},
		{"Hybrid", optical(config.HybridMesh, clean)},
		{"HybridFaulty", optical(config.HybridMesh, opticalFaultProfile)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					k, net := tc.build(t, seed)
					h := newConservationHarness(k, net, 16)
					h.inject(rand.New(rand.NewSource(seed)), 200, 0.25)
					h.check(t)
					checkMeshInvariants(t, net.(interface{ ENet() *Mesh }).ENet())
					checkFabricInvariants(t, net, !strings.HasSuffix(tc.name, "Faulty"))
				})
			}
		})
	}
}

// TestConservationUnderLoadBursts interleaves injection with kernel
// progress, so traffic meets in-flight traffic (credit back-pressure,
// hub contention) rather than an idle fabric.
func TestConservationUnderLoadBursts(t *testing.T) {
	k, a := opticalFixture(t, config.ATACPlus, config.Fault{})
	h := newConservationHarness(k, a, 16)
	rng := rand.New(rand.NewSource(99))
	for burst := 0; burst < 8; burst++ {
		h.inject(rng, 50, 0.3)
		k.Run(k.Now() + 20) // partial drain: next burst collides mid-flight
	}
	h.check(t)
}

// checkMeshInvariants asserts the router bookkeeping a mesh must return to
// once the kernel has run dry: no flit queued or counted as landed, no
// link-input ring grown past the BufFlits-sized ring it was given (credit
// flow control bounds it), no output still held by a worm, and on every
// link all BufFlits credits back at the sender — spendable or staged on
// the reverse wire (credits are folded only by the output that spends
// them, so some stay staged).
func checkMeshInvariants(t testing.TB, m *Mesh) {
	t.Helper()
	depth := 1 << bits.Len(uint(m.BufFlits-1))
	for _, r := range m.routers {
		if r.occ != 0 || r.landed != 0 {
			t.Fatalf("router %d: occ=%05b landed=%d after drain", r.id, r.occ, r.landed)
		}
		for p := 0; p < portLocal; p++ {
			if got := len(r.in[p].buf); got != depth {
				t.Fatalf("router %d input %d: ring holds %d slots, allocated %d for %d buffer flits",
					r.id, p, got, depth, m.BufFlits)
			}
		}
		if r.locked != 0 {
			t.Fatalf("router %d: outputs %05b still locked after drain", r.id, r.locked)
		}
		for out, c := range r.outCredit {
			if staged := r.credQ[out].n; int(c+staged) != m.BufFlits {
				t.Fatalf("router %d output %d: %d credits + %d staged, want %d", r.id, out, c, staged, m.BufFlits)
			}
		}
	}
}

// checkFabricInvariants asserts, after a drain, the counters-only
// invariants a fabric kind adds to exactly-once delivery.
//
// Corona, the token invariant: every token grant is matched by exactly one
// release, under faults included (the writer holds the token across
// retries). Clean hybrid, boundary conservation: every express packet
// enters a gateway exactly once (TX enqueue) and leaves exactly once (RX
// drain), so the gateway flit count is exactly twice the express flit
// count; retransmissions legitimately break that equality, so faulty
// hybrids are held to the harness property alone.
//
// ATAC, the slot accounting, clean or faulty and with the Section V-D
// ablation on or off: every optical slot (a native broadcast, or one
// unicast-mode receiver slot) carries one select notification and keeps
// its hub busy SelectDataLag cycles plus its data flits, so the hubs' busy
// time behind Table V's link utilization has a closed form in the packet
// and flit counters. Every express packet of the hybrid carries one select
// notification.
func checkFabricInvariants(t testing.TB, net Network, clean bool) {
	t.Helper()
	st := net.Stats()
	switch a := net.(type) {
	case *Atac:
		slots := st.ONetUniPkts + st.ONetBcastPkts
		if st.SelectEvents != slots {
			t.Fatalf("%d select events for %d optical slots", st.SelectEvents, slots)
		}
		lag := uint64(a.Cfg.Network.SelectDataLag)
		if want := lag*slots + st.ONetUniFlits + st.ONetBcastFlits; a.BusyCycles() != want {
			t.Fatalf("hubs busy %d cycles, want %d (lag %d x %d slots + %d uni + %d bcast flits)",
				a.BusyCycles(), want, lag, slots, st.ONetUniFlits, st.ONetBcastFlits)
		}
	case *Crossbar:
		if st.TokensGranted != st.TokensReturned {
			t.Fatalf("token leak: %d granted, %d returned", st.TokensGranted, st.TokensReturned)
		}
		if st.XbarPkts > 0 && st.TokensGranted == 0 {
			t.Fatalf("%d crossbar packets moved without a token grant", st.XbarPkts)
		}
	case *Hybrid:
		if st.SelectEvents != st.ExpressPkts {
			t.Fatalf("%d select events for %d express packets", st.SelectEvents, st.ExpressPkts)
		}
		if clean && st.HubFlits != 2*st.ExpressFlits {
			t.Fatalf("gateway boundary leak: %d gateway flits, want 2x%d express flits",
				st.HubFlits, st.ExpressFlits)
		}
	}
}

// TestCrossbarTokenConservation drives randomized traffic — clean and
// under optical faults — and asserts every granted home-channel token is
// returned, with token waits actually accumulated under contention.
func TestCrossbarTokenConservation(t *testing.T) {
	for _, tc := range []struct {
		name string
		fc   func(seed int64) config.Fault
	}{
		{"Clean", func(int64) config.Fault { return config.Fault{} }},
		{"Faulty", opticalFaultProfile},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				k, x := opticalFixture(t, config.Corona, tc.fc(seed))
				h := newConservationHarness(k, x, 16)
				h.inject(rand.New(rand.NewSource(seed)), 300, 0.25)
				h.check(t)
				checkFabricInvariants(t, x, tc.name == "Clean")
				if st := x.Stats(); st.TokensGranted == 0 {
					t.Fatal("traffic never exercised the crossbar channels")
				}
			}
		})
	}
}

// TestHybridBoundaryConservation asserts flit conservation across the
// hybrid's electrical/photonic boundary on a clean fabric (see
// checkFabricInvariants).
func TestHybridBoundaryConservation(t *testing.T) {
	k, hy := opticalFixture(t, config.HybridMesh, config.Fault{})
	h := newConservationHarness(k, hy, 16)
	h.inject(rand.New(rand.NewSource(7)), 300, 0.25)
	h.check(t)
	if st := hy.Stats(); st.ExpressPkts == 0 {
		t.Fatal("traffic never exercised the express channels")
	}
	checkFabricInvariants(t, hy, true)
}
