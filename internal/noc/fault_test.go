package noc

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/sim"
)

// faultyAtac builds the 64-core ATAC+ fixture with fault injection armed.
func faultyAtac(t *testing.T, fc config.Fault, mut func(*config.Config)) (*sim.Kernel, *Atac, *collector) {
	t.Helper()
	fc.Enabled = true
	k, a, c := atacFixture(t, func(cfg *config.Config) {
		cfg.Fault = fc
		if mut != nil {
			mut(cfg)
		}
	})
	a.SetFaults(fault.NewInjector(a.Cfg.Fault, a.Cfg.Network.FlitBits, a.Cfg.Seed, k))
	return k, a, c
}

func TestMeshDeliveryUnderHighBER(t *testing.T) {
	// A mesh with a brutal link BER still delivers every message in order:
	// link-level retry holds the flit at the head of its input queue, so
	// FIFO order per path is preserved by construction.
	var k sim.Kernel
	m := newTestMesh(&k, 4, false)
	m.SetFaults(fault.NewInjector(config.Fault{
		Enabled: true,
		MeshBER: 2e-3, // ~12% per 64-bit flit crossing
	}, 64, 7, &k))
	c := newCollector(m)
	const msgs = 50
	for i := 0; i < msgs; i++ {
		m.Send(&Message{Src: 0, Dst: 15, Bits: 512})
	}
	k.RunAll()
	if len(c.got[15]) != msgs {
		t.Fatalf("delivered %d messages, want %d", len(c.got[15]), msgs)
	}
	if !m.Drained() {
		t.Fatal("mesh not drained")
	}
	st := m.Stats()
	if st.MeshNacks == 0 || st.MeshRetxFlits == 0 {
		t.Fatalf("no faults observed at BER 2e-3: %+v", st)
	}
	if st.MeshRetxFlits+st.MeshRetriesExhausted != st.MeshNacks {
		t.Errorf("retx (%d) + exhausted (%d) != errors (%d)",
			st.MeshRetxFlits, st.MeshRetriesExhausted, st.MeshNacks)
	}
}

// opticalKinds are the three fabrics built on the shared optical channel.
var opticalKinds = []struct {
	name string
	kind config.NetworkKind
}{
	{"ATACPlus", config.ATACPlus},
	{"Corona", config.Corona},
	{"Hybrid", config.HybridMesh},
}

// checkInOrder asserts core dst received exactly msgs messages whose int
// payloads ascend from 0 — exactly-once, per-pair FIFO delivery.
func checkInOrder(t *testing.T, c *collector, dst, msgs int) {
	t.Helper()
	if len(c.got[dst]) != msgs {
		t.Fatalf("delivered %d messages, want %d", len(c.got[dst]), msgs)
	}
	for i, m := range c.got[dst] {
		if m.Payload.(int) != i {
			t.Fatalf("reordered delivery at %d: message %d", i, m.Payload.(int))
		}
	}
}

func TestOpticalRetransmission(t *testing.T) {
	// Long-distance unicasts over a noisy optical channel complete via
	// stop-and-wait retransmission on every fabric; degradation is disabled
	// so everything stays optical. Core 0 -> 15 crosses clusters and
	// gateway regions on the 16-core fixture.
	for _, tc := range opticalKinds {
		t.Run(tc.name, func(t *testing.T) {
			k, net := opticalFixture(t, tc.kind, config.Fault{
				Enabled:          true,
				OpticalBER:       1e-3, // ~6% per 64-bit flit reception
				DegradeThreshold: 0,    // isolate the retx path
			})
			c := newCollector(net)
			const msgs = 200
			for i := 0; i < msgs; i++ {
				net.Send(&Message{Src: 0, Dst: 15, Bits: 512, Payload: i})
			}
			k.RunAll()
			// FIFO must survive retransmission.
			checkInOrder(t, c, 15, msgs)
			if !net.(Drainer).Drained() {
				t.Fatal("fabric not drained")
			}
			st := net.Stats()
			if st.OpticalFlitErrors == 0 || st.OpticalRetxPkts == 0 {
				t.Fatalf("no optical faults observed: %+v", st)
			}
			if st.ReroutedMsgs != 0 || st.DegradedChannels != 0 {
				t.Errorf("degradation fired with threshold 0: %+v", st)
			}
			checkFabricInvariants(t, net, false)
		})
	}
}

func TestAtacBroadcastUnderFaults(t *testing.T) {
	// A broadcast over a noisy ONet reaches every core exactly once; failed
	// hub receptions are repaired by unicast-mode retransmission slots.
	k, a, c := faultyAtac(t, config.Fault{
		OpticalBER:       5e-3,
		DegradeThreshold: 0,
	}, nil)
	const bcasts = 20
	for i := 0; i < bcasts; i++ {
		a.Send(&Message{Src: 0, Dst: BroadcastDst, Bits: 512})
	}
	k.RunAll()
	for core := 0; core < a.Cfg.Cores; core++ {
		if len(c.got[core]) != bcasts {
			t.Fatalf("core %d received %d broadcasts, want %d", core, len(c.got[core]), bcasts)
		}
	}
	if !a.Drained() {
		t.Fatal("fabric not drained")
	}
	if st := a.Stats(); st.OpticalRetxPkts == 0 {
		t.Fatalf("no retransmissions at BER 5e-3: %+v", st)
	}
}

func TestOpticalDegradation(t *testing.T) {
	// With an extreme BER and a tiny window, the source's optical channel
	// degrades quickly on ATAC and the hybrid, and later unicasts divert to
	// the electrical mesh — yet every message still arrives, in order: the
	// optical->electrical switch is exactly why the pair CAM is armed under
	// fault injection. Corona under the same profile never reroutes (a
	// packet's home channel is fixed by its destination) and returns every
	// token.
	for _, tc := range opticalKinds {
		t.Run(tc.name, func(t *testing.T) {
			k, net := opticalFixture(t, tc.kind, config.Fault{
				Enabled:          true,
				OpticalBER:       2e-2, // ~72% per-flit: the channel is hopeless
				DegradeThreshold: 0.05,
				DegradeWindow:    64,
			})
			c := newCollector(net)
			// Spread injections out so later sends observe the degraded flag
			// the earlier (time-0) ones tripped.
			const msgs = 100
			for i := 0; i < msgs; i++ {
				k.At(sim.Time(i*200), func() {
					net.Send(&Message{Src: 0, Dst: 15, Bits: 512, Payload: i})
				})
			}
			k.RunAll()
			checkInOrder(t, c, 15, msgs)
			if !net.(Drainer).Drained() {
				t.Fatal("fabric not drained")
			}
			st := net.Stats()
			checkFabricInvariants(t, net, false)
			if tc.kind == config.Corona {
				if st.ReroutedMsgs != 0 || st.DegradedChannels != 0 {
					t.Fatalf("the crossbar degraded or rerouted: %+v", st)
				}
				if st.OpticalRetxPkts == 0 {
					t.Fatalf("no retransmissions on a hopeless channel: %+v", st)
				}
				return
			}
			if st.DegradedChannels == 0 {
				t.Fatalf("channel never degraded: %+v", st)
			}
			if st.ReroutedMsgs == 0 {
				t.Fatalf("no unicasts rerouted after degradation: %+v", st)
			}
			if got := net.(interface{ DegradedChannels() []int }).DegradedChannels(); len(got) == 0 || got[0] != 0 {
				t.Errorf("degraded channels = %v, want [0 ...]", got)
			}
		})
	}
}

func TestAtacFaultStatsDeterministic(t *testing.T) {
	// Identical config+seed => identical fault history, flit counts, and
	// delivery times across independent runs.
	run := func() Stats {
		k, a, _ := faultyAtac(t, config.Fault{
			OpticalBER:       1e-3,
			MeshBER:          1e-4,
			DegradeThreshold: 0.02,
			DegradeWindow:    128,
			Seed:             99,
		}, nil)
		for i := 0; i < 64; i++ {
			a.Send(&Message{Src: i % 64, Dst: (i * 7) % 64, Bits: 256})
			if i%8 == 0 {
				a.Send(&Message{Src: i, Dst: BroadcastDst, Bits: 512})
			}
		}
		k.RunAll()
		return *a.Stats()
	}
	s1, s2 := run(), run()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("fault runs diverged:\n%+v\n%+v", s1, s2)
	}
	if !s1.FaultEvents() {
		t.Fatal("expected fault events at these rates")
	}
}

// -update rewrites testdata/fault_stats_golden.json from the current code:
//
//	go test ./internal/noc -run TestOpticalFaultStatsGolden -update
//
// Only do that for an intended behaviour change: the file pins the order
// and count of fault-RNG draws and of kernel schedule calls on the optical
// fault path, which run-to-run determinism tests cannot see.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenFile loads the JSON golden at path into want and reports true; under
// -update it rewrites the file from got instead and reports false.
func goldenFile(t *testing.T, path string, got, want any) bool {
	t.Helper()
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return false
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if err := json.Unmarshal(b, want); err != nil {
		t.Fatal(err)
	}
	return true
}

const faultStatsGolden = "testdata/fault_stats_golden.json"

// TestOpticalFaultStatsGolden pins fault-injected numbers: each optical
// fabric at 16 cores under BER, drift episodes and an armed (small-window)
// degradation policy, driven by the conservation harness in bursts so that
// later traffic meets retransmissions in flight and degraded channels. Every
// Stats counter must equal the recorded value — one reordered RNG draw or
// Schedule call anywhere on the fault path moves some of them.
func TestOpticalFaultStatsGolden(t *testing.T) {
	got := map[string]Stats{}
	for _, tc := range opticalKinds {
		fc := opticalFaultProfile(7)
		fc.DriftPeriod, fc.DriftDuty, fc.DriftBERMult = 400, 80, 20
		fc.DegradeWindow = 256
		fc.MaxRetries = 2 // reachable inside one drift episode: pins the forced-through path
		k, net := opticalFixture(t, tc.kind, fc)
		h := newConservationHarness(k, net, 16)
		rng := rand.New(rand.NewSource(7))
		for burst := 0; burst < 10; burst++ {
			h.inject(rng, 60, 0.2)
			k.Run(k.Now() + 150)
		}
		h.check(t)
		checkFabricInvariants(t, net, false)
		st := *net.Stats()
		if st.OpticalRetxPkts == 0 || st.OpticalRetriesExhausted == 0 || st.MeshRetxFlits == 0 {
			t.Fatalf("%s: profile too gentle to pin the fault path: %+v", tc.name, st)
		}
		if degrades := tc.kind != config.Corona; (st.ReroutedMsgs > 0) != degrades {
			t.Fatalf("%s: rerouted %d msgs, degrading fabric = %v", tc.name, st.ReroutedMsgs, degrades)
		}
		got[tc.name] = st
	}
	want := map[string]Stats{}
	if !goldenFile(t, faultStatsGolden, got, &want) {
		return
	}
	for _, tc := range opticalKinds {
		g, w := reflect.ValueOf(got[tc.name]), reflect.ValueOf(want[tc.name])
		for i := 0; i < g.NumField(); i++ {
			if g.Field(i).Uint() != w.Field(i).Uint() {
				t.Errorf("%s.%s = %d, golden %d", tc.name, g.Type().Field(i).Name, g.Field(i).Uint(), w.Field(i).Uint())
			}
		}
	}
}
