// Native fuzz targets for the flit-conservation property. `go test` runs
// only the seed corpus (cheap, deterministic); `go test -fuzz=Fuzz...`
// explores randomized traffic shapes, fault seeds and error rates. Any
// input that loses or duplicates a message fails the harness assertions.
package noc

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/sim"
)

// fuzzBER maps a fuzzed byte onto a per-bit error rate, from fault-free
// to brutal (at 5e-3 roughly a quarter of 64-bit flit crossings fail).
func fuzzBER(sel uint8) float64 {
	return []float64{0, 1e-4, 1e-3, 5e-3}[int(sel)%4]
}

func FuzzMeshConservation(f *testing.F) {
	f.Add(int64(1), uint8(50), uint8(25), true, uint8(0))
	f.Add(int64(2), uint8(200), uint8(0), false, uint8(2))
	f.Add(int64(3), uint8(80), uint8(100), true, uint8(3))
	f.Add(int64(4), uint8(120), uint8(40), false, uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nMsgs, bcastPct uint8, multicast bool, berSel uint8) {
		var k sim.Kernel
		m := newTestMesh(&k, 4, multicast)
		if ber := fuzzBER(berSel); ber > 0 {
			m.SetFaults(fault.NewInjector(config.Fault{Enabled: true, MeshBER: ber}, 64, seed, &k))
		}
		h := newConservationHarness(&k, m, 16)
		h.inject(rand.New(rand.NewSource(seed)), int(nMsgs)%200+1, float64(bcastPct%101)/100)
		h.check(t)
		checkMeshInvariants(t, m.enet)
	})
}

// fuzzOpticalConservation is the one fuzz body of the three optical
// fabrics: the seed tuples every target shared, the conservation harness,
// and the kind's own invariant (token conservation on Corona, boundary
// conservation on a clean hybrid). Corona ignores degrade — it never
// degrades — but takes the mesh error rate on its ENet like the others.
//
// The three targets below keep their names — `make fuzz`, CI and recorded
// test lists select by them — and Go runs one -fuzz target per invocation
// either way.
func fuzzOpticalConservation(f *testing.F, kind config.NetworkKind) {
	f.Add(int64(1), uint8(50), uint8(25), uint8(0), uint8(0), false)
	f.Add(int64(2), uint8(150), uint8(10), uint8(2), uint8(1), false)
	f.Add(int64(3), uint8(90), uint8(60), uint8(3), uint8(0), true)
	f.Add(int64(4), uint8(200), uint8(35), uint8(1), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, nMsgs, bcastPct, oBERSel, mBERSel uint8, degrade bool) {
		fc := config.Fault{}
		if o, m := fuzzBER(oBERSel), fuzzBER(mBERSel); o > 0 || m > 0 {
			fc = config.DefaultFault()
			fc.Enabled = true
			fc.OpticalBER = o
			fc.MeshBER = m
			fc.WatchdogInterval = 0 // raw kernel harness, no watchdog host
			fc.Seed = seed
			if !degrade {
				fc.DegradeThreshold = 0
			}
		}
		k, net := opticalFixture(t, kind, fc)
		h := newConservationHarness(k, net, 16)
		h.inject(rand.New(rand.NewSource(seed)), int(nMsgs)%200+1, float64(bcastPct%101)/100)
		h.check(t)
		checkFabricInvariants(t, net, !fc.Enabled)
	})
}

func FuzzAtacConservation(f *testing.F)     { fuzzOpticalConservation(f, config.ATACPlus) }
func FuzzCrossbarConservation(f *testing.F) { fuzzOpticalConservation(f, config.Corona) }
func FuzzHybridConservation(f *testing.F)   { fuzzOpticalConservation(f, config.HybridMesh) }
