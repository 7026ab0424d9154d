// Native fuzz target for the optical link budget. `go test` runs only the
// seed corpus (cheap, deterministic); `go test -fuzz=FuzzLinkBudget`
// explores randomized loss/sensitivity/fan-out parameter sets on both the
// SWMR (Solve) and the MWSR crossbar (SolveCrossbar) budget. The property:
// whenever a solver accepts a parameter set, every derived power is finite
// and non-negative, broadcast dominates unicast by exactly the reader
// count (H-1 for SWMR, 1 for a home channel), and adding waveguide loss
// never lowers the laser power.
package photonics

import (
	"math"
	"strings"
	"testing"
)

func FuzzLinkBudget(f *testing.F) {
	// Seeds: baseline, the named variants, an athermal low-loss point, a
	// lossy near-infeasible point, and degenerate inputs the validator
	// must reject (negative loss, zero sensitivity, zero responsivity) or
	// the nonlinearity limit must trip (a budget past float64 range) — on
	// the SWMR solver, plus the baseline and the lossy point on the
	// crossbar.
	f.Add(0.2, 0.0001, 1.0, 25.0, 0.30, 1.1, 20.0, uint8(64), uint8(64), false)
	f.Add(0.1, 0.00005, 0.5, 10.0, 0.50, 1.2, 0.0, uint8(64), uint8(64), false)
	f.Add(0.5, 0.001, 1.5, 50.0, 0.15, 0.8, 40.0, uint8(64), uint8(64), false)
	f.Add(0.0, 0.0, 0.0, 25.0, 1.0, 1.1, 0.0, uint8(16), uint8(32), false)
	f.Add(2.0, 0.01, 3.0, 100.0, 0.05, 0.2, 100.0, uint8(8), uint8(128), false)
	f.Add(-0.2, 0.0001, 1.0, 25.0, 0.30, 1.1, 20.0, uint8(64), uint8(64), false)
	f.Add(0.2, 0.0001, 1.0, 0.0, 0.30, 0.0, 20.0, uint8(64), uint8(64), false)
	f.Add(0.1, 52.00005, 0.5, 10.0, 0.5, 1.2, 0.0, uint8(64), uint8(64), false) // power overflows to +Inf
	f.Add(0.2, 0.0001, 1.0, 25.0, 0.30, 1.1, 20.0, uint8(64), uint8(64), true)
	f.Add(2.0, 0.01, 3.0, 100.0, 0.05, 0.2, 100.0, uint8(8), uint8(128), true)
	f.Fuzz(func(t *testing.T, wgLoss, through, drop, sensUW, eff, resp, tuneUW float64, hubsRaw, bitsRaw uint8, crossbar bool) {
		p := DefaultParams()
		p.WaveguideLossDBCM = wgLoss
		p.RingThroughDB = through
		p.RingDropDB = drop
		p.ReceiverSensUW = sensUW
		p.LaserEfficiency = eff
		p.ResponsivityAPerW = resp
		p.TuningUWPerRing = tuneUW
		hubs, bits := int(hubsRaw)%127+2, int(bitsRaw)%256+1
		solve, g, ringsPerHub, readers := Solve, NewGeometry(hubs, bits), 2, hubs-1
		if crossbar {
			solve, g, ringsPerHub, readers = SolveCrossbar, CrossbarGeometry(hubs, bits), 3, 1
		}

		l, err := solve(p, g)
		if err != nil {
			// Rejection is the correct outcome for unphysical inputs; the
			// property only constrains accepted budgets. But rejection must
			// be deliberate: either validation failed or the nonlinearity
			// limit tripped (also for a required power past any finite
			// limit: thousands of dB of loss overflow to +Inf), never a
			// silent NaN path.
			if p.Validate() == nil && !strings.Contains(err.Error(), "nonlinearity limit") {
				t.Fatalf("valid params rejected for another reason: %v", err)
			}
			return
		}

		for name, v := range map[string]float64{
			"worst-case loss dB": l.WorstCaseLossDB,
			"unicast optical W":  l.LaserOpticalUnicastW,
			"bcast optical W":    l.LaserOpticalBroadcastW,
			"unicast wall W":     l.LaserWallUnicastW,
			"bcast wall W":       l.LaserWallBroadcastW,
			"data link W":        l.DataLinkWallPowerW(true),
			"select link W":      l.SelectLinkWallPowerW(),
			"tuning W":           l.TuningPowerW(false),
			"mod J/flit":         l.ModulatorEnergyJPerFlit(),
			"select event J":     l.SelectEventEnergyJ(1e-9),
			"area mm2":           l.AreaMM2(),
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("%s = %v not finite non-negative (params %+v, geom %+v)", name, v, p, g)
			}
		}
		if l.TuningPowerW(true) != 0 {
			t.Fatalf("athermal tuning power %v != 0", l.TuningPowerW(true))
		}
		ratio := l.LaserOpticalBroadcastW / l.LaserOpticalUnicastW
		if want := float64(readers); math.Abs(ratio-want) > want*1e-9 {
			t.Fatalf("broadcast/unicast = %v, want reader count %v", ratio, want)
		}

		// Monotonicity: one extra dB of total waveguide loss must not
		// lower any laser power (it raises it by exactly 10^(1/10) while
		// still feasible, but >= is the property we pin).
		worse := p
		worse.TotalWaveguideLossDB = l.WorstCaseLossDB -
			p.ModulatorInsDB - p.RingThroughDB*float64(ringsPerHub*(hubs-1)) -
			p.RingDropDB - p.PhotodetectorDB + 1
		if worse.TotalWaveguideLossDB > 0 {
			if l2, err := solve(worse, g); err == nil {
				if l2.LaserWallBroadcastW < l.LaserWallBroadcastW ||
					l2.LaserWallUnicastW < l.LaserWallUnicastW {
					t.Fatalf("+1 dB waveguide loss lowered laser power: %v -> %v W",
						l.LaserWallBroadcastW, l2.LaserWallBroadcastW)
				}
			}
		}
	})
}
