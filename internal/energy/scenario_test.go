package energy

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/dsent"
	"repro/internal/mcpat"
	"repro/internal/noc"
	"repro/internal/photonics"
	"repro/internal/system"
	"repro/internal/tech"
)

// TestBaselineScenarioMatchesDefaults: an empty or explicitly-baseline
// scenario pair must produce bit-identical models to the historical
// hardcoded path, so existing golden figures cannot move.
func TestBaselineScenarioMatchesDefaults(t *testing.T) {
	cfg := config.Tiny()
	want, err := BuildWith(cfg, tech.Default11nm(), photonics.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{"", ""}, {"11nm", "baseline"}, {" 11NM ", " Baseline "}} {
		c := cfg
		c.Tech, c.Optics = pair[0], pair[1]
		got, err := Build(c)
		if err != nil {
			t.Fatalf("%v: %v", pair, err)
		}
		got.Cfg, want.Cfg = config.Config{}, config.Config{} // names differ; models must not
		if !reflect.DeepEqual(got, want) {
			t.Errorf("scenario %v models differ from hardcoded defaults", pair)
		}
	}
}

// TestBuildRejectsUnknownScenario: a typo'd scenario fails model
// construction loudly in every binary, not just the ones with a flag.
func TestBuildRejectsUnknownScenario(t *testing.T) {
	cfg := config.Tiny()
	cfg.Tech = "3nm"
	if _, err := Build(cfg); err == nil {
		t.Error("unknown tech scenario accepted")
	}
	cfg = config.Tiny()
	cfg.Optics = "magic"
	if _, err := Build(cfg); err == nil {
		t.Error("unknown optics scenario accepted")
	}
}

// TestNodeScalingOrdersModelEnergies: across 11nm -> 7nm -> 5nm, every
// per-event dynamic energy of the solved models strictly shrinks (CV²
// with both C and V falling), die area strictly shrinks (SRAM cell
// scaling), and leakage density does not improve — the same invariants
// internal/tech pins at device level, re-checked after the mcpat/dsent
// layers have consumed the parameters.
func TestNodeScalingOrdersModelEnergies(t *testing.T) {
	var ms []Models
	for _, node := range []string{"11nm", "7nm", "5nm"} {
		cfg := config.Default()
		cfg.Tech = node
		m, err := Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", node, err)
		}
		ms = append(ms, m)
	}
	for i := 1; i < len(ms); i++ {
		prev, cur := ms[i-1], ms[i]
		name := cur.Tech.Name
		for _, c := range []struct {
			what       string
			prev, curv float64
		}{
			{"L1D read energy", prev.L1D.ReadEnergyJ, cur.L1D.ReadEnergyJ},
			{"L1D write energy", prev.L1D.WriteEnergyJ, cur.L1D.WriteEnergyJ},
			{"L2 read energy", prev.L2.ReadEnergyJ, cur.L2.ReadEnergyJ},
			{"dir read energy", prev.Dir.ReadEnergyJ, cur.Dir.ReadEnergyJ},
			{"router flit energy", prev.Router.PerFlitJ(), cur.Router.PerFlitJ()},
			{"link flit energy", prev.Link.PerFlitJ, cur.Link.PerFlitJ},
			{"hub flit energy", prev.Cluster.HubFlitJ, cur.Cluster.HubFlitJ},
			{"die area", prev.DieMM2, cur.DieMM2},
			{"hop length", prev.HopMM, cur.HopMM},
		} {
			if !(c.curv < c.prev) || c.curv <= 0 {
				t.Errorf("%s %s = %v, want in (0, %v)", name, c.what, c.curv, c.prev)
			}
		}
		if cur.Tech.LeakagePowerWPerUM() <= prev.Tech.LeakagePowerWPerUM() {
			t.Errorf("%s leakage density %v did not degrade vs %v",
				name, cur.Tech.LeakagePowerWPerUM(), prev.Tech.LeakagePowerWPerUM())
		}
	}
}

// TestOpticsVariantOrdersLaserEnergy: for one fixed run, the laser and
// total optical energy are strictly ordered optimistic < baseline <
// pessimistic, and the optimistic variant needs no ring tuning even
// under the RingTuned flavor.
func TestOpticsVariantOrdersLaserEnergy(t *testing.T) {
	cfg := config.Tiny()
	res := run(t, cfg, "fmm")
	laser := func(optics string, fl config.Flavor) (float64, float64) {
		c := cfg
		c.Optics = optics
		c.Network.Flavor = fl
		m, err := Build(c)
		if err != nil {
			t.Fatal(err)
		}
		b := Combine(m, res)
		return b.Laser, b.RingTuning
	}
	lo, _ := laser("optimistic", config.FlavorDefault)
	lb, _ := laser("baseline", config.FlavorDefault)
	lp, _ := laser("pessimistic", config.FlavorDefault)
	if !(lo < lb && lb < lp) {
		t.Errorf("laser energy not ordered: opt %.3g base %.3g pess %.3g", lo, lb, lp)
	}
	_, to := laser("optimistic", config.FlavorRingTuned)
	_, tb := laser("baseline", config.FlavorRingTuned)
	_, tp := laser("pessimistic", config.FlavorRingTuned)
	if to != 0 {
		t.Errorf("optimistic (athermal) tuning energy = %v, want 0", to)
	}
	if !(tb > 0 && tp > tb) {
		t.Errorf("tuning energy not ordered: base %.3g pess %.3g", tb, tp)
	}
}

// breakdownFieldSum adds every float64 field of a Breakdown by
// reflection, so a future component field cannot be added without either
// joining a category accessor or failing this reconciliation.
func breakdownFieldSum(t *testing.T, b Breakdown) float64 {
	t.Helper()
	v := reflect.ValueOf(b)
	sum := 0.0
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Float64 {
			t.Fatalf("Breakdown field %s is %v, not float64; update the reconciliation test",
				v.Type().Field(i).Name, f.Kind())
		}
		sum += f.Float()
	}
	return sum
}

// electricalPricing is everything that prices the electrical mesh: cache,
// router, link and hub models, the hop length, and what Combine charges
// for one mesh link and one mesh router crossing.
type electricalPricing struct {
	L1I, L1D, L2, Dir      mcpat.Model
	Router                 dsent.Router
	Link                   dsent.Link
	Cluster                dsent.ClusterNets
	HopMM                  float64
	LinkFlitJ, RouterFlitJ float64
}

// TestBreakdownReconciliation: for every fabric × flavor × tech × optics
// scenario, the sum of all per-component Breakdown fields equals Core()
// + Caches() + Network() equals Total(), and UncoreTotal() is Total()
// minus Core(). One real Tiny run per fabric provides the counters; the
// model grid reuses it (scenarios change models, never simulation
// results). Covering every NetworkKind here keeps each fabric's uncore
// charging path inside the reflection-checked reconciliation.
//
// The same grid is the cross-architecture oracle (SNIPPETS.md 3): the
// electrical models and the price of one mesh flit depend on the tech
// node only, so within one tech × optics scenario they must be identical
// on every fabric.
func TestBreakdownReconciliation(t *testing.T) {
	elec := map[string]electricalPricing{} // by tech/optics, from allKinds[0]
	for _, kind := range allKinds {
		cfg := config.Tiny().WithNetwork(kind)
		res := run(t, cfg, "radix")
		for _, node := range tech.Scenarios() {
			for _, optics := range photonics.Variants() {
				for _, fl := range allFlavors {
					c := cfg
					c.Tech, c.Optics = node, optics
					c.Network.Flavor = fl
					m, err := Build(c)
					if err != nil {
						t.Fatalf("%v/%s/%s/%v: %v", kind, node, optics, fl, err)
					}
					e := electricalPricing{m.L1I, m.L1D, m.L2, m.Dir, m.Router, m.Link, m.Cluster, m.HopMM,
						Combine(m, system.Result{Net: noc.Stats{MeshLinkFlits: 1}}).NetElecDyn,
						Combine(m, system.Result{Net: noc.Stats{MeshRouterFlits: 1}}).NetElecDyn}
					scenario := node + "/" + optics
					if first, ok := elec[scenario]; !ok {
						elec[scenario] = e
					} else if !reflect.DeepEqual(e, first) {
						t.Errorf("%v/%s/%v: electrical models or mesh flit price differ from %v's",
							kind, scenario, fl, allKinds[0])
					}
					b := Combine(m, res)
					total := b.Total()
					if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
						t.Fatalf("%v/%s/%s/%v: total %v not finite positive", kind, node, optics, fl, total)
					}
					rel := func(a, b float64) float64 { return math.Abs(a-b) / total }
					if sum := breakdownFieldSum(t, b); rel(sum, total) > 1e-12 {
						t.Errorf("%v/%s/%s/%v: field sum %v != Total() %v", kind, node, optics, fl, sum, total)
					}
					if got := b.Core() + b.Caches() + b.Network(); rel(got, total) > 1e-12 {
						t.Errorf("%v/%s/%s/%v: category sum %v != Total() %v", kind, node, optics, fl, got, total)
					}
					if rel(b.UncoreTotal(), total-b.Core()) > 1e-12 {
						t.Errorf("%v/%s/%s/%v: UncoreTotal %v != Total-Core %v",
							kind, node, optics, fl, b.UncoreTotal(), total-b.Core())
					}
				}
			}
		}
	}
}
