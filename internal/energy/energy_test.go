package energy

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/photonics"
	"repro/internal/system"
	"repro/internal/tech"
)

func run(t *testing.T, cfg config.Config, name string) system.Result {
	t.Helper()
	res, err := system.RunBenchmark(cfg, name, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBuildAllNetworks(t *testing.T) {
	for _, k := range allKinds {
		cfg := config.Default().WithNetwork(k)
		m, err := Build(cfg)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if m.HopMM <= 0 || m.DieMM2 <= 0 {
			t.Errorf("%v: geometry %v %v", k, m.HopMM, m.DieMM2)
		}
		if cfg.Network.Kind.HasPhotonics() && m.Opt.LaserWallUnicastW <= 0 {
			t.Errorf("%v: optical link not solved", k)
		}
	}
	// The crossbar's link budget must reflect its MWSR geometry: a single
	// reader per home channel, so no broadcast power split.
	m, err := Build(config.Default().WithNetwork(config.Corona))
	if err != nil {
		t.Fatal(err)
	}
	if m.Opt.LaserWallBroadcastW != m.Opt.LaserWallUnicastW {
		t.Errorf("Corona broadcast laser power %v != unicast %v",
			m.Opt.LaserWallBroadcastW, m.Opt.LaserWallUnicastW)
	}
}

func TestGeometryPlausible(t *testing.T) {
	m, err := Build(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	// A 1024-core chip with 320KB+ SRAM/core at 11nm: die of a few
	// hundred mm², sub-millimetre hop.
	if m.DieMM2 < 50 || m.DieMM2 > 2000 {
		t.Errorf("die = %.0f mm², implausible", m.DieMM2)
	}
	if m.HopMM < 0.1 || m.HopMM > 2 {
		t.Errorf("hop = %.3f mm, implausible", m.HopMM)
	}
}

func TestCombineBasics(t *testing.T) {
	cfg := config.Tiny()
	res := run(t, cfg, "fmm")
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := Combine(m, res)
	for name, v := range map[string]float64{
		"CoreDD": b.CoreDD, "CoreNDD": b.CoreNDD,
		"L1IDyn": b.L1IDyn, "L1DDyn": b.L1DDyn, "L2Dyn": b.L2Dyn, "DirDyn": b.DirDyn,
		"NetElecDyn": b.NetElecDyn, "NetElecStatic": b.NetElecStatic,
		"ONetOther": b.ONetOther, "Laser": b.Laser,
	} {
		if v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	if b.RingTuning != 0 {
		t.Errorf("default flavor is athermal; RingTuning = %v", b.RingTuning)
	}
	if b.Total() <= 0 || EDP(m, res) <= 0 {
		t.Error("total/EDP must be positive")
	}
	if got := b.Caches() + b.Network() + b.Core(); got != b.Total() {
		t.Errorf("component sum %v != total %v", got, b.Total())
	}
}

func TestFlavorOrdering(t *testing.T) {
	// Fig 7: Ideal <= ATAC+ << RingTuned < Cons.
	cfg := config.Tiny()
	res := run(t, cfg, "fmm")
	total := func(fl config.Flavor) float64 {
		c := cfg
		c.Network.Flavor = fl
		m, err := Build(c)
		if err != nil {
			t.Fatal(err)
		}
		return Combine(m, res).Network()
	}
	ideal := total(config.FlavorIdeal)
	def := total(config.FlavorDefault)
	tuned := total(config.FlavorRingTuned)
	cons := total(config.FlavorCons)
	if !(ideal <= def && def < tuned && tuned < cons) {
		t.Errorf("flavor ordering violated: ideal=%.3g def=%.3g tuned=%.3g cons=%.3g", ideal, def, tuned, cons)
	}
	// ATAC+ should be close to Ideal (the paper: laser is ~2% of ATAC+).
	if def > 1.5*ideal {
		t.Errorf("ATAC+ network energy %.3g not close to ideal %.3g", def, ideal)
	}
}

func TestConsLaserDominates(t *testing.T) {
	// Without gating, the laser term must dwarf the gated laser term.
	cfg := config.Tiny()
	res := run(t, cfg, "lu_contig")
	mg, _ := Build(cfg)
	cfgC := cfg
	cfgC.Network.Flavor = config.FlavorCons
	mc, _ := Build(cfgC)
	gated := Combine(mg, res).Laser
	cons := Combine(mc, res).Laser
	if cons < 10*gated {
		t.Errorf("ungated laser %.3g should be >> gated %.3g", cons, gated)
	}
}

func TestCachesDominateEnergy(t *testing.T) {
	// Fig 7: cache energy dominates the uncore total (>75% at the
	// paper's 1024-core scale; the 64-core test fixture has a relatively
	// larger optical share, so the bound here is looser).
	cfg := config.Small()
	res := run(t, cfg, "lu_contig")
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := Combine(m, res)
	if frac := b.Caches() / b.UncoreTotal(); frac < 0.5 {
		t.Errorf("cache fraction of uncore = %.2f, paper says >0.75 at scale", frac)
	}
}

func TestONetENetCrossover(t *testing.T) {
	// Section IV-C energy analysis: the data-dependent energy of an
	// ONet unicast equals ~8 ENet hops. Our calibration target is the
	// 6..11 hop window at the paper's 1024-core geometry.
	m, err := Build(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	onetFlit := m.Opt.DataLinkWallPowerW(false)*1e-9 +
		m.Opt.ModulatorEnergyJPerFlit() + m.Opt.ReceiverEnergyJPerFlit(1)
	enetHop := m.Router.PerFlitJ() + m.Link.PerFlitJ
	cross := onetFlit / enetHop
	if cross < 6 || cross > 11 {
		t.Errorf("ONet/ENet crossover = %.1f hops, want ~8 (paper)", cross)
	}
}

func TestAreaBreakdown(t *testing.T) {
	m, err := Build(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	a := ComputeArea(m)
	if a.Total() <= 0 {
		t.Fatal("zero area")
	}
	// Fig 10: caches ~90% of the chip.
	caches := a.L1I + a.L1D + a.L2 + a.Dir
	if frac := caches / a.Total(); frac < 0.7 {
		t.Errorf("cache area fraction %.2f, want ~0.9", frac)
	}
	// Photonics ~40 mm² at 64-bit flits.
	if a.Photonics < 20 || a.Photonics > 80 {
		t.Errorf("photonics area %.1f mm², want ~40", a.Photonics)
	}
	// Electrical mesh baseline has no optical area.
	me, _ := Build(config.Default().WithNetwork(config.EMeshBCast))
	if ae := ComputeArea(me); ae.Photonics != 0 || ae.Hubs != 0 {
		t.Error("mesh baseline must carry no optical area")
	}
}

func TestDirectoryEnergyScalesWithSharers(t *testing.T) {
	// Fig 16: directory energy grows with the sharer count; 1024
	// sharers roughly doubles total (cache-dominated) energy vs 4.
	cfg := config.Tiny()
	res := run(t, cfg, "fmm")
	dirAt := func(k int) float64 {
		c := cfg
		c.Coherence.Sharers = k
		m, err := Build(c)
		if err != nil {
			t.Fatal(err)
		}
		b := Combine(m, res)
		return b.DirDyn + b.DirStatic
	}
	prev := 0.0
	for _, k := range []int{4, 8, 16, 32, 1024} {
		e := dirAt(k)
		if e <= prev {
			t.Fatalf("directory energy not increasing at k=%d", k)
		}
		prev = e
	}
	if r := dirAt(1024) / dirAt(4); r < 5 {
		t.Errorf("dir energy ratio full-map/ACKwise4 = %.1f, want >= 5", r)
	}
}

func TestWaveguideLossRaisesLaser(t *testing.T) {
	// Fig 9 mechanism: total waveguide loss from 0.2 dB to 4 dB raises
	// the (gated) laser energy monotonically.
	cfg := config.Tiny()
	res := run(t, cfg, "fmm")
	prev := -1.0
	for _, lossDB := range []float64{0.2, 1, 2, 4} {
		pp := photonics.DefaultParams()
		pp.TotalWaveguideLossDB = lossDB
		m, err := BuildWith(cfg, tech.Default11nm(), pp)
		if err != nil {
			t.Fatalf("loss %v: %v", lossDB, err)
		}
		l := Combine(m, res).Laser
		if l <= prev {
			t.Fatalf("laser energy not increasing at %v dB", lossDB)
		}
		prev = l
	}
}

func TestAveragePower(t *testing.T) {
	cfg := config.Tiny()
	res := run(t, cfg, "fmm")
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := AveragePowerW(m, res)
	if p <= 0 {
		t.Fatalf("power %v", p)
	}
	// 16 cores at 20 mW peak plus uncore: order 0.1-1 W.
	if p > 5 {
		t.Errorf("power %v W implausible for 16 cores", p)
	}
	var empty system.Result
	if AveragePowerW(m, empty) != 0 {
		t.Error("zero-cycle power not 0")
	}
}

func TestResilienceEnergyCharged(t *testing.T) {
	// Fault counters must raise the energy bill: NACK signalling is
	// charged on top of the (already retx-inflated) flit counters.
	cfg := config.Tiny().WithNetwork(config.ATACPlus)
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean := run(t, cfg, "radix")
	faulty := clean
	faulty.Net.MeshNacks = 500
	faulty.Net.OpticalNacks = 200
	cb, fb := Combine(m, clean), Combine(m, faulty)
	if fb.NetElecDyn <= cb.NetElecDyn {
		t.Errorf("mesh NACKs not charged: %v <= %v", fb.NetElecDyn, cb.NetElecDyn)
	}
	if fb.ONetOther <= cb.ONetOther {
		t.Errorf("optical NACKs not charged: %v <= %v", fb.ONetOther, cb.ONetOther)
	}
	if ResilienceOverheadJ(m, clean) != 0 {
		t.Errorf("clean run has nonzero resilience overhead")
	}
	faulty.Net.MeshRetxFlits = 300
	faulty.Net.OpticalRetxFlits = 100
	faulty.Net.ReroutedFlits = 50
	if ov := ResilienceOverheadJ(m, faulty); ov <= 0 {
		t.Errorf("ResilienceOverheadJ = %v, want > 0", ov)
	}
}

func TestFaultRunEnergyExceedsClean(t *testing.T) {
	// End to end: the same benchmark under an aggressive BER must burn
	// more network energy than the perfect fabric (retransmissions and
	// NACKs are real events, not free).
	cfg := config.Tiny().WithNetwork(config.ATACPlus)
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean := run(t, cfg, "radix")
	fcfg := cfg
	fcfg.Fault = config.Fault{Enabled: true, OpticalBER: 1e-3, MeshBER: 1e-5}
	faulty := run(t, fcfg, "radix")
	if !faulty.Net.FaultEvents() {
		t.Fatal("no fault events recorded")
	}
	cn, fn := Combine(m, clean), Combine(m, faulty)
	if fn.ONetOther+fn.NetElecDyn <= cn.ONetOther+cn.NetElecDyn {
		t.Errorf("faulty network dynamic energy %v <= clean %v",
			fn.ONetOther+fn.NetElecDyn, cn.ONetOther+cn.NetElecDyn)
	}
}

// TestEpochEnergyMatchesCombine: every energy.<Breakdown field> epoch
// column sums to the final Combine category — on the three optical fabrics,
// the broadcast mesh, and an ATAC+ run under FlavorCons, whose ungated
// laser burns with time rather than with flits.
func TestEpochEnergyMatchesCombine(t *testing.T) {
	cons := config.Tiny().WithNetwork(config.ATACPlus)
	cons.Network.Flavor = config.FlavorCons
	cfgs := []config.Config{cons}
	for _, kind := range []config.NetworkKind{config.ATACPlus, config.Corona, config.HybridMesh, config.EMeshBCast} {
		cfgs = append(cfgs, config.Tiny().WithNetwork(kind))
	}
	for _, cfg := range cfgs {
		sys, err := system.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		col := metrics.New(sys.Clock(), 1000)
		sys.AttachMetrics(col)
		AttachMetrics(col, m, sys)
		spec, err := system.WorkloadFor(cfg, "radix", 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := reflect.ValueOf(Combine(m, res))
		n := 0
		for _, name := range col.Columns() {
			field, ok := strings.CutPrefix(name, "energy.")
			if !ok {
				continue
			}
			n++
			w, got := want.FieldByName(field).Float(), col.Total(name)
			if math.Abs(got-w) > 1e-9*math.Abs(w) {
				t.Errorf("%v/%v: epoch %s sums to %.12g J, Combine gives %.12g J (%d epochs, %d cycles)",
					cfg.Network.Kind, cfg.Network.Flavor, name, got, w, len(col.Rows()), res.Cycles)
			}
		}
		if n != want.NumField() {
			t.Errorf("%v: %d energy columns for %d Breakdown categories", cfg.Network.Kind, n, want.NumField())
		}
	}
}
