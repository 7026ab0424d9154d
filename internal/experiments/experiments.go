// Package experiments reproduces every table and figure of the paper's
// evaluation (Section V). Each is one entry of the figure table
// (figures.go) — a declared run-set plus a render function — and
// Runner.Figure(id) regenerates it as a printable table; cmd/figures and
// the examples call into here.
//
// Simulation runs are memoized per Runner, because many figures share the
// same underlying runs (e.g. Figs 4, 5, 6, 8 and 17 all use the ATAC+
// application runs). The Runner is also a parallel campaign engine — see
// campaign.go — so each figure prefetches its declared run-set through a
// worker pool before rendering its table serially from the memo.
package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/system"
	"repro/internal/workload"
)

// Benchmarks lists the evaluation applications in the paper's Fig 4 order.
var Benchmarks = workload.Names()

// Options scopes an experiment campaign.
type Options struct {
	Cores int // total cores; the paper uses 1024
	Scale int // per-core workload scale factor
	Seed  int64

	// Tech and Optics name the campaign's default device-technology
	// scenario (internal/tech and internal/photonics registries); empty
	// means the paper's baseline. Every Config the campaign derives
	// carries them, but they are not part of a run's identity: runConfig
	// resets both, since a scenario only re-costs a simulation.
	Tech   string
	Optics string

	// Scenarios, when non-empty, replaces the built-in scenario set of
	// the techsweep figure (see DefaultTechScenarios).
	Scenarios []TechScenario

	// Topologies, when non-empty, replaces the built-in topology set of
	// the xtopo figure (see DefaultTopologies). The first entry is the
	// normalization reference.
	Topologies []config.NetworkKind
}

// DefaultOptions returns the default campaign scale: a 64-core geometry
// (same code paths as the paper's 1024, 4 clusters of 16) that keeps a
// full campaign tractable. Set Cores to 1024 for the paper's geometry.
func DefaultOptions() Options { return Options{Cores: 64, Scale: 1, Seed: 42} }

// Config derives the system config for the given network kind through
// BuildConfig, the one resolution path. Its error is Validate's, which the
// campaign front ends report once at start-up by resolving the same
// geometry themselves; the config is built either way.
func (o Options) Config(kind config.NetworkKind) config.Config {
	cfg, _ := BuildConfig(Geometry{Net: kind.String(), Cores: o.Cores, Seed: o.Seed,
		Tech: o.Tech, Optics: o.Optics})
	return cfg
}

// models builds (and caches nothing: it is cheap) the energy models.
func models(cfg config.Config) (energy.Models, error) { return energy.Build(cfg) }

// Table is a printable result grid. Degraded marks a table rendered in
// partial mode with one or more cells missing (annotated in Notes).
type Table struct {
	Title    string
	Columns  []string
	Rows     [][]string
	Notes    []string
	Degraded bool
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(t.Columns, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	w.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// ---------------------------------------------------------------------
// Figs 4, 5, 6 + Table V: application runs on the three architectures.
// ---------------------------------------------------------------------

// fig4 regenerates the application runtime comparison.
func fig4(r *Runner, cfgs []config.Config) (*Table, error) {
	t := &Table{
		Title:   "Fig 4: Application runtime (cycles)",
		Columns: []string{"benchmark", "ATAC+", "EMesh-BCast", "EMesh-Pure", "BCast/ATAC+", "Pure/ATAC+"},
	}
	return r.benchRows(t, cfgs, func(res []system.Result) ([]string, error) {
		ra, rb, rp := res[0], res[1], res[2]
		return []string{
			fmt.Sprint(ra.Cycles), fmt.Sprint(rb.Cycles), fmt.Sprint(rp.Cycles),
			f2(float64(rb.Cycles) / float64(ra.Cycles)),
			f2(float64(rp.Cycles) / float64(ra.Cycles)),
		}, nil
	})
}

// fig5 regenerates the unicast/broadcast traffic mix (receiver-measured).
func fig5(r *Runner, cfgs []config.Config) (*Table, error) {
	t := &Table{
		Title:   "Fig 5: Traffic mix at the receiver (%)",
		Columns: []string{"benchmark", "unicast %", "broadcast %"},
	}
	return r.benchRows(t, cfgs, func(res []system.Result) ([]string, error) {
		bf := res[0].BroadcastRecvFraction()
		return []string{f2((1 - bf) * 100), f2(bf * 100)}, nil
	})
}

// fig6 regenerates the offered network load per application.
func fig6(r *Runner, cfgs []config.Config) (*Table, error) {
	t := &Table{
		Title:   "Fig 6: Offered network load (flits/cycle/core)",
		Columns: []string{"benchmark", "load"},
	}
	return r.benchRows(t, cfgs, func(res []system.Result) ([]string, error) {
		return []string{fmt.Sprintf("%.4f", res[0].OfferedLoad())}, nil
	})
}

// tableV regenerates the adaptive SWMR link utilization statistics.
func tableV(r *Runner, cfgs []config.Config) (*Table, error) {
	t := &Table{
		Title:   "Table V: Adaptive SWMR link utilization; unicasts between broadcasts",
		Columns: []string{"benchmark", "link utilization %", "unicasts/broadcast"},
	}
	return r.benchRows(t, cfgs, func(res []system.Result) ([]string, error) {
		return []string{f2(res[0].LinkUtilization * 100), f2(res[0].UnicastsPerBcast)}, nil
	})
}

// ---------------------------------------------------------------------
// Figs 7 and 8: the ATAC+ flavors against the mesh baselines. Both draw
// on one ATAC+ run and one run per mesh, and both show six columns: the
// ATAC+ run re-costed under each flavor, then the two meshes.
// ---------------------------------------------------------------------

var atacFlavors = []config.Flavor{config.FlavorIdeal, config.FlavorDefault, config.FlavorRingTuned, config.FlavorCons}

// withFlavor returns cfg re-costed under flavor fl (an energy-model axis:
// the run is the same).
func withFlavor(cfg config.Config, fl config.Flavor) config.Config {
	cfg.Network.Flavor = fl
	return cfg
}

// flavorColumns expands one benchmark's runs (ATAC+ first, then the
// meshes) into the six columns: per column, the config to cost under and
// the run it costs.
func flavorColumns(cfgs []config.Config, res []system.Result) ([]config.Config, []system.Result) {
	var cols []config.Config
	var runs []system.Result
	for _, fl := range atacFlavors {
		cols, runs = append(cols, withFlavor(cfgs[0], fl)), append(runs, res[0])
	}
	return append(cols, cfgs[1:]...), append(runs, res[1:]...)
}

// uncoreSums accumulates the uncore energy breakdown the benchmark-average
// figures (Fig 7, techsweep) tabulate.
type uncoreSums struct{ laser, tuning, other, elec, caches, total float64 }

func (s *uncoreSums) add(bd energy.Breakdown) {
	s.laser += bd.Laser
	s.tuning += bd.RingTuning
	s.other += bd.ONetOther
	s.elec += bd.NetElecDyn + bd.NetElecStatic
	s.caches += bd.Caches()
	s.total += bd.UncoreTotal()
}

// cells renders the sums normalized to norm, in field order.
func (s uncoreSums) cells(norm float64) []string {
	return ratios([]float64{s.laser, s.tuning, s.other, s.elec, s.caches, s.total}, norm)
}

// fig7 regenerates the uncore energy breakdown of the ATAC+ flavors and
// mesh baselines, averaged across all benchmarks, normalized to
// ATAC+(Ideal).
func fig7(r *Runner, cfgs []config.Config) (*Table, error) {
	names := []string{"ATAC+(Ideal)", "ATAC+", "ATAC+(RingTuned)", "ATAC+(Cons)", "EMesh-BCast", "EMesh-Pure"}
	t := &Table{
		Title:   "Fig 7: Uncore energy breakdown, benchmark average [normalized to ATAC+(Ideal)]",
		Columns: []string{"config", "laser", "ring tuning", "mod/rx/select", "electrical", "caches", "total"},
		Notes:   []string{"laser dominates ATAC+(Cons); ring tuning dominates RingTuned; ATAC+ ~= Ideal"},
	}
	sums := make([]uncoreSums, len(names))
	contributed, err := r.eachBench(t, cfgs, func(_ string, res []system.Result) error {
		cols, runs := flavorColumns(cfgs, res)
		for i, cfg := range cols {
			m, err := models(cfg)
			if err != nil {
				return err
			}
			sums[i].add(energy.Combine(m, runs[i]))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if contributed == 0 {
		return nil, fmt.Errorf("fig 7: every benchmark failed")
	}
	for i, n := range names {
		t.Rows = append(t.Rows, append([]string{n}, sums[i].cells(sums[0].total)...))
	}
	return t, nil
}

// fig8 regenerates the per-benchmark energy-delay product table (the
// headline result) and returns the average EMesh-BCast/ATAC+ and
// EMesh-Pure/ATAC+ ratios.
func fig8(r *Runner, cfgs []config.Config) (*Table, float64, float64, error) {
	t := &Table{
		Title:   "Fig 8: Energy-delay product normalized to ATAC+(Ideal), ACKwise4",
		Columns: []string{"benchmark", "ATAC+(Ideal)", "ATAC+", "ATAC+(RingTuned)", "ATAC+(Cons)", "EMesh-BCast", "EMesh-Pure"},
	}
	var sumB, sumP float64
	completed := 0
	_, err := r.benchRows(t, cfgs, func(res []system.Result) ([]string, error) {
		edp, err := edps(flavorColumns(cfgs, res))
		if err != nil {
			return nil, err
		}
		ideal, def, bc, pu := edp[0], edp[1], edp[4], edp[5]
		sumB += bc / def
		sumP += pu / def
		completed++
		cells := make([]string, len(edp))
		for i, e := range edp {
			cells[i] = f2(e / ideal)
		}
		return cells, nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	if completed == 0 {
		t.Notes = append(t.Notes, "averages unavailable: every benchmark failed")
		return t, 0, 0, nil
	}
	n := float64(completed)
	avgB, avgP := sumB/n, sumP/n
	t.Notes = append(t.Notes,
		fmt.Sprintf("average E-D vs ATAC+: EMesh-BCast %.2fx, EMesh-Pure %.2fx (paper: 1.8x, 4.8x)", avgB, avgP))
	return t, avgB, avgP, nil
}

// ---------------------------------------------------------------------
// Fig 9: sensitivity to total waveguide loss (0.2 - 4 dB), normalized to
// the EMesh-BCast energy.
// ---------------------------------------------------------------------

// fig9 regenerates the waveguide loss sweep.
func fig9(r *Runner, cfgs []config.Config) (*Table, error) {
	losses := []float64{0.2, 0.5, 1, 2, 3, 4}
	t := &Table{
		Title:   "Fig 9: Uncore energy vs waveguide loss [normalized to EMesh-BCast]",
		Columns: append([]string{"benchmark"}, labels("%.1f dB", losses)...),
		Notes:   []string{"ATAC+ tolerates ~2 dB before losing to EMesh-BCast (paper)"},
	}
	atac, mesh := cfgs[0], cfgs[1]
	return r.benchRows(t, cfgs, func(res []system.Result) ([]string, error) {
		mm, err := models(mesh)
		if err != nil {
			return nil, err
		}
		base := energy.Combine(mm, res[1]).UncoreTotal()
		var cells []string
		for _, loss := range losses {
			tp, pp, err := energy.Scenario(atac)
			if err != nil {
				return nil, err
			}
			pp.TotalWaveguideLossDB = loss
			m, err := energy.BuildWith(atac, tp, pp)
			if err != nil {
				return nil, err
			}
			cells = append(cells, f3(energy.Combine(m, res[0]).UncoreTotal()/base))
		}
		return cells, nil
	})
}

// ---------------------------------------------------------------------
// Fig 10: chip area.
// ---------------------------------------------------------------------

// Fig10 regenerates the area comparison (model-only; no simulation).
func Fig10(o Options) (*Table, error) {
	t := &Table{
		Title:   "Fig 10: Chip area (mm²)",
		Columns: []string{"component", "ATAC+", "EMesh-BCast"},
		Notes:   []string{"caches dominate (~90%); photonics ~40 mm² at 64-bit flits"},
	}
	ma, err := models(o.Config(config.ATACPlus))
	if err != nil {
		return nil, err
	}
	mm, err := models(o.Config(config.EMeshBCast))
	if err != nil {
		return nil, err
	}
	aa, am := energy.ComputeArea(ma), energy.ComputeArea(mm)
	rows := []struct {
		name string
		a, m float64
	}{
		{"L1-I caches", aa.L1I, am.L1I},
		{"L1-D caches", aa.L1D, am.L1D},
		{"L2 caches", aa.L2, am.L2},
		{"directory", aa.Dir, am.Dir},
		{"routers", aa.Routers, am.Routers},
		{"links", aa.Links, am.Links},
		{"hubs+receive nets", aa.Hubs + aa.ReceiveNets, 0},
		{"photonics", aa.Photonics, 0},
		{"core logic", aa.CoreLogic, am.CoreLogic},
		{"total", aa.Total(), am.Total()},
	}
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{row.name, f2(row.a), f2(row.m)})
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Fig 11: runtime vs flit width.
// ---------------------------------------------------------------------

var flitWidths = []int{16, 32, 64, 128, 256}

// flitWidthConfigs is the default ATAC+ (the normalization base), then
// one ATAC+ per swept flit width.
func flitWidthConfigs(r *Runner) []config.Config {
	return append([]config.Config{r.Opt.Config(config.ATACPlus)},
		atacSweep(r, flitWidths, func(c *config.Config, w int) { c.Network.FlitBits = w })...)
}

// fig11 regenerates the flit-width sensitivity study.
func fig11(r *Runner, cfgs []config.Config) (*Table, error) {
	t := &Table{
		Title:   "Fig 11: ATAC+ runtime vs flit width [normalized to 64-bit]",
		Columns: append([]string{"benchmark"}, labels("%d-bit", flitWidths)...),
		Notes:   []string{"runtime improves steeply to 64 bits, then flattens (paper: 50% from 16->64, 10% from 64->256)"},
	}
	return r.benchRows(t, cfgs, func(res []system.Result) ([]string, error) {
		var cells []string
		for _, w := range res[1:] {
			cells = append(cells, f3(float64(w.Cycles)/float64(res[0].Cycles)))
		}
		return cells, nil
	})
}

// ---------------------------------------------------------------------
// Fig 12: BNet vs StarNet receive networks (cluster routing).
// ---------------------------------------------------------------------

// receiveNetConfigs is ATAC (BNet, cluster routing), then ATAC+ held to
// cluster routing so only the receive network differs.
func receiveNetConfigs(r *Runner) []config.Config {
	star := r.Opt.Config(config.ATACPlus)
	star.Network.Routing = config.ClusterRouting
	return []config.Config{r.Opt.Config(config.ATAC), star}
}

// fig12 regenerates the receive-network energy comparison.
func fig12(r *Runner, cfgs []config.Config) (*Table, error) {
	t := &Table{
		Title:   "Fig 12: Uncore energy, BNet vs StarNet (cluster routing) [normalized to BNet]",
		Columns: []string{"benchmark", "BNet", "StarNet", "savings %"},
		Notes:   []string{"paper: StarNet saves ~8% on average, more for unicast-heavy apps"},
	}
	var totB, totS float64
	_, err := r.benchRows(t, cfgs, func(res []system.Result) ([]string, error) {
		mB, err := models(cfgs[0])
		if err != nil {
			return nil, err
		}
		mS, err := models(cfgs[1])
		if err != nil {
			return nil, err
		}
		eB := energy.Combine(mB, res[0]).UncoreTotal()
		eS := energy.Combine(mS, res[1]).UncoreTotal()
		totB += eB
		totS += eS
		return []string{"1.000", f3(eS / eB), f2((1 - eS/eB) * 100)}, nil
	})
	if err != nil {
		return nil, err
	}
	if totB > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("average savings: %.1f%%", (1-totS/totB)*100))
	} else {
		t.Notes = append(t.Notes, "average savings unavailable: every benchmark failed")
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Fig 13: E-D product of the routing protocols.
// ---------------------------------------------------------------------

// fig13Schemes are Fig 3's series without Distance-All: Cluster and
// Distance-{5,15,25,35}.
func fig13Schemes(o Options) []RoutingScheme { return fig3Schemes(o)[:5] }

func routingConfigs(r *Runner) []config.Config {
	return atacSweep(r, fig13Schemes(r.Opt), applyScheme)
}

// fig13 regenerates the routing-protocol energy-delay comparison.
func fig13(r *Runner, cfgs []config.Config) (*Table, error) {
	schemes := fig13Schemes(r.Opt)
	t := &Table{
		Title:   "Fig 13: E-D product of routing protocols [normalized to Cluster]",
		Columns: append([]string{"benchmark"}, schemeNames(schemes)...),
		Notes:   []string{"paper: Distance-15 lowest, ~10% below Cluster on average"},
	}
	sums := make([]float64, len(schemes))
	completed := 0
	_, err := r.benchRows(t, cfgs, func(res []system.Result) ([]string, error) {
		es, err := edps(cfgs, res)
		if err != nil {
			return nil, err
		}
		// The whole row succeeded, so it may enter the cross-benchmark
		// sums: a degraded row must not skew the averages.
		for i, e := range es {
			sums[i] += e / es[0]
		}
		completed++
		return ratios(es, es[0]), nil
	})
	if err != nil {
		return nil, err
	}
	if completed > 0 {
		best, bestI := sums[0], 0
		for i, s := range sums {
			if s < best {
				best, bestI = s, i
			}
		}
		t.Notes = append(t.Notes, fmt.Sprintf("best average scheme: %s (%.3f of Cluster)",
			schemes[bestI].Name, best/float64(completed)))
	} else {
		t.Notes = append(t.Notes, "best average scheme unavailable: every benchmark failed")
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Fig 14: coherence protocols x networks.
// ---------------------------------------------------------------------

// coherenceConfigs is {ATAC+, EMesh-BCast} x {ACKwise, DirkB}, network-
// major: the column order, with ATAC+/ACKwise (the base) first.
func coherenceConfigs(r *Runner) []config.Config {
	var cfgs []config.Config
	for _, kind := range []config.NetworkKind{config.ATACPlus, config.EMeshBCast} {
		for _, ck := range []config.CoherenceKind{config.ACKwise, config.DirKB} {
			cfg := r.Opt.Config(kind)
			cfg.Coherence.Kind = ck
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// fig14 regenerates the ACKwise4 vs Dir4B comparison on ATAC+ and
// EMesh-BCast.
func fig14(r *Runner, cfgs []config.Config) (*Table, error) {
	t := &Table{
		Title:   "Fig 14: E-D product, ACKwise4 vs Dir4B [normalized to ATAC+/ACKwise4]",
		Columns: []string{"benchmark", "ATAC+ ACKwise4", "ATAC+ Dir4B", "EMesh-BCast ACKwise4", "EMesh-BCast Dir4B"},
		Notes:   []string{"Dir4B suffers on broadcast-heavy apps (1024 acks per invalidation), worse on the mesh"},
	}
	return r.benchRows(t, cfgs, func(res []system.Result) ([]string, error) {
		es, err := edps(cfgs, res)
		if err != nil {
			return nil, err
		}
		return ratios(es, es[0]), nil
	})
}

// ---------------------------------------------------------------------
// Figs 15 & 16: ACKwise sharer-count sweeps.
// ---------------------------------------------------------------------

// SharerCounts are the paper's swept hardware sharer counts.
var SharerCounts = []int{4, 8, 16, 32, 1024}

// sharerConfigs is one ATAC+ per swept sharer count.
func sharerConfigs(r *Runner) []config.Config {
	return atacSweep(r, SharerCounts, func(c *config.Config, k int) { c.Coherence.Sharers = k })
}

// fig15 regenerates completion time vs ACKwise sharer count.
func fig15(r *Runner, cfgs []config.Config) (*Table, error) {
	t := &Table{
		Title:   "Fig 15: ATAC+ completion time vs ACKwise sharers [normalized to 4]",
		Columns: append([]string{"benchmark"}, labels("%d", SharerCounts)...),
		Notes:   []string{"paper: little runtime variation, non-monotonic"},
	}
	return r.benchRows(t, cfgs, func(res []system.Result) ([]string, error) {
		var cells []string
		for _, k := range res {
			cells = append(cells, f3(float64(k.Cycles)/float64(res[0].Cycles)))
		}
		return cells, nil
	})
}

// fig16 regenerates the energy breakdown vs ACKwise sharer count
// (benchmark average, normalized to 4 sharers): one row per sharer count,
// each summed over every benchmark.
func fig16(r *Runner, cfgs []config.Config) (*Table, error) {
	t := &Table{
		Title:   "Fig 16: ATAC+ energy vs ACKwise sharers, benchmark average [normalized to 4]",
		Columns: []string{"sharers", "directory", "other caches", "network", "total"},
		Notes:   []string{"paper: ~2x total energy growth from 4 to 1024 sharers, driven by the directory"},
	}
	var base float64
	for ki, k := range SharerCounts {
		cfg := cfgs[ki]
		err := r.row(t, fmt.Sprint(k), func() ([]string, error) {
			var dir, caches, net, tot float64
			for _, b := range r.apps() {
				res, err := r.Run(cfg, b)
				if err != nil {
					return nil, err
				}
				m, err := models(cfg)
				if err != nil {
					return nil, err
				}
				bd := energy.Combine(m, res)
				dir += bd.DirDyn + bd.DirStatic
				caches += bd.Caches() - bd.DirDyn - bd.DirStatic
				net += bd.Network()
				tot += bd.UncoreTotal()
			}
			if base == 0 {
				if ki > 0 {
					// The 4-sharer row (the normalization base) degraded;
					// a ratio against a different base would be misleading.
					return nil, fmt.Errorf("normalization base (%d sharers) unavailable", SharerCounts[0])
				}
				base = tot
			}
			return []string{f3(dir / base), f3(caches / base), f3(net / base), f3(tot / base)}, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Fig 17: whole-chip energy with the first-order core model.
// ---------------------------------------------------------------------

// fig17 regenerates the chip energy breakdown for core NDD fractions of
// 10% and 40%: per fraction, one row per benchmark per network.
func fig17(r *Runner, cfgs []config.Config) (*Table, error) {
	t := &Table{
		Title:   "Fig 17: Chip energy breakdown (core/cache/network), per core-NDD fraction",
		Columns: []string{"benchmark", "NDD", "net", "ATAC+ coreNDD", "coreDD", "caches", "network", "total(mJ)"},
		Notes:   []string{"cores dwarf caches and network; faster networks cut core NDD energy"},
	}
	for _, ndd := range []float64{0.10, 0.40} {
		for _, b := range r.apps() {
			for _, cfg := range cfgs {
				err := r.row(t, b, func() ([]string, error) {
					res, err := r.Run(cfg, b)
					if err != nil {
						return nil, err
					}
					cfg.Core.NDDFraction = ndd
					m, err := models(cfg)
					if err != nil {
						return nil, err
					}
					bd := energy.Combine(m, res)
					return []string{
						fmt.Sprintf("%.0f%%", ndd*100), cfg.Network.Kind.String(),
						f3(bd.CoreNDD * 1e3), f3(bd.CoreDD * 1e3),
						f3(bd.Caches() * 1e3), f3(bd.Network() * 1e3), f3(bd.Total() * 1e3),
					}, nil
				})
				if err != nil {
					return nil, err
				}
			}
		}
	}
	return t, nil
}
