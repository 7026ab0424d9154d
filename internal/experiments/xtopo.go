// The xtopo figure: a cross-topology comparison of the fabric backends.
// Where the paper compares ATAC against electrical meshes (Fig 8), xtopo
// replays the same application runs over every first-class NoC backend —
// the broadcast-capable electrical mesh, the ATAC+ hybrid, the
// Corona-style optical crossbar, and the configurable electrical/photonic
// hybrid — and reports EDP, delivery latency, and the optical wall power
// (laser + ring tuning) per SPLASH-2 workload, normalized to the first
// topology (EMesh-BCast in the default set). It runs through the cached
// Runner like any other campaign: each topology is a distinct set of run
// keys, cache entries, and manifest rows.
package experiments

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/system"
)

// DefaultTopologies returns the built-in comparison set: the electrical
// reference first (the normalization baseline), then the paper's ATAC+
// fabric and the two crossbar-family backends.
func DefaultTopologies() []config.NetworkKind {
	return []config.NetworkKind{
		config.EMeshBCast, config.ATACPlus, config.Corona, config.HybridMesh,
	}
}

// xtopoKinds returns the campaign's topology set: Options.Topologies when
// provided, else the built-in four.
func (r *Runner) xtopoKinds() []config.NetworkKind {
	if len(r.Opt.Topologies) > 0 {
		return r.Opt.Topologies
	}
	return DefaultTopologies()
}

// xtopoHybridRadius picks the hybrid gateway radius for the campaign
// geometry: the coarsest radius (fewest gateways) that still divides the
// cluster grid and leaves at least two gateways, so the figure exercises
// a genuinely sparse photonic overlay rather than a gateway per cluster.
func xtopoHybridRadius(cfg config.Config) int {
	cw := cfg.ClusterGrid()
	for _, rad := range []int{2, 1} {
		if cw%rad == 0 && (cw/rad)*(cw/rad) >= 2 {
			return rad
		}
	}
	return 1
}

// xtopoConfigs is the campaign's default config of each topology of the
// sweep; the hybrid gets the geometry's gateway radius.
func xtopoConfigs(r *Runner) []config.Config {
	var cfgs []config.Config
	for _, k := range r.xtopoKinds() {
		cfg := r.Opt.Config(k)
		if k == config.HybridMesh {
			cfg.Hybrid.Radius = xtopoHybridRadius(cfg)
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// xtopoLabel names one topology column; the hybrid carries its gateway
// radius so tables produced at different scales stay self-describing.
func (r *Runner) xtopoLabel(k config.NetworkKind) string {
	if k == config.HybridMesh {
		return fmt.Sprintf("Hybrid(r%d)", xtopoHybridRadius(r.Opt.Config(k)))
	}
	return k.String()
}

// xtopo renders the cross-topology comparison: per-workload EDP and mean
// delivery latency normalized to the first topology, plus the absolute
// optical wall power (laser + ring tuning) each fabric pays for that
// performance. Purely electrical topologies show 0 optical power — that
// column is the price axis of the EDP/latency comparison, not a ratio.
func xtopo(r *Runner, cfgs []config.Config) (*Table, error) {
	kinds := r.xtopoKinds()
	ref := r.xtopoLabel(kinds[0])
	t := &Table{
		Title:   fmt.Sprintf("Xtopo: EDP, latency and optical power by NoC backend [EDP and latency normalized to %s]", ref),
		Columns: []string{"benchmark"},
		Notes: []string{
			"EDP and latency are per-benchmark ratios vs " + ref + "; opt W is absolute laser+tuning wall power",
			"crossbar broadcasts serialize over per-destination channels; the hybrid falls back to its mesh below the distance threshold",
		},
	}
	for _, k := range kinds {
		l := r.xtopoLabel(k)
		t.Columns = append(t.Columns, l+" EDP", l+" lat", l+" opt W")
	}

	type cell struct{ edp, lat, optW float64 }
	sums := make([]cell, len(kinds))
	contributed, err := r.eachBench(t, cfgs, func(b string, results []system.Result) error {
		cells := make([]cell, len(kinds))
		for i, cfg := range cfgs {
			m, err := models(cfg)
			if err != nil {
				return err
			}
			bd := energy.Combine(m, results[i])
			cells[i].edp = energy.EDP(m, results[i])
			if n := results[i].Net.LatencyCount; n > 0 {
				cells[i].lat = float64(results[i].Net.LatencySum) / float64(n)
			}
			if cyc := results[i].Cycles; cyc > 0 {
				cells[i].optW = (bd.Laser + bd.RingTuning) / (float64(cyc) * config.CycleSeconds)
			}
			sums[i].edp += cells[i].edp
			sums[i].lat += cells[i].lat
			sums[i].optW += cells[i].optW
		}
		if cells[0].edp <= 0 || cells[0].lat <= 0 {
			return fmt.Errorf("xtopo: reference %s has no signal for %s", ref, b)
		}
		row := []string{b}
		for i := range kinds {
			row = append(row, f3(cells[i].edp/cells[0].edp),
				f3(cells[i].lat/cells[0].lat), f3(cells[i].optW))
		}
		t.Rows = append(t.Rows, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if contributed == 0 {
		return nil, fmt.Errorf("xtopo: every benchmark failed")
	}

	row := []string{"average"}
	for i := range kinds {
		row = append(row, f3(sums[i].edp/sums[0].edp),
			f3(sums[i].lat/sums[0].lat), f3(sums[i].optW/float64(contributed)))
	}
	t.Rows = append(t.Rows, row)
	return t, nil
}
