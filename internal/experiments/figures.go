// The figure table. Every table and figure of the evaluation is declared
// once, here: its id, the configurations each benchmark is run on, and the
// function that renders those runs into a Table. The run-set registry
// (FigureRuns, CampaignRuns), the per-figure prefetch, the manifest, and
// cmd/figures' job list and -only selection all read it, so adding a
// figure is one entry plus its render function.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/system"
)

type figure struct {
	id string
	// configs lists the configurations every benchmark is run on; render
	// receives the same slice, so each derivation is written once. A
	// model-only figure, with no Runner-backed runs, lists none.
	configs func(r *Runner) []config.Config
	benches []string // a fixed benchmark list (Fig 3, faults); nil = the campaign's set
	render  func(r *Runner, cfgs []config.Config) (*Table, error)
}

// figures is the campaign in cmd/figures' output order.
var figures = []figure{
	{id: "3", configs: fig3Configs, benches: fig3Benches(), render: fig3},
	{id: "4", configs: onKinds(config.ATACPlus, config.EMeshBCast, config.EMeshPure), render: fig4},
	{id: "5", configs: onKinds(config.ATACPlus), render: fig5},
	{id: "6", configs: onKinds(config.ATACPlus), render: fig6},
	{id: "7", configs: onKinds(config.ATACPlus, config.EMeshBCast, config.EMeshPure), render: fig7},
	{id: "8", configs: onKinds(config.ATACPlus, config.EMeshBCast, config.EMeshPure),
		render: func(r *Runner, cfgs []config.Config) (*Table, error) {
			t, _, _, err := fig8(r, cfgs)
			return t, err
		}},
	{id: "9", configs: onKinds(config.ATACPlus, config.EMeshBCast), render: fig9},
	{id: "10", configs: onKinds(), render: func(r *Runner, _ []config.Config) (*Table, error) { return Fig10(r.Opt) }},
	{id: "11", configs: flitWidthConfigs, render: fig11},
	{id: "12", configs: receiveNetConfigs, render: fig12},
	{id: "13", configs: routingConfigs, render: fig13},
	{id: "14", configs: coherenceConfigs, render: fig14},
	{id: "15", configs: sharerConfigs, render: fig15},
	{id: "16", configs: sharerConfigs, render: fig16},
	{id: "17", configs: onKinds(config.ATACPlus, config.EMeshBCast), render: fig17},
	{id: "tablev", configs: onKinds(config.ATACPlus), render: tableV},
	{id: "techsweep", configs: techsweepConfigs, render: techSweep},
	{id: "xtopo", configs: xtopoConfigs, render: xtopo},
	{id: "ablations", configs: ablationConfigs, render: ablations},
	{id: "faults", configs: faultConfigs, benches: []string{faultBench}, render: faultSweep},
}

// onKinds declares the campaign's default configuration of each kind.
func onKinds(kinds ...config.NetworkKind) func(*Runner) []config.Config {
	return func(r *Runner) []config.Config {
		cfgs := make([]config.Config, len(kinds))
		for i, k := range kinds {
			cfgs[i] = r.Opt.Config(k)
		}
		return cfgs
	}
}

// atacSweep declares one ATAC+ config per point of a sweep, set applying
// the point to it.
func atacSweep[T any](r *Runner, xs []T, set func(*config.Config, T)) []config.Config {
	cfgs := make([]config.Config, len(xs))
	for i, x := range xs {
		cfgs[i] = r.Opt.Config(config.ATACPlus)
		set(&cfgs[i], x)
	}
	return cfgs
}

// FigureIDs lists the table's ids in campaign order.
func FigureIDs() []string {
	ids := make([]string, len(figures))
	for i := range figures {
		ids[i] = figures[i].id
	}
	return ids
}

func figureByID(id string) *figure {
	for i := range figures {
		if figures[i].id == id {
			return &figures[i]
		}
	}
	return nil
}

// runs expands cfgs over the entry's benchmarks, benchmark-major.
func (f *figure) runs(r *Runner, cfgs []config.Config) []RunSpec {
	apps := r.apps()
	if f.benches != nil {
		apps = f.benches
	}
	var specs []RunSpec
	for _, b := range apps {
		for _, cfg := range cfgs {
			specs = append(specs, RunSpec{Cfg: cfg, Bench: b})
		}
	}
	return dedupSpecs(specs)
}

// prepare derives f's configs and prefetches their runs through the worker
// pool, so the renderer reads warm memo entries.
func (r *Runner) prepare(f *figure) []config.Config {
	cfgs := f.configs(r)
	r.Prefetch(f.runs(r, cfgs))
	return cfgs
}

// Figure regenerates the table or figure with the given id: "3".."17" and
// "tablev" are the paper's, the rest of FigureIDs the repo's extensions.
func (r *Runner) Figure(id string) (*Table, error) {
	f := figureByID(id)
	if f == nil {
		return nil, fmt.Errorf("unknown figure %q (valid: %s)", id, strings.Join(FigureIDs(), ", "))
	}
	return f.render(r, r.prepare(f))
}

// Xtopo is Figure("xtopo").
func (r *Runner) Xtopo() (*Table, error) { return r.Figure("xtopo") }

// FigureRuns returns the deduplicated run-set figure id draws on; nil for
// the model-only Fig 10 and unknown ids.
func (r *Runner) FigureRuns(id string) []RunSpec {
	f := figureByID(id)
	if f == nil {
		return nil
	}
	return f.runs(r, f.configs(r))
}

// CampaignRuns returns the deduplicated union of the run-sets of the given
// figure ids — the full work-list a campaign hands to Prefetch so the
// worker pool is saturated from the start.
func (r *Runner) CampaignRuns(ids []string) []RunSpec {
	var all []RunSpec
	for _, id := range ids {
		all = append(all, r.FigureRuns(id)...)
	}
	return dedupSpecs(all)
}

// runEach runs bench on every config in order, stopping at the first
// failure: the run a degraded figure's note then names.
func (r *Runner) runEach(cfgs []config.Config, bench string) ([]system.Result, error) {
	res := make([]system.Result, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if res[i], err = r.Run(cfg, bench); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// benchRows is the row-per-benchmark figure shape: cells turns the runs of
// cfgs on one benchmark (res[i] is cfgs[i]'s) into the columns after its
// label. A failure degrades that row under Partial and aborts the figure
// otherwise (see row).
func (r *Runner) benchRows(t *Table, cfgs []config.Config, cells func(res []system.Result) ([]string, error)) (*Table, error) {
	for _, b := range r.apps() {
		err := r.row(t, b, func() ([]string, error) {
			res, err := r.runEach(cfgs, b)
			if err != nil {
				return nil, err
			}
			return cells(res)
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// eachBench is the benchmark-average figure shape: a benchmark's runs are
// all gathered before add sees any, so a failed run excludes the whole
// benchmark (noted under Partial, fatal otherwise) instead of leaving it
// half-accumulated. It returns how many benchmarks contributed.
func (r *Runner) eachBench(t *Table, cfgs []config.Config, add func(b string, res []system.Result) error) (int, error) {
	contributed := 0
	for _, b := range r.apps() {
		res, err := r.runEach(cfgs, b)
		if err != nil {
			if !r.Partial {
				return 0, err
			}
			t.noteMissing("benchmark "+b, err)
			continue
		}
		if err := add(b, res); err != nil {
			return 0, err
		}
		contributed++
	}
	return contributed, nil
}

// edps returns each run's energy-delay product under its own config's
// models (res[i] is a run of cfgs[i]).
func edps(cfgs []config.Config, res []system.Result) ([]float64, error) {
	out := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		m, err := models(cfg)
		if err != nil {
			return nil, err
		}
		out[i] = energy.EDP(m, res[i])
	}
	return out, nil
}

// ratios renders vs normalized to base, three decimals.
func ratios(vs []float64, base float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = f3(v / base)
	}
	return out
}

// labels formats each point of a sweep as its column header.
func labels[T any](format string, xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf(format, x)
	}
	return out
}
