package experiments

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/energy"
)

// ablationVariant is one row of the study: a named mutation of the default
// ATAC+ configuration.
type ablationVariant struct {
	name string
	mut  func(*config.Config)
}

func ablationVariants() []ablationVariant {
	return []ablationVariant{
		{"ATAC+ (default)", func(*config.Config) {}},
		{"broadcast-as-unicasts", func(c *config.Config) { c.Network.BcastAsUnicast = true }},
		{"1 StarNet/cluster", func(c *config.Config) { c.Network.StarNetsPerCl = 1 }},
		{"4 StarNets/cluster", func(c *config.Config) { c.Network.StarNetsPerCl = 4 }},
		{"select lag 0", func(c *config.Config) { c.Network.SelectDataLag = 0 }},
		{"select lag 4", func(c *config.Config) { c.Network.SelectDataLag = 4 }},
		{"adaptive routing", func(c *config.Config) { c.Network.Routing = config.AdaptiveRouting }},
	}
}

// ablationConfigs is the default ATAC+ (the normalization base), then one
// mutated ATAC+ per variant.
func ablationConfigs(r *Runner) []config.Config {
	return append([]config.Config{r.Opt.Config(config.ATACPlus)},
		atacSweep(r, ablationVariants(), func(c *config.Config, v ablationVariant) { v.mut(c) })...)
}

// ablations evaluates the design choices DESIGN.md calls out, beyond the
// paper's own figures:
//
//   - native SWMR broadcast vs serializing broadcasts as per-hub unicasts
//     (the Section V-D discussion: "each broadcast would have to be
//     converted into 64 unicast messages and serialized");
//   - the number of parallel receive networks per cluster (the paper
//     fixes 2 StarNets; 1 and 4 bracket the choice);
//   - the select-to-data lag (1 ns per Section IV-A; 0 models an ideal
//     instantaneous ring tune-in, 4 a slower electrical assist).
//
// Results are E-D products normalized to the default ATAC+ configuration,
// averaged over the campaign's benchmark set.
func ablations(r *Runner, cfgs []config.Config) (*Table, error) {
	t := &Table{
		Title:   "Ablations: E-D product vs default ATAC+ (benchmark average)",
		Columns: []string{"variant", "runtime", "E-D product"},
		Notes: []string{
			"broadcast-as-unicasts hurts broadcast-heavy apps most (Section V-D)",
		},
	}
	base := cfgs[0]
	for i, v := range ablationVariants() {
		cfg := cfgs[1+i]
		err := r.row(t, v.name, func() ([]string, error) {
			var sumRT, sumED float64
			n := 0
			for _, b := range r.apps() {
				res0, err := r.Run(base, b)
				if err != nil {
					return nil, err
				}
				m0, err := models(base)
				if err != nil {
					return nil, err
				}
				if err := cfg.Validate(); err != nil {
					return nil, fmt.Errorf("ablation %s: %w", v.name, err)
				}
				res, err := r.Run(cfg, b)
				if err != nil {
					return nil, err
				}
				m, err := models(cfg)
				if err != nil {
					return nil, err
				}
				sumRT += float64(res.Cycles) / float64(res0.Cycles)
				sumED += energy.EDP(m, res) / energy.EDP(m0, res0)
				n++
			}
			return []string{f3(sumRT / float64(n)), f3(sumED / float64(n))}, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}
