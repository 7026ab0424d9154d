// The techsweep figure: a design-space exploration across device
// technology scenarios. Where the paper evaluates one technology point
// (11 nm tri-gate electronics, Table II optics), the techsweep re-costs
// the same application runs under every named scenario of the
// internal/tech and internal/photonics registries and reports how the
// uncore energy breakdown and the chip EDP move. A scenario is not part of
// the run identity (the simulator never reads it), so the sweep simulates
// one ATAC+ run per benchmark, cached like any other campaign run.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/photonics"
	"repro/internal/system"
	"repro/internal/tech"
)

// TechScenario is one point of the sweep: an electrical node from the
// internal/tech registry paired with an optical variant from the
// internal/photonics registry. Names are canonical registry names.
type TechScenario struct {
	Tech   string
	Optics string
}

// Name renders the scenario's canonical "tech/optics" label, the form
// ParseScenarios accepts and the techsweep table prints.
func (s TechScenario) Name() string { return s.Tech + "/" + s.Optics }

// newScenario canonicalizes and validates one tech/optics pair.
func newScenario(techName, opticsName string) (TechScenario, error) {
	if _, err := tech.ByName(techName); err != nil {
		return TechScenario{}, err
	}
	if _, err := photonics.ByName(opticsName); err != nil {
		return TechScenario{}, err
	}
	return TechScenario{Tech: tech.Canonical(techName), Optics: photonics.Canonical(opticsName)}, nil
}

// DefaultTechScenarios returns the built-in sweep: the paper's baseline
// point first (the normalization reference), the projected electrical
// nodes at baseline optics, the optical bracket at baseline electronics,
// and the best corner (smallest node, optimistic optics).
func DefaultTechScenarios() []TechScenario {
	return []TechScenario{
		{Tech: "11nm", Optics: "baseline"},
		{Tech: "7nm", Optics: "baseline"},
		{Tech: "5nm", Optics: "baseline"},
		{Tech: "11nm", Optics: "optimistic"},
		{Tech: "11nm", Optics: "pessimistic"},
		{Tech: "5nm", Optics: "optimistic"},
	}
}

// ParseScenarios parses a comma-separated scenario list of the form
// "tech[/optics]" (e.g. "11nm/baseline,7nm,5nm/optimistic"); a missing
// optics part means the baseline variant. Names are validated against
// the registries and canonicalized. An empty string yields nil (callers
// fall back to DefaultTechScenarios).
func ParseScenarios(s string) ([]TechScenario, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []TechScenario
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		techName, opticsName, _ := strings.Cut(part, "/")
		sc, err := newScenario(techName, opticsName)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %v", part, err)
		}
		out = append(out, sc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("scenario list %q names no scenarios", s)
	}
	return out, nil
}

// techScenarios returns the campaign's sweep set: Options.Scenarios when
// provided, else the built-in six.
func (r *Runner) techScenarios() []TechScenario {
	if len(r.Opt.Scenarios) > 0 {
		return r.Opt.Scenarios
	}
	return DefaultTechScenarios()
}

// techsweepConfigs is one ATAC+ per scenario of the sweep, each pinned to
// its scenario's technology names.
func techsweepConfigs(r *Runner) []config.Config {
	return atacSweep(r, r.techScenarios(), func(c *config.Config, s TechScenario) { c.Tech, c.Optics = s.Tech, s.Optics })
}

// techSweep renders the per-scenario EDP and uncore energy-breakdown
// comparison, benchmark-averaged and normalized to the first scenario
// (the paper's baseline in the default set). The breakdown columns use
// the campaign's configured flavor (athermal ATAC+ by default); the
// "ring tuning" and "EDP tuned" columns re-evaluate the same runs under
// ATAC+(RingTuned) so the thermal-tuning cost of each optical variant is
// visible even when the primary flavor is athermal.
func techSweep(r *Runner, cfgs []config.Config) (*Table, error) {
	scens := r.techScenarios()
	ref := scens[0].Name()
	t := &Table{
		Title: fmt.Sprintf("Techsweep: uncore energy and EDP by technology scenario, benchmark average [normalized to %s]", ref),
		Columns: []string{"scenario", "laser", "ring tuning", "mod/rx/select",
			"electrical", "caches", "uncore", "EDP", "EDP tuned"},
		Notes: []string{
			"electrical nodes scale CV² energy down and leakage density up (internal/tech scaling rules)",
			"ring tuning and EDP tuned columns are the same runs re-costed under ATAC+(RingTuned)",
		},
	}

	type agg struct {
		uncoreSums
		edp, edpTuned float64
	}
	sums := make([]agg, len(scens))
	contributed, err := r.eachBench(t, cfgs, func(_ string, res []system.Result) error {
		for i, cfg := range cfgs {
			m, err := models(cfg)
			if err != nil {
				return err
			}
			bd := energy.Combine(m, res[i])
			sums[i].add(bd)
			sums[i].edp += energy.EDP(m, res[i])

			mt, err := models(withFlavor(cfg, config.FlavorRingTuned))
			if err != nil {
				return err
			}
			sums[i].tuning += energy.Combine(mt, res[i]).RingTuning - bd.RingTuning
			sums[i].edpTuned += energy.EDP(mt, res[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if contributed == 0 {
		return nil, fmt.Errorf("techsweep: every benchmark failed")
	}

	normE, normEDP := sums[0].total, sums[0].edp
	if normE <= 0 || normEDP <= 0 {
		return nil, fmt.Errorf("techsweep: reference scenario %s has no energy", ref)
	}
	for i, s := range scens {
		a := sums[i]
		row := append([]string{s.Name()}, a.cells(normE)...)
		t.Rows = append(t.Rows, append(row, f3(a.edp/normEDP), f3(a.edpTuned/normEDP)))
	}
	return t, nil
}
