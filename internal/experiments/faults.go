package experiments

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/energy"
)

// FaultScenario is one row of the resilience sweep: a named fault-process
// parameterization applied on top of the clean ATAC+ configuration.
type FaultScenario struct {
	Name  string
	Fault config.Fault
}

// FaultScenarios returns the sweep the resilience figure uses: an optical
// BER ladder, a thermal ring-drift episode, laser droop, and a combined
// worst case. The zero-BER row is the control: it exercises the fault
// plumbing at rate 0 and must match the clean run exactly.
func FaultScenarios() []FaultScenario {
	ber := func(b float64) config.Fault {
		return config.Fault{Enabled: true, OpticalBER: b, MeshBER: b / 100, DegradeThreshold: 0.05}
	}
	drift := ber(1e-6)
	drift.DriftPeriod = 100000
	drift.DriftDuty = 20000
	drift.DriftBERMult = 1000
	droop := ber(1e-6)
	droop.LaserDroopPerMCycle = 5
	worst := drift
	worst.LaserDroopPerMCycle = 5
	worst.OpticalBER = 1e-5
	return []FaultScenario{
		{"clean", config.Fault{}},
		{"ber=0 (control)", ber(0)},
		{"ber=1e-7", ber(1e-7)},
		{"ber=1e-6", ber(1e-6)},
		{"ber=1e-5", ber(1e-5)},
		{"ber=1e-4", ber(1e-4)},
		{"drift x1000/20%", drift},
		{"droop 5/Mcyc", droop},
		{"drift+droop @1e-5", worst},
	}
}

// faultBench is the benchmark the resilience figure sweeps.
const faultBench = "radix"

// faultConfigs is one ATAC+ per fault scenario, in scenario order.
func faultConfigs(r *Runner) []config.Config {
	return atacSweep(r, FaultScenarios(), func(c *config.Config, sc FaultScenario) { c.Fault = sc.Fault })
}

// faultSweep runs faultBench across the fault scenarios on ATAC+ and
// tabulates the performance and energy cost of resilience: runtime and EDP
// inflation, retransmitted/rerouted traffic, and degraded channels.
func faultSweep(r *Runner, cfgs []config.Config) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Resilience sweep: %s on ATAC+ under injected faults", faultBench),
		Columns: []string{"scenario", "cycles", "Δcyc%", "retx flits", "rerouted", "degraded", "EDP (J·s)", "ΔEDP%", "overhead (µJ)"},
		Notes: []string{
			"optical retx is stop-and-wait at the hub; unicasts of degraded channels fall back to the ENet",
			"Δ columns are relative to the clean (fault-disabled) run",
		},
	}
	var baseCycles, baseEDP float64
	for i, sc := range FaultScenarios() {
		cfg := cfgs[i]
		err := r.row(t, sc.Name, func() ([]string, error) {
			res, err := r.Run(cfg, faultBench)
			if err != nil {
				return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
			}
			m, err := models(cfg)
			if err != nil {
				return nil, err
			}
			edp := energy.EDP(m, res)
			if baseCycles == 0 {
				baseCycles, baseEDP = float64(res.Cycles), edp
			}
			// If the clean baseline itself degraded, the Δ columns have no
			// reference — render the absolute values and mark the deltas.
			dCyc, dEDP := missingCell, missingCell
			if baseCycles > 0 {
				dCyc = f2((float64(res.Cycles)/baseCycles - 1) * 100)
				dEDP = f2((edp/baseEDP - 1) * 100)
			}
			retx := res.Net.MeshRetxFlits + res.Net.OpticalRetxFlits
			return []string{
				fmt.Sprint(res.Cycles),
				dCyc,
				fmt.Sprint(retx),
				fmt.Sprint(res.Net.ReroutedMsgs),
				fmt.Sprint(res.Net.DegradedChannels),
				fmt.Sprintf("%.3e", edp),
				dEDP,
				f2(energy.ResilienceOverheadJ(m, res) * 1e6),
			}, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}
