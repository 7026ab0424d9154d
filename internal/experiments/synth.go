// Synthetic network-only runs through the campaign engine.
//
// Fig 3, cmd/sweep -param load and atacd synth: jobs drive uniform-random
// (and other) traffic patterns through a bare fabric with no cores or
// coherence. Encoding such a run as a pseudo-benchmark name ("synth:...")
// lets it flow through the Runner unchanged, so network-only sweeps
// inherit the singleflight dedup, worker pool, persistent cache and
// journal that the application campaigns already have. The latency
// statistics land in Result.Synth and are cached like any other result.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/traffic"
)

// SynthSpec describes one network-only synthetic-traffic run: the
// pattern, offered load in flits/cycle/core, broadcast fraction, and the
// warmup/measurement windows in cycles. The swept fabric (network kind,
// routing scheme, flit width, ...) lives in the config, as usual.
type SynthSpec struct {
	Pattern   string
	Load      float64
	BcastFrac float64
	Warmup    sim.Time
	Measure   sim.Time
}

// synthPrefix marks a pseudo-benchmark name as a synthetic run.
const synthPrefix = "synth:"

// synthDrainLimit bounds the post-measurement drain of every synthetic run.
const synthDrainLimit = 20000

// Bench encodes the spec as a canonical pseudo-benchmark name. The
// encoding is part of the run's identity: it appears in the memo key and
// the persistent cache key, so two specs encode equal iff they describe
// the same measurement.
func (s SynthSpec) Bench() string {
	return fmt.Sprintf("%s%s:load=%g:bcast=%g:warmup=%d:measure=%d",
		synthPrefix, s.Pattern, s.Load, s.BcastFrac, s.Warmup, s.Measure)
}

// ParseSynthBench decodes a pseudo-benchmark name produced by Bench.
// Ordinary benchmark names return ok == false.
func ParseSynthBench(bench string) (SynthSpec, bool) {
	if !strings.HasPrefix(bench, synthPrefix) {
		return SynthSpec{}, false
	}
	parts := strings.Split(strings.TrimPrefix(bench, synthPrefix), ":")
	if len(parts) != 5 || parts[0] == "" {
		return SynthSpec{}, false
	}
	sp := SynthSpec{Pattern: parts[0]}
	for _, part := range parts[1:] {
		k, v, found := strings.Cut(part, "=")
		if !found {
			return SynthSpec{}, false
		}
		var err error
		switch k {
		case "load":
			sp.Load, err = strconv.ParseFloat(v, 64)
		case "bcast":
			sp.BcastFrac, err = strconv.ParseFloat(v, 64)
		case "warmup":
			var n uint64
			n, err = strconv.ParseUint(v, 10, 64)
			sp.Warmup = sim.Time(n)
		case "measure":
			var n uint64
			n, err = strconv.ParseUint(v, 10, 64)
			sp.Measure = sim.Time(n)
		default:
			return SynthSpec{}, false
		}
		if err != nil {
			return SynthSpec{}, false
		}
	}
	return sp, true
}

// Validate rejects a spec no run can honour: load and broadcast fraction
// must be finite and in [0, 1], the pattern one traffic.ByName knows, and
// the measurement window non-empty. ParseSynthBench checks only the
// encoding, so atacd validates a submitted spec before it is enqueued and
// every synthetic run validates again before it simulates.
func (s SynthSpec) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"load", s.Load}, {"bcast", s.BcastFrac}} {
		if !(f.v >= 0 && f.v <= 1) { // also NaN and ±Inf
			return fmt.Errorf("synthetic spec: %s=%g outside [0, 1]", f.name, f.v)
		}
	}
	if _, err := traffic.ByName(s.Pattern, 1, 0); err != nil {
		return err
	}
	if s.Measure == 0 {
		return errors.New("synthetic spec: measure must be > 0")
	}
	return nil
}

// RunSynthetic executes (or recalls) one synthetic run through the full
// memo/cache/journal pipeline. Concurrent calls for the same (config,
// spec) share one execution, exactly like application runs.
func (r *Runner) RunSynthetic(cfg config.Config, sp SynthSpec) (system.Result, error) {
	return r.Run(cfg, sp.Bench())
}

// SchemeConfig derives the ATAC+ configuration for one Fig 3 routing
// scheme under this Runner's campaign options.
func (r *Runner) SchemeConfig(sch RoutingScheme) config.Config {
	cfg := r.Opt.Config(config.ATACPlus)
	applyScheme(&cfg, sch)
	return cfg
}

// runSynthetic performs the actual network-only simulation: build the
// bare fabric the config names, drive the pattern through it, and fold
// the measurement into a Result whose Synth section carries the latency
// distribution. Deterministic for a given (config, spec), so it is as
// cacheable as an application run.
//
// ctx reaches the kernel through the poll System.RunContext uses
// (system.PollContext), and a cancelled run fails with
// system.ErrRunCancelled wrapping the context's cause.
func (r *Runner) runSynthetic(ctx context.Context, cfg config.Config, bench string, sp SynthSpec) (system.Result, error) {
	if err := sp.Validate(); err != nil {
		return system.Result{}, err
	}
	p, err := traffic.ByName(sp.Pattern, cfg.MeshDim(), sp.BcastFrac)
	if err != nil {
		return system.Result{}, err
	}
	var k sim.Kernel
	net, err := noc.New(&k, &cfg)
	if err != nil {
		return system.Result{}, fmt.Errorf("synthetic run: %w", err)
	}
	system.PollContext(ctx, &k)
	res := traffic.Drive(&k, net, cfg.Cores, p, sp.Load, cfg.Network.FlitBits,
		sp.Warmup, sp.Measure, synthDrainLimit, cfg.Seed)
	if stop := k.Stopped(); stop != nil {
		return system.Result{}, fmt.Errorf("synthetic run %s: %w at cycle %d: %w",
			bench, stop, k.Now(), context.Cause(ctx))
	}
	return system.Result{
		Benchmark: bench,
		Cfg:       cfg,
		Cycles:    sp.Warmup + sp.Measure,
		Finished:  true,
		Net:       *net.Stats(),
		Synth: &system.SynthStats{
			Pattern:   res.Pattern,
			Load:      res.Load,
			BcastFrac: sp.BcastFrac,
			Injected:  res.Injected,
			Delivered: res.Delivered,
			MeanLat:   res.Latency.Mean(),
			P50Lat:    res.Latency.Percentile(50),
			P95Lat:    res.Latency.Percentile(95),
			P99Lat:    res.Latency.Percentile(99),
			MaxLat:    res.Latency.Max(),
		},
	}, nil
}

// ---------------------------------------------------------------------
// Fig 3: latency vs offered load for the unicast routing schemes,
// uniform-random traffic with 0.1% broadcasts (network-only experiment).
// ---------------------------------------------------------------------

// RoutingScheme is one Fig 3 series.
type RoutingScheme struct {
	Name    string
	Routing config.RoutingPolicy
	RThres  int
}

// Fig3Schemes returns the paper's series: Cluster, Distance-{5,15,25,35},
// Distance-All. Thresholds are scaled to the configured mesh span.
func Fig3Schemes(meshDim int) []RoutingScheme {
	scaled := func(h int) int {
		t := h * meshDim / 32 // the paper's thresholds assume a 32x32 mesh
		if t < 1 {
			t = 1
		}
		return t
	}
	return []RoutingScheme{
		{"Cluster", config.ClusterRouting, 0},
		{fmt.Sprintf("Distance-%d", scaled(5)), config.DistanceRouting, scaled(5)},
		{fmt.Sprintf("Distance-%d", scaled(15)), config.DistanceRouting, scaled(15)},
		{fmt.Sprintf("Distance-%d", scaled(25)), config.DistanceRouting, scaled(25)},
		{fmt.Sprintf("Distance-%d", scaled(35)), config.DistanceRouting, scaled(35)},
		{"Distance-All", config.ENetOnlyRouting, 0},
	}
}

// applyScheme routes cfg by sch (Figs 3 and 13).
func applyScheme(cfg *config.Config, sch RoutingScheme) {
	cfg.Network.Routing = sch.Routing
	if sch.RThres > 0 {
		cfg.Network.RThres = sch.RThres
	}
}

// fig3Loads are Fig 3's offered loads in flits/cycle/core.
var fig3Loads = []float64{0.01, 0.02, 0.04, 0.08, 0.12, 0.16}

// fig3Bench names Fig 3's run at one offered load: uniform random traffic
// with 0.1% broadcasts, 3000 warm-up and 6000 measured cycles.
func fig3Bench(load float64) string {
	return SynthSpec{Pattern: "uniform", Load: load, BcastFrac: 0.001, Warmup: 3000, Measure: 6000}.Bench()
}

// fig3Benches is Fig 3's fixed benchmark list, one run per offered load.
func fig3Benches() []string {
	out := make([]string, len(fig3Loads))
	for i, load := range fig3Loads {
		out[i] = fig3Bench(load)
	}
	return out
}

// fig3Schemes are Fig 3's series on the campaign's mesh span.
func fig3Schemes(o Options) []RoutingScheme {
	cfg := o.Config(config.ATACPlus)
	return Fig3Schemes(cfg.MeshDim())
}

// fig3Configs is one ATAC+ config per Fig 3 routing scheme.
func fig3Configs(r *Runner) []config.Config {
	return atacSweep(r, fig3Schemes(r.Opt), applyScheme)
}

// fig3 regenerates the latency-vs-load curves: one row per offered load,
// the mean delivery latency of each scheme's run in cycles. A saturated
// network reports the (large) latency accumulated before the drain horizon.
func fig3(r *Runner, cfgs []config.Config) (*Table, error) {
	schemes := fig3Schemes(r.Opt)
	t := &Table{
		Title:   "Fig 3: Latency vs Offered Load (uniform random, 0.1% broadcasts)",
		Columns: append([]string{"load (flits/cyc/core)"}, schemeNames(schemes)...),
		Notes: []string{
			"Cluster wins at low load (ONet zero-load latency); larger rthres wins as load rises",
		},
	}
	for _, load := range fig3Loads {
		err := r.row(t, f3(load), func() ([]string, error) {
			res, err := r.runEach(cfgs, fig3Bench(load))
			if err != nil {
				return nil, err
			}
			cells := make([]string, len(res))
			for i := range res {
				cells[i] = f2(res[i].Synth.MeanLat)
			}
			return cells, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

func schemeNames(s []RoutingScheme) []string {
	out := make([]string, len(s))
	for i := range s {
		out[i] = s[i].Name
	}
	return out
}
