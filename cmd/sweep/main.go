// Command sweep runs one-dimensional parameter sweeps and emits CSV: for
// the full system, runtime, energy, and E-D product per swept value; for
// the bare -net fabric under synthetic traffic (-param load), the latency
// distribution per offered load. It generalizes the fixed sweeps behind
// Figs 3, 9, 11, 13, 15 and 16.
//
// Usage:
//
//	sweep -param flit   -values 16,32,64,128,256 -bench radix
//	sweep -param rthres -values 2,4,8,12         -bench ocean_contig
//	sweep -param sharers -values 4,8,16,32       -bench barnes
//	sweep -param load -pattern tornado -values 2,5,10,20   (load in % — network only)
//
// Every sweep shares the campaign engine's resilience layer with
// cmd/figures: runs are journaled next to the cache, failed points emit a
// "# value N failed: ..." comment row instead of killing the sweep, and a
// SIGINT/SIGTERM drains in-flight runs before emitting what completed.
// Exit codes: 0 complete, 1 fatal, 3 some points failed, 4 interrupted.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/traffic"
	"repro/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	os.Exit(run())
}

func run() int {
	r := experiments.NewRunner(experiments.Options{})
	r.Retries = 2
	f := experiments.Flags{Geometry: experiments.Geometry{Net: "atac+", Cores: 64, Seed: 42}, Runner: r,
		Grace: 15 * time.Second}
	f.Bind(flag.CommandLine, "net", "cores", "tech", "optics", "seed", "jobs", "retries",
		"run-timeout", "cache-dir", "no-cache", "grace", "version")
	var (
		param   = flag.String("param", "flit", "swept parameter: flit, rthres, sharers, load")
		values  = flag.String("values", "", "comma-separated integer values")
		bench   = flag.String("bench", "radix", "benchmark (system sweeps)")
		pattern = flag.String("pattern", "uniform", "traffic pattern (load sweeps): "+strings.Join(traffic.Patterns(), ", "))
	)
	flag.Parse()

	if f.Version {
		fmt.Println(version.String())
		return 0
	}
	vals, err := parseInts(*values)
	if err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}
	if len(vals) == 0 {
		log.Print("no -values given")
		return experiments.ExitFatal
	}
	// Every point is this machine with one knob moved, so -tech/-optics
	// land in the run keys (and energy models) exactly as they do in the
	// other front ends, and an impossible machine fails before any run.
	base, err := experiments.BuildConfig(f.Geometry)
	if err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}
	specs, err := points(*param, *bench, *pattern, base, vals)
	if err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}

	r.Opt = experiments.Options{Cores: f.Cores, Scale: 1, Seed: f.Seed, Tech: f.Tech, Optics: f.Optics}
	r.RecallFailures = true
	closeCache, err := f.AttachCache(true, log.Printf)
	if err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}
	defer closeCache()
	ctx, stopSignals := r.InstallSignalHandler(f.Grace, log.Printf, nil)
	defer stopSignals()

	// Hand the whole point set to the campaign engine first: points run
	// concurrently (up to -jobs) and repeat invocations hit the persistent
	// cache. Errors are surfaced per point below, as comment rows in the
	// CSV; an entirely failed sweep still emits its header and comments.
	_ = r.RunAll(ctx, specs)

	if *param == "load" {
		fmt.Println("load_pct,injected,delivered,mean_lat,p50,p95,p99,max")
	} else {
		fmt.Printf("%s,cycles,instructions,energy_mJ,edp_uJs\n", *param)
	}
	for i, v := range vals {
		res, err := r.Run(specs[i].Cfg, specs[i].Bench)
		if err != nil {
			fmt.Printf("# value %d failed: %v\n", v, err)
			continue
		}
		if s := res.Synth; s != nil {
			fmt.Printf("%d,%d,%d,%.2f,%d,%d,%d,%d\n", v, s.Injected, s.Delivered,
				s.MeanLat, s.P50Lat, s.P95Lat, s.P99Lat, s.MaxLat)
			continue
		}
		m, err := energy.Build(specs[i].Cfg)
		if err != nil {
			log.Print(err)
			return experiments.ExitFatal
		}
		bd := energy.Combine(m, res)
		fmt.Printf("%d,%d,%d,%.4f,%.4f\n", v, res.Cycles, res.Instructions,
			bd.Total()*1e3, energy.EDP(m, res)*1e6)
	}
	fmt.Fprintln(os.Stderr, "done")
	return r.ExitCode()
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// points builds the run of each swept value: for a system sweep, base with
// one knob moved running bench; for a load sweep, base itself driven by
// pattern at v% offered load. A value no run can honour is an error before
// anything is simulated.
func points(param, bench, pattern string, base config.Config, vals []int) ([]experiments.RunSpec, error) {
	specs := make([]experiments.RunSpec, 0, len(vals))
	for _, v := range vals {
		s := experiments.RunSpec{Cfg: base, Bench: bench}
		switch param {
		case "load":
			sp := experiments.SynthSpec{Pattern: pattern, Load: float64(v) / 100, BcastFrac: 0.001,
				Warmup: 2000, Measure: 6000}
			if err := sp.Validate(); err != nil {
				return nil, fmt.Errorf("value %d: %v", v, err)
			}
			s.Bench = sp.Bench()
		case "flit":
			s.Cfg.Network.FlitBits = v
		case "rthres":
			s.Cfg.Network.Routing = config.DistanceRouting
			s.Cfg.Network.RThres = v
		case "sharers":
			s.Cfg.Coherence.Sharers = v
		default:
			return nil, fmt.Errorf("unknown -param %q", param)
		}
		if err := s.Cfg.Validate(); err != nil {
			return nil, fmt.Errorf("value %d: %v", v, err)
		}
		specs = append(specs, s)
	}
	return specs, nil
}
