// Command sweep runs one-dimensional parameter sweeps of the full system
// and emits CSV: runtime, energy, and E-D product per swept value. It
// generalizes the fixed sweeps behind Figs 9, 11, 13, 15 and 16.
//
// Usage:
//
//	sweep -param flit   -values 16,32,64,128,256 -bench radix
//	sweep -param rthres -values 2,4,8,12         -bench ocean_contig
//	sweep -param sharers -values 4,8,16,32       -bench barnes
//	sweep -param load -pattern tornado -values 2,5,10,20   (load in % — network only)
//
// System sweeps share the campaign engine's resilience layer with
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
	"repro/internal/noc"
	"repro/internal/sim"
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
	f.Bind(flag.CommandLine, "net", "cores", "tech", "optics", "seed", "jobs", "shards", "retries",
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
	switch *param {
	case "load":
		return sweepLoad(*pattern, base, vals)
	case "flit", "rthres", "sharers":
		return sweepSystem(*param, *bench, base, vals, &f)
	default:
		log.Printf("unknown -param %q", *param)
		return experiments.ExitFatal
	}
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

func sweepSystem(param, bench string, base config.Config, vals []int, f *experiments.Flags) int {
	// Build every swept configuration first, then hand the whole set to the
	// campaign engine: points run concurrently (up to -jobs) and repeat
	// invocations hit the persistent cache.
	cfgs := make([]config.Config, 0, len(vals))
	specs := make([]experiments.RunSpec, 0, len(vals))
	for _, v := range vals {
		cfg := base
		switch param {
		case "flit":
			cfg.Network.FlitBits = v
		case "rthres":
			cfg.Network.Routing = config.DistanceRouting
			cfg.Network.RThres = v
		case "sharers":
			cfg.Coherence.Sharers = v
		}
		if err := cfg.Validate(); err != nil {
			log.Printf("value %d: %v", v, err)
			return experiments.ExitFatal
		}
		cfgs = append(cfgs, cfg)
		specs = append(specs, experiments.RunSpec{Cfg: cfg, Bench: bench})
	}

	r := f.Runner
	r.Opt = experiments.Options{Cores: f.Cores, Scale: 1, Seed: f.Seed, Tech: f.Tech, Optics: f.Optics}
	r.RecallFailures = true
	dir := f.CacheDir
	if f.NoCache {
		r.Cache, dir = nil, ""
	}
	closeCache, err := r.AttachCache(dir, true, log.Printf)
	if err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}
	defer closeCache()
	ctx, stopSignals := r.InstallSignalHandler(f.Grace, log.Printf)
	defer stopSignals()

	// Errors are surfaced per-point below, as comment rows in the CSV; an
	// entirely failed sweep still emits its header and comments.
	_ = r.RunAll(ctx, specs)

	fmt.Printf("%s,cycles,instructions,energy_mJ,edp_uJs\n", param)
	for i, v := range vals {
		res, err := r.Run(cfgs[i], bench)
		if err != nil {
			fmt.Printf("# value %d failed: %v\n", v, err)
			continue
		}
		m, err := energy.Build(cfgs[i])
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

// sweepLoad drives the bare -net fabric with synthetic traffic at each load.
func sweepLoad(pattern string, cfg config.Config, percents []int) int {
	p, err := traffic.ByName(pattern, cfg.MeshDim(), 0.001)
	if err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}
	fmt.Println("load_pct,injected,delivered,mean_lat,p50,p95,p99,max")
	for _, pc := range percents {
		var k sim.Kernel
		net, err := noc.New(&k, &cfg)
		if err != nil {
			log.Print(err)
			return experiments.ExitFatal
		}
		res := traffic.Drive(&k, net, cfg.Cores, p, float64(pc)/100, cfg.Network.FlitBits,
			2000, 6000, 20000, cfg.Seed)
		fmt.Printf("%d,%d,%d,%.2f,%d,%d,%d,%d\n", pc, res.Injected, res.Delivered,
			res.Latency.Mean(), res.Latency.Percentile(50), res.Latency.Percentile(95),
			res.Latency.Percentile(99), res.Latency.Max())
	}
	fmt.Fprintln(os.Stderr, "done")
	return experiments.ExitOK
}
