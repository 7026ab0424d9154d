// Command netsweep runs the network-only latency-vs-load sweeps of Fig 3:
// synthetic traffic with a configurable pattern and broadcast fraction,
// swept across offered loads for each routing scheme.
//
// The sweep runs through the cached campaign engine, like cmd/figures and
// cmd/sweep: points execute concurrently (up to -jobs), identical points
// are deduplicated, results persist in the on-disk cache, and every
// run-state transition is journaled next to it — so re-running a sweep
// recalls every point instead of re-simulating it.
//
// Usage:
//
//	netsweep -cores 256 -loads 0.01,0.05,0.1,0.2 -bcast 0.001
//	netsweep -pattern tornado -cache-dir /tmp/cache
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("netsweep: ")
	os.Exit(run())
}

func run() int {
	r := experiments.NewRunner(experiments.Options{})
	f := experiments.Flags{Geometry: experiments.Geometry{Cores: 64, Seed: 42}, Runner: r}
	f.Bind(flag.CommandLine, "cores", "seed", "jobs", "cache-dir", "no-cache", "q", "version")
	var (
		loadStr = flag.String("loads", "0.01,0.02,0.04,0.08,0.12,0.16", "offered loads, flits/cycle/core")
		bcast   = flag.Float64("bcast", 0.001, "broadcast fraction of injected messages")
		pattern = flag.String("pattern", "uniform", "traffic pattern: "+strings.Join(traffic.Patterns(), ", "))
		warmup  = flag.Uint64("warmup", 3000, "warmup cycles")
		measure = flag.Uint64("measure", 6000, "measurement cycles")
	)
	flag.Parse()
	if f.Version {
		fmt.Println(version.String())
		return 0
	}
	// The sweep runs on the campaign's ATAC+ machine: an impossible one
	// fails here, before any point is simulated.
	cfg, err := experiments.BuildConfig(f.Geometry)
	if err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}

	var loads []float64
	for _, s := range strings.Split(*loadStr, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			log.Printf("bad load %q: %v", s, err)
			return experiments.ExitFatal
		}
		loads = append(loads, v)
	}

	r.Opt = experiments.Options{Cores: f.Cores, Scale: 1, Seed: f.Seed}
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
	if !f.Quiet {
		r.Progress = func(s string) { fmt.Fprintln(os.Stderr, "  ...", s) }
	}
	ctx, stopSignals := r.InstallSignalHandler(15*time.Second, log.Printf)
	defer stopSignals()

	schemes := experiments.Fig3Schemes(cfg.MeshDim())
	sp := experiments.SynthSpec{
		Pattern:   *pattern,
		BcastFrac: *bcast,
		Warmup:    sim.Time(*warmup),
		Measure:   sim.Time(*measure),
	}
	// Declare the whole (scheme x load) run-set up front so the worker
	// pool is saturated; the table renders from warm memo/cache entries.
	// Per-point errors surface as comment rows below.
	_ = r.RunAll(ctx, r.SynthSpecs(schemes, loads, sp))

	fmt.Printf("%-10s", "load")
	for _, s := range schemes {
		fmt.Printf("  %14s", s.Name)
	}
	fmt.Println()
	for _, load := range loads {
		fmt.Printf("%-10.3f", load)
		pt := sp
		pt.Load = load
		var failures []string
		for _, sch := range schemes {
			res, err := r.RunSynthetic(r.SchemeConfig(sch), pt)
			if err != nil {
				fmt.Printf("  %14s", "—")
				failures = append(failures, fmt.Sprintf("%s: %v", sch.Name, err))
				continue
			}
			fmt.Printf("  %14.2f", res.Synth.MeanLat)
		}
		fmt.Println()
		for _, msg := range failures {
			fmt.Printf("# load %.3f %s\n", load, msg)
		}
	}
	if !f.Quiet {
		fmt.Fprintf(os.Stderr, "sweep: %d simulations run, %d recalled from cache\n",
			r.FreshRuns(), r.CacheHits())
	}
	return r.ExitCode()
}
