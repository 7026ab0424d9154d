// Command validate runs the full correctness matrix: every workload
// (including the extension kernels) on every network architecture and both
// coherence protocols, each validated against its sequential reference.
// Every machine is resolved through experiments.BuildConfig, like every
// other front end's. It is the repository's end-to-end health check.
//
// Usage:
//
//	validate              # 16-core matrix, 120 combinations
//	validate -cores 64    # larger machines, same matrix
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/system"
	"repro/internal/version"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("validate: ")

	f := experiments.Flags{Geometry: experiments.Geometry{Cores: 16, Seed: 42},
		Runner: &experiments.Runner{Opt: experiments.Options{Scale: 1}}}
	f.Bind(flag.CommandLine, "cores", "seed", "scale", "version")
	flag.Parse()

	if f.Version {
		fmt.Println(version.String())
		return
	}

	networks := []config.NetworkKind{config.EMeshPure, config.EMeshBCast, config.ATAC,
		config.ATACPlus, config.Corona, config.HybridMesh}
	protocols := []config.CoherenceKind{config.ACKwise, config.DirKB}

	var pass, fail int
	start := time.Now()
	for _, spec := range workload.ExtendedCatalog(f.Cores, f.Seed, f.Runner.Opt.Scale) {
		for _, nk := range networks {
			for _, ck := range protocols {
				g := f.Geometry
				g.Net, g.Coherence = nk.String(), ck.String()
				cfg, err := experiments.BuildConfig(g)
				if err != nil {
					log.Fatal(err)
				}
				sys, err := system.New(cfg)
				if err != nil {
					log.Fatal(err)
				}
				res, err := sys.Run(spec, 500_000_000)
				status := "PASS"
				if err != nil {
					status = "FAIL: " + err.Error()
					fail++
				} else {
					pass++
				}
				fmt.Printf("%-16s %-12v %-8v cycles=%-9d %s\n",
					spec.Name, nk, ck, res.Cycles, status)
			}
		}
	}
	fmt.Printf("\n%d passed, %d failed in %v\n", pass, fail, time.Since(start).Round(time.Second))
	if fail > 0 {
		os.Exit(1)
	}
}
