// Package repro is the public facade of the ATAC+ cross-layer evaluation
// framework: a from-scratch reproduction of "Cross-layer Energy and
// Performance Evaluation of a Nanophotonic Manycore Processor System Using
// Real Application Workloads" (IPDPS 2012).
//
// The framework couples an execution-driven 1000-core architectural
// simulator (cores, private caches, ACKwise/Dir_kB coherence, cycle-level
// electrical and optical networks) with DSENT/McPAT-style energy and area
// models, and regenerates every table and figure of the paper's
// evaluation.
//
// Quick start:
//
//	cfg := repro.SmallConfig()            // 64-core ATAC+, 16 clusters of 4; DefaultConfig is the paper's 1024
//	res, err := repro.RunBenchmark(cfg, "radix", 1)
//	bd, err2 := repro.EnergyOf(res)       // component energy breakdown
//
// The experiment harness behind the paper's figures is exposed through
// NewCampaign; see cmd/figures for end-to-end usage.
package repro

import (
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/system"
)

// Re-exported core types.
type (
	// Config is the full system configuration (Tables I-IV).
	Config = config.Config
	// Result is the measured outcome of one benchmark run.
	Result = system.Result
	// Breakdown is a component-level energy breakdown in joules.
	Breakdown = energy.Breakdown
	// Area is a die-area breakdown in mm².
	Area = energy.Area
	// Campaign memoizes runs and regenerates the paper's figures.
	Campaign = experiments.Runner
	// CampaignOptions scopes a figure-regeneration campaign.
	CampaignOptions = experiments.Options
	// FigureTable is a printable experiment result.
	FigureTable = experiments.Table
)

// Network architecture selectors.
const (
	EMeshPure  = config.EMeshPure
	EMeshBCast = config.EMeshBCast
	ATAC       = config.ATAC
	ATACPlus   = config.ATACPlus
)

// DefaultConfig returns the paper's 1024-core ATAC+ configuration.
func DefaultConfig() Config { return config.Default() }

// SmallConfig returns a 64-core ATAC+ configuration for quick experiments:
// config.Small(), which is config.Sized(64, 2), 16 clusters of 4 cores. It
// is not the machine `-cores 64` builds in the front ends: BuildConfig
// picks config.Sized(64, 4), 4 clusters of 16.
func SmallConfig() Config { return config.Small() }

// Benchmarks lists the eight evaluation applications.
func Benchmarks() []string { return append([]string(nil), experiments.Benchmarks...) }

// RunBenchmark builds a machine for cfg and runs the named benchmark at
// the given problem scale (1 = default), returning its measurements.
func RunBenchmark(cfg Config, name string, scale int) (Result, error) {
	return system.RunBenchmark(cfg, name, scale, 0)
}

// EnergyOf combines a run's counters with the device models of its own
// configuration into a component energy breakdown.
func EnergyOf(res Result) (Breakdown, error) {
	m, err := energy.Build(res.Cfg)
	if err != nil {
		return Breakdown{}, err
	}
	return energy.Combine(m, res), nil
}

// EDPOf returns a run's energy-delay product in joule-seconds.
func EDPOf(res Result) (float64, error) {
	m, err := energy.Build(res.Cfg)
	if err != nil {
		return 0, err
	}
	return energy.EDP(m, res), nil
}

// AreaOf returns the die area breakdown for a configuration.
func AreaOf(cfg Config) (Area, error) {
	m, err := energy.Build(cfg)
	if err != nil {
		return Area{}, err
	}
	return energy.ComputeArea(m), nil
}

// NewCampaign builds a memoizing figure-regeneration campaign.
func NewCampaign(o CampaignOptions) *Campaign { return experiments.NewRunner(o) }

// DefaultCampaignOptions returns the default campaign scale: 64 cores.
// Set its Cores to 1024 for the paper's geometry.
func DefaultCampaignOptions() CampaignOptions { return experiments.DefaultOptions() }
