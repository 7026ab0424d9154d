// Package system assembles the full simulated machine — cores, cache
// hierarchy, coherence directory, memory controllers and the selected
// on-chip network — and runs workload programs on it, producing the
// performance counters the energy model and the evaluation figures
// consume.
package system

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// System is one fully wired machine instance. Build one per run.
type System struct {
	K    *sim.Kernel
	Cfg  config.Config
	Net  noc.Network
	Atac *noc.Atac // non-nil when the network is ATAC/ATAC+
	Coh  *coherence.System
	Core []*cpu.Core

	// Shards is the effective shard count of the execution engine: 1 for
	// a serial machine (New), >1 when NewSharded partitioned it onto the
	// sharded engine.
	Shards int
	sh     *sim.Sharded // non-nil when Shards > 1
	eng    engine       // s.K (serial) or s.sh (sharded)

	// Observability (both nil unless AttachMetrics was called; a nil
	// collector keeps Run on the single-chunk fast path).
	metrics *metrics.Collector
	LatHist *metrics.Histogram // delivery-latency histogram, network-fed
}

// New builds a machine for the configuration.
func New(cfg config.Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{Cfg: cfg, K: &sim.Kernel{}, Shards: 1}
	s.eng = s.K
	var err error
	if s.Net, err = noc.New(s.K, &s.Cfg); err != nil {
		return nil, fmt.Errorf("system: %w", err)
	}
	s.Atac, _ = s.Net.(*noc.Atac)
	// Arm fault injection when configured. NewInjector returns nil for the
	// disabled (zero) Fault section, and the networks never consult a nil
	// injector, so fault-free runs are bit-identical to pre-fault builds.
	if inj := fault.NewInjector(cfg.Fault, cfg.Network.FlitBits, cfg.Seed, s.K); inj != nil {
		s.Net.(interface{ SetFaults(*fault.Injector) }).SetFaults(inj)
	}
	s.Coh = coherence.NewSystem(s.K, &s.Cfg, s.Net)
	s.Core = make([]*cpu.Core, cfg.Cores)
	for i := range s.Core {
		s.Core[i] = cpu.NewCore(i, s.K, s.Coh)
	}
	return s, nil
}

// Clock returns the machine's simulated clock: the serial kernel, or the
// sharded engine's global window clock when the machine was partitioned.
// Observers (the metrics collector) must stamp epochs from this, not from
// S.K — under sharding S.K is shard 0's kernel, whose local clock can lag
// the global one when the shard's queue drains early.
func (s *System) Clock() sim.Clock { return s.eng }

// Result captures one benchmark run.
type Result struct {
	Benchmark string
	Cfg       config.Config

	Cycles       sim.Time // completion time (last core's finish)
	Instructions uint64   // total retired instructions (= L1-I accesses)
	Finished     bool     // all cores completed before the horizon

	Coh coherence.Stats
	Net noc.Stats

	// ATAC-only link statistics (Table V).
	LinkUtilization  float64
	UnicastsPerBcast float64

	// Synth is set only by network-only synthetic-traffic runs (the
	// campaign engine's Fig-3-style path): latency statistics for the
	// measurement window. Application runs leave it nil.
	Synth *SynthStats `json:",omitempty"`
}

// SynthStats summarizes one network-only synthetic-traffic measurement
// window: the driven pattern, offered load, and the delivery-latency
// distribution. It rides inside Result so synthetic runs share the
// campaign engine's memo, persistent cache, and journal unchanged.
type SynthStats struct {
	Pattern   string
	Load      float64 // offered flits/cycle/core
	BcastFrac float64
	Injected  uint64
	Delivered uint64
	MeanLat   float64
	P50Lat    uint64
	P95Lat    uint64
	P99Lat    uint64
	MaxLat    uint64
}

// IPC returns average retired instructions per core-cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / (float64(r.Cycles) * float64(r.Cfg.Cores))
}

// OfferedLoad returns injected flits per cycle per core (Fig 6).
func (r *Result) OfferedLoad() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Net.InjectedFlits) / (float64(r.Cycles) * float64(r.Cfg.Cores))
}

// BroadcastRecvFraction returns the receiver-measured broadcast share of
// delivered traffic (Fig 5).
func (r *Result) BroadcastRecvFraction() float64 {
	tot := r.Net.BroadcastRecv + r.Net.UnicastRecv
	if tot == 0 {
		return 0
	}
	return float64(r.Net.BroadcastRecv) / float64(tot)
}

// ErrStalled marks a run halted by the progress watchdog; errors.Is lets
// a campaign layer classify the failure (deterministic — retrying cannot
// help) without parsing the per-core blocked-state report.
var ErrStalled = errors.New("watchdog stall")

// ErrRunCancelled marks a run halted by context cancellation — a per-run
// wall-clock deadline or a campaign-level interrupt. Unlike a watchdog or
// budget trip, cancellation is a host-side judgement: the simulation
// itself may be healthy, just slower than the caller will wait.
var ErrRunCancelled = errors.New("run cancelled")

// cancelPollEvents is how many kernel events execute between context
// checks under a cancellable context: frequent enough that a cancelled
// run stops within microseconds of wall clock, rare enough that the hot
// loop never notices.
const cancelPollEvents = 4096

// PollContext arms eng's cancellation poll on ctx: every cancelPollEvents
// executed events the engine checks ctx, and a cancelled (or expired)
// context halts it with ErrRunCancelled at the next event boundary. A
// context that can never be cancelled arms nothing, so the run stays on
// the poll-free path. Application runs (RunContext) and synthetic runs
// share it.
func PollContext(ctx context.Context, eng interface{ SetPoll(uint64, func() error) }) {
	if ctx.Done() == nil {
		return
	}
	eng.SetPoll(cancelPollEvents, func() error {
		if ctx.Err() != nil {
			return ErrRunCancelled
		}
		return nil
	})
}

// Run executes the benchmark to completion (or the horizon, whichever is
// first) and returns the measured counters. The spec's Init pre-loads the
// value store; Validate, if non-nil, is checked and its failure returned
// as an error.
func (s *System) Run(spec workload.Spec, horizon sim.Time) (Result, error) {
	return s.RunContext(context.Background(), spec, horizon)
}

// RunContext is Run under a context: when ctx is cancellable, the engine
// polls it (PollContext) and a cancellation (or deadline) halts even a
// livelocked simulation at the next event boundary, returning an error
// wrapping ErrRunCancelled and the context's cause. The poll composes
// with — and does not replace — the simulated health backstops (event
// budget, watchdog). Whichever stops the run first, the error names it.
func (s *System) RunContext(ctx context.Context, spec workload.Spec, horizon sim.Time) (Result, error) {
	if spec.Init != nil {
		spec.Init(s.Coh.Vals)
	}
	for _, c := range s.Core {
		defer c.Kill() // no coroutine outlives the run, however it ends (even a panic)
		c.Start(spec.Program, nil)
	}
	if horizon == 0 {
		horizon = sim.Forever
	}
	// Simulation health backstops: the event budget bounds total executed
	// events (livelock guard); runKernel's watchdog detects windows without
	// retired instructions or delivered flits (deadlock guard) and ends
	// the run with a per-core blocked-state report.
	if s.Cfg.Fault.EventBudget > 0 {
		s.eng.SetEventBudget(s.Cfg.Fault.EventBudget)
	}
	PollContext(ctx, s.eng)
	stop := s.runKernel(horizon)

	last, remaining := s.lastFinish()
	res := s.Counters()
	res.Benchmark, res.Cfg, res.Cycles, res.Finished = spec.Name, s.Cfg, last, remaining == 0
	if !res.Finished {
		// No core finished: the run's extent is the time actually
		// simulated, not the zero value of "last finish".
		if last == 0 {
			res.Cycles = s.eng.Now()
		}
		switch {
		case errors.Is(stop, ErrRunCancelled):
			return res, fmt.Errorf("system: %s: %w at cycle %d (%d instructions retired): %w",
				spec.Name, stop, s.eng.Now(), res.Instructions, context.Cause(ctx))
		case errors.Is(stop, sim.ErrEventBudget):
			return res, fmt.Errorf("system: %s: %w after %d events at cycle %d",
				spec.Name, stop, s.Cfg.Fault.EventBudget, s.eng.Now())
		case stop != nil: // the watchdog's stall report
			return res, fmt.Errorf("system: %s: %w", spec.Name, stop)
		}
		return res, fmt.Errorf("system: %s: %d cores unfinished at horizon %d", spec.Name, remaining, horizon)
	}
	if s.Atac != nil {
		res.LinkUtilization = s.Atac.LinkUtilization(res.Cycles)
		res.UnicastsPerBcast = s.Atac.UnicastsPerBroadcast()
	}
	if spec.Validate != nil {
		if err := spec.Validate(s.Coh.Vals); err != nil {
			return res, err
		}
	}
	return res, nil
}

// lastFinish returns the latest finish time among the cores that have
// finished and how many have not. Read it between engine Runs: under
// sharding, a shard's cores finish inside its window.
func (s *System) lastFinish() (last sim.Time, unfinished int) {
	for _, c := range s.Core {
		switch {
		case !c.Finished:
			unfinished++
		case c.FinishTime > last:
			last = c.FinishTime
		}
	}
	return last, unfinished
}

// runKernel executes the event loop up to horizon and returns the
// engine's stop cause or the watchdog's stall report. With no metrics
// collector and no watchdog this is one engine Run. With either, the
// engine stops at each epoch boundary (while a core is unfinished) and
// each watchdog check, and the observer reads the machine there: event
// execution order is identical (Run(t1);Run(t2) processes the same events
// in the same order as Run(t2)), so observing cannot perturb the run.
func (s *System) runKernel(horizon sim.Time) error {
	c, w := s.metrics, newWatchdog(s)
	c.Start()
	var err error
	for unfinished := len(s.Core); err == nil; {
		until := horizon
		if c != nil && unfinished > 0 {
			until = min(until, c.NextBoundary())
		}
		if w != nil {
			until = min(until, w.next)
		}
		s.eng.Run(until)
		_, unfinished = s.lastFinish()
		// A drained queue or the last core's finish ends an unwatched run;
		// a watchdog keeps checking through the drain and an idle deadlock.
		pending := s.eng.Pending() > 0
		if err = s.eng.Stopped(); err != nil || s.eng.Now() >= horizon ||
			!pending && unfinished == 0 || w == nil && (!pending || unfinished == 0) {
			break
		}
		if c != nil && unfinished > 0 && s.eng.Now() == c.NextBoundary() {
			c.Tick()
		}
		if w != nil && s.eng.Now() == w.next {
			err = w.check()
		}
	}
	// Close the final epoch at the run's end: the last core's finish
	// (Result.Cycles) once every core has finished, else where the clock
	// stopped. Events still queued at the finish drain first, so their
	// counts land in the final epoch but their cycles do not. The clock then
	// stands where Kernel.Run leaves it (at the horizon once the queue is
	// empty), with or without observers.
	end, unfinished := s.lastFinish()
	if unfinished > 0 {
		end = s.eng.Now()
	}
	if err == nil && (unfinished == 0 || s.eng.Pending() == 0) {
		s.eng.Run(horizon)
	}
	c.Finish(end)
	return err
}

// WorkloadFor resolves the named benchmark for a configuration.
func WorkloadFor(cfg config.Config, name string, scale int) (workload.Spec, error) {
	return workload.ByName(name, cfg.Cores, cfg.Seed, scale)
}

// RunBenchmark is the one-call convenience: build a machine for cfg and
// run the named workload at the given scale.
func RunBenchmark(cfg config.Config, name string, scale int, horizon sim.Time) (Result, error) {
	spec, err := WorkloadFor(cfg, name, scale)
	if err != nil {
		return Result{}, err
	}
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Run(spec, horizon)
}
