// Run-event hooks: the campaign engine's push-style observability seam.
//
// The Runner's Progress callback emits human-oriented log lines; Events
// emits the same lifecycle as structured records, plus — when EpochCycles
// is set — live per-epoch progress sampled by the metrics layer while a
// simulation is still running. The serving daemon (internal/serve) fans
// these out to Server-Sent-Events subscribers; batch commands leave
// Events nil and pay nothing.
package experiments

import (
	"repro/internal/metrics"
	"repro/internal/system"
)

// RunEvent phases, in rough lifecycle order. A run emits either one
// terminal recall phase (cached, recalled) or a start/retry..done/failed
// sequence with optional epoch events in between; interrupted can end
// any of them.
const (
	PhaseStart       = "start"       // a fresh simulation attempt is beginning
	PhaseRetry       = "retry"       // a transiently failed run is re-attempting
	PhaseEpoch       = "epoch"       // one metrics epoch of a running simulation closed
	PhaseCached      = "cached"      // recalled from the persistent cache, no simulation
	PhaseRecalled    = "recalled"    // terminal failure replayed from the journal
	PhaseDone        = "done"        // simulation completed successfully
	PhaseFailed      = "failed"      // simulation terminally failed
	PhaseInterrupted = "interrupted" // campaign cancellation cut the run off
)

// RunEvent is one structured run-lifecycle record. Hash is the run's
// persistent identity (the same sha256 hex the cache and journal use), so
// consumers can correlate events across processes.
type RunEvent struct {
	Hash      string `json:"hash"`
	Benchmark string `json:"bench"`
	Config    string `json:"config"`
	Phase     string `json:"phase"`
	Attempt   int    `json:"attempt,omitempty"`
	// Epoch fields (Phase == PhaseEpoch): the closed epoch's index, the
	// simulated clock at its end, and cumulative retired instructions.
	Epoch        int     `json:"epoch,omitempty"`
	Cycles       uint64  `json:"cycles,omitempty"`
	Instructions uint64  `json:"instructions,omitempty"`
	WallMS       float64 `json:"wall_ms,omitempty"`
	Error        string  `json:"error,omitempty"`
}

// emitEvent delivers one event to the Events callback. Calls are
// serialized behind evMu so concurrent workers never interleave inside a
// consumer; a nil Events costs one nil check.
func (r *Runner) emitEvent(ev RunEvent) {
	if r.Events == nil {
		return
	}
	r.evMu.Lock()
	defer r.evMu.Unlock()
	r.Events(ev)
}

// observe attaches a metrics collector to a fresh simulation and fans each
// closed epoch out as a PhaseEpoch event — the path taken when live
// progress is wanted (EpochCycles > 0 and an Events consumer is attached).
// Chunked kernel execution is provably non-perturbing (see
// system.runKernel), so results are bit-identical to an unobserved run.
// Sharding composes: epochs are sampled at engine barriers (no shard is
// running while the collector reads), and the collector stamps time from
// the engine's global clock.
func (r *Runner) observe(sys *system.System, hash, bench, label string) {
	col := metrics.New(sys.Clock(), r.EpochCycles)
	sys.AttachMetrics(col)
	instrIx := col.ColIndex("core.instructions")
	var instr uint64
	col.Subscribe(func(i int, row metrics.Row) {
		if instrIx >= 0 {
			instr += uint64(row.Deltas[instrIx])
		}
		r.emitEvent(RunEvent{Hash: hash, Benchmark: bench, Config: label,
			Phase: PhaseEpoch, Epoch: i, Cycles: uint64(row.End), Instructions: instr})
	})
}
