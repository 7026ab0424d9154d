package main

// The metric tables. BENCHMARK.json repeats names, units, directions and
// bounds (bench_test.go checks the two agree); the "moves" column only
// lives here and in README.md because BENCHMARK.json's schema has no
// field for it.

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Moves names the end-to-end metric and workload this layer metric is
	// expected to move ("⊘ w" = predicted not to move on workload w).
	Moves string
}

// endToEnd is what a user of the simulator, the campaign engine or atacd
// waits for or pays. Every workload reports all of them, untraced.
//
// ISSUE 12 also lists `ops` and `fail_frac`; the result line's
// attempted/failed/correct fields carry them (fail_frac is always 0 on a
// passing run, which the benchmark contract forbids for a gated metric).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_kcycles_per_s", Unit: "kcycles/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "sim_cycles", Unit: "cycles", Better: "lower", Bound: 0.03},
	{Name: "sim_edp_js", Unit: "J.s", Better: "lower", Bound: 0.03},
	{Name: "sim_flits", Unit: "flits", Better: "lower", Bound: 0.03},
}

// perLayer is reported by the traced run only and is never gated. A
// metric whose layer is not on the workload's path reads 0 there.
var perLayer = []metricDef{
	{Name: "config.build_us", Unit: "us", Better: "lower", Moves: "setup_s all"},
	{Name: "workload.build_ms", Unit: "ms", Better: "lower", Moves: "op_s paper-1024"},
	{Name: "system.new_ms", Unit: "ms", Better: "lower", Moves: "op_s paper-1024"},
	{Name: "system.new_sharded_ms", Unit: "ms", Better: "lower", Moves: "op_s shards2-256"},
	{Name: "system.run_s", Unit: "s", Better: "lower", Moves: "op_s paper-1024 corona-256 shards2-256"},
	{Name: "system.result_digest48", Unit: "count", Better: "lower", Moves: "exact; any change means the model changed"},

	{Name: "cpu.compute_op_ns", Unit: "ns", Better: "lower", Moves: "op_s op_cpu_s paper-1024 corona-256 campaign-64; ⊘ synth-mesh-256"},
	{Name: "cpu.sys_cpu_frac", Unit: "fraction", Better: "lower", Moves: "op_cpu_s paper-1024"},
	{Name: "cpu.goroutines_peak", Unit: "count", Better: "lower", Moves: "peak_rss_mb paper-1024"},

	{Name: "coherence.l1hit_op_ns", Unit: "ns", Better: "lower", Moves: "op_s app workloads; ⊘ synth-mesh-256"},
	{Name: "coherence.miss_op_ns", Unit: "ns", Better: "lower", Moves: "op_s app workloads; ⊘ synth-mesh-256"},
	{Name: "coherence.l1d_miss_frac", Unit: "fraction", Better: "lower", Moves: "sim_cycles (exact)"},
	{Name: "coherence.inv_bcast_per_kinstr", Unit: "1/kinstr", Better: "lower", Moves: "sim_cycles (exact)"},
	{Name: "coherence.dir_accesses", Unit: "count", Better: "lower", Moves: "sim_cycles (exact)"},
	{Name: "coherence.mem_reads", Unit: "count", Better: "lower", Moves: "sim_cycles (exact)"},

	{Name: "noc.mesh_ns_per_flit_hop", Unit: "ns", Better: "lower", Moves: "op_s synth-mesh-256 campaign-64"},
	{Name: "noc.mesh_bcast_ns_per_msg", Unit: "ns", Better: "lower", Moves: "op_s synth-mesh-256 campaign-64"},
	{Name: "noc.atac_ns_per_msg", Unit: "ns", Better: "lower", Moves: "op_s paper-1024 shards2-256"},
	{Name: "noc.atac_allocs_per_msg", Unit: "count", Better: "lower", Moves: "op_s paper-1024 shards2-256"},
	{Name: "noc.corona_ns_per_msg", Unit: "ns", Better: "lower", Moves: "op_s corona-256 only"},
	{Name: "noc.corona_allocs_per_msg", Unit: "count", Better: "lower", Moves: "op_s corona-256 only"},
	{Name: "noc.corona_token_wait_per_grant", Unit: "cycles", Better: "lower", Moves: "sim_cycles corona-256 (exact)"},
	{Name: "noc.hybrid_ns_per_msg", Unit: "ns", Better: "lower", Moves: "op_s campaign-64"},
	{Name: "noc.hybrid_express_frac", Unit: "fraction", Better: "higher", Moves: "sim_cycles campaign-64 (exact)"},
	{Name: "noc.avg_latency_cycles", Unit: "cycles", Better: "lower", Moves: "sim_cycles (exact)"},
	{Name: "noc.mesh_link_flits", Unit: "flits", Better: "lower", Moves: "sim_edp_js (exact)"},
	{Name: "noc.hub_flits", Unit: "flits", Better: "lower", Moves: "sim_edp_js (exact)"},

	{Name: "sim.kernel_ns_per_event", Unit: "ns", Better: "lower", Moves: "op_s every workload that simulates"},
	{Name: "sim.kernel_far_ns_per_event", Unit: "ns", Better: "lower", Moves: "op_s every workload that simulates"},
	{Name: "sim.sharded2_ns_per_window", Unit: "ns", Better: "lower", Moves: "op_s shards2-256 only; ⊘ serial workloads"},
	{Name: "sim.shards2_speedup", Unit: "ratio", Better: "higher", Moves: "op_s shards2-256 only"},
	{Name: "sim.shards2_cpu_ratio", Unit: "ratio", Better: "lower", Moves: "op_cpu_s shards2-256 only"},

	{Name: "fault.ber_run_s", Unit: "s", Better: "lower", Moves: "no end-to-end workload; guards the retransmit path"},
	{Name: "fault.retx_flits", Unit: "flits", Better: "lower", Moves: "exact"},

	{Name: "metrics.epoch_overhead_frac", Unit: "fraction", Better: "lower", Moves: "op_s serve-rtt; ⊘ all others (nil collector)"},

	{Name: "energy.build_us", Unit: "us", Better: "lower", Moves: "setup_s all"},
	{Name: "energy.photonics_solve_us", Unit: "us", Better: "lower", Moves: "setup_s all"},
	{Name: "energy.combine_ns", Unit: "ns", Better: "lower", Moves: "op_s campaign-64 (render)"},

	{Name: "experiments.render_ms", Unit: "ms", Better: "lower", Moves: "op_s campaign-64"},
	{Name: "experiments.cache_put_us", Unit: "us", Better: "lower", Moves: "op_s campaign-64 serve-rtt; ⊘ paper-1024"},
	{Name: "experiments.cache_get_us", Unit: "us", Better: "lower", Moves: "op_s campaign-64 serve-rtt; ⊘ paper-1024"},
	{Name: "experiments.journal_append_us", Unit: "us", Better: "lower", Moves: "op_s campaign-64 serve-rtt; ⊘ paper-1024"},
	{Name: "experiments.journal_open_ms", Unit: "ms", Better: "lower", Moves: "setup_s campaign-64 serve-rtt"},
	{Name: "experiments.memo_hit_ns", Unit: "ns", Better: "lower", Moves: "op_s campaign-64 (render)"},
	{Name: "experiments.warm_pass_ms", Unit: "ms", Better: "lower", Moves: "campaign-64 warm phase"},
	{Name: "experiments.warm_pass_p90_ms", Unit: "ms", Better: "lower", Moves: "campaign-64 warm phase"},
	{Name: "experiments.warm_fresh_runs", Unit: "count", Better: "lower", Moves: "exact 0"},
	{Name: "experiments.run_overhead_frac", Unit: "fraction", Better: "lower", Moves: "op_s campaign-64"},
	{Name: "experiments.jobs2_speedup", Unit: "ratio", Better: "higher", Moves: "none gated: needs both vCPUs, does not repeat here"},

	{Name: "resultstore.tiered_local_get_us", Unit: "us", Better: "lower", Moves: "op_s serve-rtt"},
	{Name: "resultstore.peer_get_us", Unit: "us", Better: "lower", Moves: "op_s serve-rtt once clustered"},
	{Name: "resultstore.peer_put_us", Unit: "us", Better: "lower", Moves: "op_s serve-rtt once clustered"},

	{Name: "serve.warm_rtt_p50_us", Unit: "us", Better: "lower", Moves: "serve-rtt warm phase"},
	{Name: "serve.warm_rtt_p99_us", Unit: "us", Better: "lower", Moves: "serve-rtt warm phase"},
	{Name: "serve.warm_ops_per_s", Unit: "1/s", Better: "higher", Moves: "serve-rtt warm phase"},
	{Name: "serve.handler_submit_us", Unit: "us", Better: "lower", Moves: "op_cpu_s serve-rtt"},
	{Name: "serve.handler_result_us", Unit: "us", Better: "lower", Moves: "op_cpu_s serve-rtt"},
	{Name: "serve.cold_overhead_ms", Unit: "ms", Better: "lower", Moves: "op_s serve-rtt; ⊘ all others"},
	{Name: "serve.sse_first_event_ms", Unit: "ms", Better: "lower", Moves: "op_s serve-rtt"},
	{Name: "serve.poll_wait_rtt_ms", Unit: "ms", Better: "lower", Moves: "none gated: the 200 ms poll quantum"},
	{Name: "serve.ledger_accept_us", Unit: "us", Better: "lower", Moves: "op_s serve-rtt"},
	{Name: "serve.coalesced", Unit: "count", Better: "higher", Moves: "exact"},
	{Name: "serve.rejected_429", Unit: "count", Better: "lower", Moves: "exact 0"},

	{Name: "cluster.ring_owner_ns", Unit: "ns", Better: "lower", Moves: "op_s serve-rtt once clustered"},
	{Name: "cluster.forward_warm_rtt_us", Unit: "us", Better: "lower", Moves: "op_s serve-rtt once clustered"},

	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "op_s peak_rss_mb"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "op_s"},
	{Name: "runtime.alloc_mb_per_op", Unit: "MB", Better: "lower", Moves: "op_s peak_rss_mb"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower", Moves: "peak_rss_mb"},

	{Name: "share.cpu", Unit: "fraction", Better: "lower", Moves: "op_s: at most this share"},
	{Name: "share.coherence", Unit: "fraction", Better: "lower", Moves: "op_s: at most this share"},
	{Name: "share.noc", Unit: "fraction", Better: "lower", Moves: "op_s: at most this share"},
	{Name: "share.sim", Unit: "fraction", Better: "lower", Moves: "op_s: at most this share"},
	{Name: "share.system", Unit: "fraction", Better: "lower", Moves: "op_s: at most this share"},
	{Name: "share.workload", Unit: "fraction", Better: "lower", Moves: "op_s: at most this share"},
	{Name: "share.experiments", Unit: "fraction", Better: "lower", Moves: "op_s: at most this share"},
	{Name: "share.serve", Unit: "fraction", Better: "lower", Moves: "op_s: at most this share"},
	{Name: "share.runtime_sched", Unit: "fraction", Better: "lower", Moves: "op_s op_cpu_s: may exceed its share (idle-P spinning)"},
	{Name: "share.runtime_chan", Unit: "fraction", Better: "lower", Moves: "op_s: at most this share"},
	{Name: "share.runtime_gc", Unit: "fraction", Better: "lower", Moves: "op_s: at most this share"},
	{Name: "share.other", Unit: "fraction", Better: "lower", Moves: "op_s: at most this share"},

	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower", Moves: "none: traced op_s / untraced op_s - 1"},
}

// values is one run's metric readings by name.
type values map[string]float64
