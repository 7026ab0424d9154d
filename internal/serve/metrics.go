// Hand-rolled Prometheus text exposition for the daemon. The repo takes
// no dependencies; the exposition format is simple enough to emit
// directly, and the scrape side (curl, Prometheus, the CI smoke test)
// only needs counters, gauges, and a small latency summary.
package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/resultstore"
	"repro/internal/version"
)

// latWindow is how many recent job durations the p50/p99 summary covers.
const latWindow = 1024

// metricsState aggregates the daemon's counters and the job-latency
// window. All fields are concurrency-safe.
type metricsState struct {
	submitted   atomic.Uint64 // every POST /v1/jobs that parsed
	coalesced   atomic.Uint64 // submits folded onto an existing job
	rejected    atomic.Uint64 // 429s: queue full
	done        atomic.Uint64
	failed      atomic.Uint64
	inflight    atomic.Uint64
	sseSubs     atomic.Uint64
	sseEvicted  atomic.Uint64 // stalled SSE subscribers evicted
	resumed     atomic.Uint64 // jobs re-enqueued from the ledger at startup
	orphaned    atomic.Uint64 // ledger jobs whose identity no longer resolves
	panics      atomic.Uint64 // panics recovered in HTTP handlers
	storeErrors atomic.Uint64 // job-store appends that failed a submission

	// Cluster counters (all zero when single-node).
	forwarded        atomic.Uint64 // submits relayed to the hash's owner
	forwardFailovers atomic.Uint64 // forwards that fell back to local execution
	receivedForwards atomic.Uint64 // submits received from a peer's forwarder
	cacheServes      atomic.Uint64 // cache entries served to peers
	cacheMisses      atomic.Uint64 // peer cache reads that missed
	cacheStores      atomic.Uint64 // replicated entries accepted from peers
	cacheRejects     atomic.Uint64 // replicated entries rejected as invalid

	latMu  sync.Mutex
	lats   [latWindow]float64 // seconds, ring buffer
	latN   uint64             // total observations
	latSum float64
}

// observe records one job's wall-clock duration.
func (m *metricsState) observe(d time.Duration) {
	s := d.Seconds()
	m.latMu.Lock()
	m.lats[m.latN%latWindow] = s
	m.latN++
	m.latSum += s
	m.latMu.Unlock()
}

// quantiles returns the p50 and p99 of the retained window plus the
// all-time sum and count.
func (m *metricsState) quantiles() (p50, p99, sum float64, n uint64) {
	m.latMu.Lock()
	defer m.latMu.Unlock()
	n, sum = m.latN, m.latSum
	k := int(n)
	if k > latWindow {
		k = latWindow
	}
	if k == 0 {
		return 0, 0, sum, n
	}
	w := make([]float64, k)
	copy(w, m.lats[:k])
	sort.Float64s(w)
	p50 = w[(k-1)*50/100]
	p99 = w[(k-1)*99/100]
	return p50, p99, sum, n
}

// write renders the exposition. Runner-level counters (fresh runs, cache
// hits) ride along so a scrape can compute the cache hit ratio and — as
// the CI smoke test does — prove that coalesced submissions cost one
// fresh simulation.
func (m *metricsState) write(w io.Writer, r *experiments.Runner, store *JobStore, queueDepth, queueCap int, cl *ClusterConfig) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	// Build info first: a constant gauge carrying the version tags, the
	// standard way to join any other series to "which build was this".
	fmt.Fprintf(w, "# HELP atacd_build_info Build and cache-schema identity of this daemon (constant 1).\n# TYPE atacd_build_info gauge\n")
	fmt.Fprintf(w, "atacd_build_info{version=%q,revision=%q,cache_schema=\"%d\"} 1\n",
		version.String(), version.Revision(), version.CacheSchema)
	counter("atacd_jobs_submitted_total", "Parsed job submissions.", m.submitted.Load())
	counter("atacd_jobs_coalesced_total", "Submissions folded onto an existing identical job.", m.coalesced.Load())
	counter("atacd_jobs_rejected_total", "Submissions rejected because the queue was full.", m.rejected.Load())
	counter("atacd_jobs_done_total", "Jobs completed successfully.", m.done.Load())
	counter("atacd_jobs_failed_total", "Jobs that terminally failed.", m.failed.Load())
	gauge("atacd_jobs_inflight", "Jobs currently executing.", int(m.inflight.Load()))
	gauge("atacd_queue_depth", "Jobs waiting for a worker.", queueDepth)
	gauge("atacd_queue_capacity", "Bounded queue capacity.", queueCap)
	gauge("atacd_sse_subscribers", "Open event-stream connections.", int(m.sseSubs.Load()))
	counter("atacd_sse_evicted_total", "Stalled event-stream subscribers evicted.", m.sseEvicted.Load())
	counter("atacd_jobs_resumed_total", "Jobs re-enqueued from the durable job store at startup.", m.resumed.Load())
	counter("atacd_jobs_orphaned_total", "Stored jobs whose identity no longer resolves.", m.orphaned.Load())
	counter("atacd_http_panics_total", "Panics recovered in HTTP handlers.", m.panics.Load())
	counter("atacd_store_errors_total", "Job-store appends that refused a submission.", m.storeErrors.Load())
	if store != nil {
		writable := 0
		if store.Writable() {
			writable = 1
		}
		gauge("atacd_store_writable", "Whether the job store can take an append (1) or not (0).", writable)
		gauge("atacd_store_pending", "Jobs accepted but not yet terminally settled in the store.", store.Pending())
	}

	if cl != nil {
		counter("atacd_cluster_forwarded_total", "Submits relayed to the owning peer.", m.forwarded.Load())
		counter("atacd_cluster_forward_failovers_total", "Submits executed locally because the owner was down or unreachable.", m.forwardFailovers.Load())
		counter("atacd_cluster_received_forwards_total", "Submits received from a peer's forwarder.", m.receivedForwards.Load())
		counter("atacd_cluster_cache_serves_total", "Result-cache entries served to peers.", m.cacheServes.Load())
		counter("atacd_cluster_cache_misses_total", "Peer result-cache reads that missed locally.", m.cacheMisses.Load())
		counter("atacd_cluster_cache_stores_total", "Replicated result entries accepted from peers.", m.cacheStores.Load())
		counter("atacd_cluster_cache_rejects_total", "Replicated result entries rejected as invalid.", m.cacheRejects.Load())
		if cl.Snapshot != nil {
			fmt.Fprintf(w, "# HELP atacd_peer_healthy Damped health-probe verdict per peer (1 healthy, 0 down).\n# TYPE atacd_peer_healthy gauge\n")
			for _, ph := range cl.Snapshot() {
				v := 0
				if ph.Healthy {
					v = 1
				}
				fmt.Fprintf(w, "atacd_peer_healthy{peer=%q} %d\n", ph.Peer, v)
			}
		}
	}
	if ts, ok := r.Store.(*resultstore.Tiered); ok && ts != nil {
		counter("atacd_resultstore_writebacks_total", "Peer-fetched results written back into the local cache.", ts.Writebacks())
		if ts.Remote != nil {
			counter("atacd_resultstore_peer_hits_total", "Result reads answered by a peer's cache.", ts.Remote.Hits())
			counter("atacd_resultstore_peer_misses_total", "Result reads no peer could answer.", ts.Remote.Misses())
			counter("atacd_resultstore_peer_errors_total", "Peer result reads that failed or returned invalid entries.", ts.Remote.Errors())
			counter("atacd_resultstore_peer_pushes_total", "Result entries replicated to peers.", ts.Remote.Pushes())
			counter("atacd_resultstore_peer_push_errors_total", "Result replication attempts that failed.", ts.Remote.PushErrors())
		}
	}

	fresh, hits := r.FreshRuns(), r.CacheHits()
	counter("atacd_runner_fresh_runs_total", "Simulations started by the campaign engine, including ones in flight, failed or interrupted.", fresh)
	counter("atacd_runner_cache_hits_total", "Runs recalled from the persistent cache.", hits)
	counter("atacd_runner_recalled_failures_total", "Terminal failures replayed from the journal.", r.RecalledFailures())
	ratio := 0.0
	if fresh+hits > 0 {
		ratio = float64(hits) / float64(fresh+hits)
	}
	fmt.Fprintf(w, "# HELP atacd_cache_hit_ratio Cache hits over cache hits plus fresh runs.\n# TYPE atacd_cache_hit_ratio gauge\natacd_cache_hit_ratio %g\n", ratio)

	p50, p99, sum, n := m.quantiles()
	fmt.Fprintf(w, "# HELP atacd_job_duration_seconds Job wall-clock duration (window of last %d jobs).\n# TYPE atacd_job_duration_seconds summary\n", latWindow)
	fmt.Fprintf(w, "atacd_job_duration_seconds{quantile=\"0.5\"} %g\n", p50)
	fmt.Fprintf(w, "atacd_job_duration_seconds{quantile=\"0.99\"} %g\n", p99)
	fmt.Fprintf(w, "atacd_job_duration_seconds_sum %g\n", sum)
	fmt.Fprintf(w, "atacd_job_duration_seconds_count %d\n", n)
}
