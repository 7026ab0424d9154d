package system

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runWithMetrics executes one 16-core benchmark with a collector attached
// and returns everything the assertions need.
func runWithMetrics(t *testing.T, kind config.NetworkKind, epoch sim.Time, ring *trace.Ring) (*System, *metrics.Collector, Result) {
	t.Helper()
	cfg := config.Tiny().WithNetwork(kind)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ring != nil {
		sys.Coh.Tracer = ring
	}
	col := metrics.New(sys.K, epoch)
	sys.AttachMetrics(col)
	spec, err := WorkloadFor(cfg, "radix", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sys, col, res
}

// TestMetricsReconcileWithResult asserts the tentpole invariant: the sum
// of every per-epoch counter delta equals the run's end-of-run aggregate.
// The epoch series is then a lossless refinement of the figures' counters.
func TestMetricsReconcileWithResult(t *testing.T) {
	sys, col, res := runWithMetrics(t, config.ATACPlus, 5000, nil)

	if len(col.Rows()) < 2 {
		t.Fatalf("expected multiple epochs, got %d", len(col.Rows()))
	}
	checks := []struct {
		col  string
		want float64
	}{
		{"core.instructions", float64(res.Instructions)},
		{"noc.delivered", float64(res.Net.Delivered)},
		{"noc.unicast_recv", float64(res.Net.UnicastRecv)},
		{"noc.bcast_recv", float64(res.Net.BroadcastRecv)},
		{"noc.injected_flits", float64(res.Net.InjectedFlits)},
		{"noc.latency_sum", float64(res.Net.LatencySum)},
		{"noc.latency_count", float64(res.Net.LatencyCount)},
		{"coh.l1d_misses", float64(res.Coh.L1DMisses)},
		{"coh.dir_accesses", float64(res.Coh.DirAccesses)},
		{"coh.inv_bcasts", float64(res.Coh.InvBroadcasts)},
		{"onet.busy_cycles", float64(sys.Atac.BusyCycles())},
		{"onet.uni_flits", float64(res.Net.ONetUniFlits)},
	}
	for _, c := range checks {
		if got := col.Total(c.col); got != c.want {
			t.Errorf("epoch sum of %s = %g, want %g", c.col, got, c.want)
		}
	}
	// The latency histogram rides the same delivery path as the
	// aggregate latency counters: identical observation counts.
	if got, want := sys.LatHist.Total(), res.Net.LatencyCount; got != want {
		t.Errorf("latency histogram total = %d, want %d", got, want)
	}
	// Epochs tile simulated time with no gaps.
	rows := col.Rows()
	for i := 1; i < len(rows); i++ {
		if rows[i].Start != rows[i-1].End {
			t.Errorf("epoch %d starts at %d, previous ended at %d", i, rows[i].Start, rows[i-1].End)
		}
	}
}

// TestMetricsDoNotPerturbSimulation runs the identical workload with and
// without a collector: the chunked kernel driving must produce the exact
// same result as the monolithic run — metrics observe, never interfere.
func TestMetricsDoNotPerturbSimulation(t *testing.T) {
	for _, kind := range []config.NetworkKind{config.ATACPlus, config.EMeshBCast, config.EMeshPure} {
		cfg := config.Tiny().WithNetwork(kind)
		run := func(attach bool) Result {
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if attach {
				sys.AttachMetrics(metrics.New(sys.K, 1000))
			}
			spec, err := WorkloadFor(cfg, "radix", 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		plain, observed := run(false), run(true)
		if !reflect.DeepEqual(plain, observed) {
			t.Errorf("%v: metrics changed the simulation:\nplain:    %+v\nobserved: %+v", kind, plain, observed)
		}
	}
}

// TestTraceAndMetricsShareTimeSource asserts the dedup fix: the trace
// ring's entries and the collector's epochs are stamped from the one
// kernel clock, so their sim.Time axes agree — every trace entry falls
// inside the run's epoch span and entry order matches time order.
func TestTraceAndMetricsShareTimeSource(t *testing.T) {
	ring := trace.New(512)
	sys, col, _ := runWithMetrics(t, config.ATACPlus, 5000, ring)

	if ring.Clock() != sim.Clock(sys.K) {
		t.Fatal("ring bound to a clock other than the kernel")
	}
	rows := col.Rows()
	if len(rows) == 0 || ring.Total() == 0 {
		t.Fatal("expected both epochs and trace entries")
	}
	span := rows[len(rows)-1].End
	var prev sim.Time
	for i, e := range ring.Entries() {
		if e.At < prev {
			t.Fatalf("trace entry %d at %d precedes predecessor at %d", i, e.At, prev)
		}
		prev = e.At
		if e.At > span {
			t.Fatalf("trace entry at %d beyond the final epoch end %d", e.At, span)
		}
		// Each entry lands in exactly one epoch of the contiguous tiling.
		found := false
		for _, r := range rows {
			if e.At >= r.Start && e.At < r.End || (e.At == span && r.End == span) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("trace entry at %d falls in no epoch", e.At)
		}
	}
}

// TestMetricsOnWedgedRun exercises the chunk loop's non-drain exits: a
// horizon cut must still close the final partial epoch at the cut.
func TestMetricsOnWedgedRun(t *testing.T) {
	cfg := config.Tiny().WithNetwork(config.ATACPlus)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.New(sys.K, 1000)
	sys.AttachMetrics(col)
	spec, err := WorkloadFor(cfg, "radix", 1)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 2500 // far below the ~50k-cycle completion
	if _, err := sys.Run(spec, horizon); err == nil {
		t.Fatal("expected unfinished-at-horizon error")
	}
	rows := col.Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (two full epochs + the cut)", len(rows))
	}
	if rows[2].End != horizon {
		t.Errorf("final epoch ends at %d, want the horizon %d", rows[2].End, horizon)
	}
}
