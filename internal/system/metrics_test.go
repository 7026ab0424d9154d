package system

import (
	"reflect"
	"strings"
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

// TestMetricsReconcileWithResult asserts the tentpole invariant on the
// three optical fabrics and the broadcast mesh: every column's epoch
// deltas sum exactly to its end-of-run value. A column named by a Result
// field path sums to that field, and every Result counter has one; the
// rest are core.finished (the core count), ATAC's onet.busy_cycles and the
// latency histogram (one observation per delivery). The epoch series is
// then a lossless refinement of the figures' counters.
func TestMetricsReconcileWithResult(t *testing.T) {
	for _, kind := range []config.NetworkKind{config.ATACPlus, config.Corona, config.HybridMesh, config.EMeshBCast} {
		sys, col, res := runWithMetrics(t, kind, 5000, nil)
		rows := col.Rows()
		if len(rows) < 2 {
			t.Fatalf("%v: expected multiple epochs, got %d", kind, len(rows))
		}
		counters, lat, totals := 0, 0.0, col.Totals()
		for i, name := range col.Columns() {
			got := totals[i]
			var want float64
			if f := resultField(res, name); f.IsValid() {
				counters++
				want = float64(f.Uint())
			} else if strings.HasPrefix(name, "lat.") {
				lat += got
				continue
			} else if name == "core.finished" {
				want = float64(res.Cfg.Cores)
			} else if name == "onet.busy_cycles" && sys.Atac != nil {
				want = float64(sys.Atac.BusyCycles())
			} else {
				t.Errorf("%v: column %s reconciles with nothing", kind, name)
				continue
			}
			if got != want {
				t.Errorf("%v: epoch sum of %s = %g, want %g", kind, name, got, want)
			}
		}
		if want := 1 + reflect.TypeOf(res.Coh).NumField() + reflect.TypeOf(res.Net).NumField(); counters != want {
			t.Errorf("%v: %d columns are Result counters, want %d", kind, counters, want)
		}
		// The latency histogram rides the same delivery path as the
		// aggregate latency counters: identical observation counts.
		if lat != float64(res.Net.LatencyCount) || sys.LatHist.Total() != res.Net.LatencyCount {
			t.Errorf("%v: latency histogram epochs sum to %g, total %d, want %d",
				kind, lat, sys.LatHist.Total(), res.Net.LatencyCount)
		}
		// Epochs tile simulated time with no gaps, up to the run's last cycle.
		for i := 1; i < len(rows); i++ {
			if rows[i].Start != rows[i-1].End {
				t.Errorf("%v: epoch %d starts at %d, previous ended at %d", kind, i, rows[i].Start, rows[i-1].End)
			}
		}
		if end := rows[len(rows)-1].End; end != res.Cycles {
			t.Errorf("%v: final epoch ends at %d, the run took %d cycles", kind, end, res.Cycles)
		}
	}
}

// resultField resolves a column name as a Result field path ("Coh.L2Misses");
// the zero Value when the name is no uint64 field of Result.
func resultField(res Result, name string) reflect.Value {
	v := reflect.ValueOf(res)
	for _, part := range strings.Split(name, ".") {
		if v.Kind() != reflect.Struct {
			return reflect.Value{}
		}
		if v = v.FieldByName(part); !v.IsValid() {
			return v
		}
	}
	if v.Kind() != reflect.Uint64 {
		return reflect.Value{}
	}
	return v
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
