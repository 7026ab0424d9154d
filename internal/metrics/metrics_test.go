package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

// fakeClock is a manually advanced sim.Clock.
type fakeClock struct{ now sim.Time }

func (c *fakeClock) Now() sim.Time { return c.now }

func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	h.Observe(0) // bucket 0
	h.Observe(1) // bucket 0 (le4 covers small values)
	h.Observe(1 << 30)
	h.Observe(^uint64(0)) // clamps to the last bucket
	if got := h.Total(); got != 4 {
		t.Fatalf("Total = %d, want 4", got)
	}
	if h.Counts[HistBuckets-1] != 2 {
		t.Errorf("last bucket = %d, want 2 (1<<30 and max both clamp or land high)", h.Counts[HistBuckets-1])
	}
	// Every observation must land in a bucket whose bounds contain it.
	var h2 Histogram
	for _, v := range []uint64{0, 1, 3, 4, 5, 100, 4095, 4096, 1 << 19} {
		before := h2.Counts
		h2.Observe(v)
		for i := range h2.Counts {
			if h2.Counts[i] == before[i] {
				continue
			}
			lo, hi := BucketBounds(i)
			if v < lo || v > hi {
				t.Errorf("Observe(%d) landed in bucket %d [%d,%d]", v, i, lo, hi)
			}
		}
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(7) // must not panic
	if h.Total() != 0 {
		t.Fatal("nil histogram total")
	}
}

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	c.AddSource("x", []string{"a"}, func([]float64) {})
	c.AddDerived("d", nil)
	c.Start()
	c.Tick()
	c.Finish(0)
	if c.Rows() != nil || c.Totals() != nil || c.Columns() != nil {
		t.Fatal("nil collector returned data")
	}
	if c.Epoch() != 0 || c.ColIndex("x.a") != -1 || c.Total("x.a") != 0 {
		t.Fatal("nil collector accessor")
	}
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil collector CSV")
	}
	if err := c.WriteJSON(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil collector JSON")
	}
	if err := c.WriteChromeTrace(&buf, "p", nil); err != nil || buf.Len() != 0 {
		t.Fatal("nil collector trace")
	}
}

// buildCollector wires a collector over two fake cumulative counters and
// advances them across three epochs (the last one partial).
func buildCollector(t *testing.T) (*Collector, *fakeClock, *[2]uint64) {
	t.Helper()
	clk := &fakeClock{}
	var counters [2]uint64
	c := New(clk, 100)
	c.AddSource("a", []string{"x", "y"}, func(v []float64) {
		v[0] = float64(counters[0])
		v[1] = float64(counters[1])
	})
	c.AddDerived("x_rate", func(d []float64, cyc float64) float64 { return d[0] / cyc })
	return c, clk, &counters
}

func TestCollectorReconciliation(t *testing.T) {
	c, clk, counters := buildCollector(t)
	counters[0], counters[1] = 5, 7 // pre-Start activity is baseline, not delta
	c.Start()

	counters[0] += 10
	clk.now = 100
	c.Tick()
	counters[0] += 20
	counters[1] += 3
	clk.now = 200
	c.Tick()
	counters[0]++
	clk.now = 250 // partial final epoch
	c.Finish(clk.now)

	rows := c.Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// Epochs tile the run contiguously.
	for i := 1; i < len(rows); i++ {
		if rows[i].Start != rows[i-1].End {
			t.Errorf("gap between epoch %d and %d: %d != %d", i-1, i, rows[i-1].End, rows[i].Start)
		}
	}
	if rows[2].End != 250 {
		t.Errorf("final epoch end = %d, want 250", rows[2].End)
	}
	// The reconciliation invariant: column sums equal cumulative growth
	// since Start.
	if got := c.Total("a.x"); got != 31 {
		t.Errorf("sum a.x = %g, want 31", got)
	}
	if got := c.Total("a.y"); got != 3 {
		t.Errorf("sum a.y = %g, want 3", got)
	}
	if tot := c.Totals(); tot[c.ColIndex("a.x")] != 31 {
		t.Errorf("Totals = %v", tot)
	}
}

// TestFinishBeforeClock: a run whose last events drain after its end
// closes the final epoch at that end, not at the clock. The tail's counts
// still land in the final epoch, and a time-proportional source sampled
// through SampleTime stops at the end.
func TestFinishBeforeClock(t *testing.T) {
	clk := &fakeClock{}
	var events uint64
	c := New(clk, 100)
	c.AddSource("a", []string{"events", "cycles"}, func(v []float64) {
		v[0], v[1] = float64(events), float64(c.SampleTime())
	})
	c.Start()
	events, clk.now = 3, 100
	c.Tick()
	events, clk.now = 5, 200 // the run ended at 140; its tail drained until 200
	c.Finish(140)

	rows := c.Rows()
	if len(rows) != 2 || rows[1].Start != 100 || rows[1].End != 140 {
		t.Fatalf("rows = %+v, want [0,100) and [100,140)", rows)
	}
	if got := c.Total("a.events"); got != 5 {
		t.Errorf("sum a.events = %g, want 5", got)
	}
	if got := c.Total("a.cycles"); got != 140 {
		t.Errorf("sum a.cycles = %g, want 140", got)
	}
}

func TestCollectorZeroElapsedTickFolds(t *testing.T) {
	c, clk, counters := buildCollector(t)
	c.Start()
	c.Tick() // no time elapsed: must not record a zero-length row
	counters[0] = 4
	clk.now = 100
	c.Tick()
	if len(c.Rows()) != 1 {
		t.Fatalf("rows = %d, want 1", len(c.Rows()))
	}
	if c.Rows()[0].Deltas[0] != 4 {
		t.Fatalf("delta = %g, want 4", c.Rows()[0].Deltas[0])
	}
}

func TestWriteCSV(t *testing.T) {
	c, clk, counters := buildCollector(t)
	c.Start()
	counters[0], counters[1] = 10, 2
	clk.now = 100
	c.Finish(clk.now)

	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	if want := "epoch,start,end,a.x,a.y,derived.x_rate"; lines[0] != want {
		t.Errorf("header = %q, want %q", lines[0], want)
	}
	if want := "0,0,100,10,2,0.1"; lines[1] != want {
		t.Errorf("row = %q, want %q", lines[1], want)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	c, clk, counters := buildCollector(t)
	c.Start()
	counters[0] = 6
	clk.now = 100
	c.Tick()
	counters[1] = 9
	clk.now = 200
	c.Finish(clk.now)

	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EpochCycles uint64    `json:"epoch_cycles"`
		Columns     []string  `json:"columns"`
		Totals      []float64 `json:"totals"`
		Rows        []struct {
			Start, End uint64
			Deltas     []float64
		} `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.EpochCycles != 100 || len(doc.Rows) != 2 {
		t.Fatalf("doc = %+v", doc)
	}
	// Totals in the document must equal the sum of the row deltas.
	for i := range doc.Columns {
		var sum float64
		for _, r := range doc.Rows {
			sum += r.Deltas[i]
		}
		if sum != doc.Totals[i] {
			t.Errorf("column %s: rows sum %g != totals %g", doc.Columns[i], sum, doc.Totals[i])
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	c, clk, counters := buildCollector(t)
	c.Start()
	counters[0] = 3
	clk.now = 2000
	c.Finish(clk.now)

	var buf bytes.Buffer
	instants := []Instant{{At: 1500, Cat: "dir", Name: "evt"}}
	if err := c.WriteChromeTrace(&buf, "unit test", instants); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Scope string         `json:"s"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	var meta, counter, instant int
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "M":
			meta++
			if e.Args["name"] != "unit test" {
				t.Errorf("process_name = %v", e.Args["name"])
			}
		case "C":
			counter++
		case "i":
			instant++
			if e.Scope != "g" || e.TS != 1.5 { // 1500 cycles = 1.5 us
				t.Errorf("instant = %+v", e)
			}
		default:
			t.Errorf("unexpected phase %q", e.Phase)
		}
	}
	if meta != 1 || counter == 0 || instant != 1 {
		t.Fatalf("meta=%d counter=%d instant=%d", meta, counter, instant)
	}
}

func TestAddSourceAfterStartPanics(t *testing.T) {
	c := New(&fakeClock{}, 10)
	c.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("AddSource after Start did not panic")
		}
	}()
	c.AddSource("late", []string{"a"}, func([]float64) {})
}
