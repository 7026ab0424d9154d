// Package metrics is the cross-layer, epoch-based observability layer.
//
// A Collector divides a simulation into fixed-length epochs of simulated
// time and records, per epoch, the delta of every registered counter —
// for a simulated machine, every counter of its run Result (cores,
// coherence, every fabric's network, optical and fault counters), a
// latency histogram and the energy breakdown. The sum of a column across
// all epochs equals the run's end-of-run aggregate counter — a
// reconciliation invariant the tests assert — so the time series is a
// lossless refinement of the aggregate statistics the figures already use.
//
// The layer is zero-cost when disabled: components hold a nil *Collector
// or nil *Histogram and every hook is a single nil check, verified by the
// allocation-budget tests in internal/noc. Sampling is pull-based — the
// collector reads cumulative counters at epoch boundaries — so enabling
// it adds no per-event work to the hot paths either.
//
// Sinks (sinks.go) render the collected series as CSV, JSON, or Chrome
// trace_event JSON that loads directly in chrome://tracing or Perfetto.
package metrics

import (
	"fmt"

	"repro/internal/sim"
)

// Row is one recorded epoch: the half-open simulated-time interval
// [Start, End) and the per-column counter deltas accumulated within it.
type Row struct {
	Start, End sim.Time
	Deltas     []float64
}

// Cycles returns the epoch's length in cycles.
func (r Row) Cycles() float64 { return float64(r.End - r.Start) }

// source is one registered group of cumulative counters.
type source struct {
	n      int             // columns
	sample func([]float64) // fills cumulative values, len == n
	off    int             // column offset in the flattened row
}

// Derived is a per-epoch column computed from the raw deltas at sink
// time (rates and ratios such as IPC or laser duty cycle). Derived
// columns are excluded from reconciliation: they are not counters.
type Derived struct {
	Name string
	// Fn maps one epoch's raw deltas (indexed as Columns) and length in
	// cycles to the derived value.
	Fn func(deltas []float64, cycles float64) float64
}

// Collector accumulates per-epoch counter deltas for one run. Build with
// New, register sources, then Start/Tick/Finish from the driving loop
// (system.Run drives it between kernel chunks). A nil *Collector is the
// disabled state: every method is a safe no-op.
type Collector struct {
	clock sim.Clock
	epoch sim.Time

	sources []source
	derived []Derived
	cols    []string // flattened, qualified "prefix.col"

	prev, cur []float64
	rows      []Row
	lastAt    sim.Time
	at        sim.Time // the time the sample being taken stands for
	started   bool

	subs []EpochFunc
}

// EpochFunc is an epoch subscriber: it receives each completed epoch as
// soon as Tick records it, with the epoch's index in the row series. The
// collector calls subscribers synchronously on the simulation goroutine,
// so they must be fast and must not block — hand anything slow (an SSE
// broadcast, a network write) off to a channel or goroutine.
type EpochFunc func(index int, r Row)

// New builds a collector stamping epochs from the given clock. epoch is
// the epoch length in cycles and must be positive.
func New(clock sim.Clock, epoch sim.Time) *Collector {
	if epoch <= 0 {
		panic(fmt.Sprintf("metrics: non-positive epoch %d", epoch))
	}
	return &Collector{clock: clock, epoch: epoch}
}

// Epoch returns the configured epoch length (0 on a nil collector).
func (c *Collector) Epoch() sim.Time {
	if c == nil {
		return 0
	}
	return c.epoch
}

// AddSource registers a group of cumulative counters, each column named
// "prefix.col" (col alone under an empty prefix). sample must fill vals
// (len == len(cols)) with the counters' current cumulative values; it is
// called once per epoch boundary. Sources must be registered before Start.
func (c *Collector) AddSource(prefix string, cols []string, sample func(vals []float64)) {
	if c == nil {
		return
	}
	if c.started {
		panic("metrics: AddSource after Start")
	}
	c.sources = append(c.sources, source{n: len(cols), sample: sample, off: len(c.cols)})
	for _, col := range cols {
		if prefix != "" {
			col = prefix + "." + col
		}
		c.cols = append(c.cols, col)
	}
}

// AddHistogram registers a histogram's buckets as one column group, so
// its per-epoch increments ride the same rows as the scalar counters.
func (c *Collector) AddHistogram(prefix string, h *Histogram) {
	if c == nil || h == nil {
		return
	}
	cols := make([]string, HistBuckets)
	for i := range cols {
		cols[i] = BucketLabel(i)
	}
	c.AddSource(prefix, cols, func(vals []float64) {
		for i, n := range h.Counts {
			vals[i] = float64(n)
		}
	})
}

// AddDerived registers a per-epoch derived column (a rate or ratio).
func (c *Collector) AddDerived(name string, fn func(deltas []float64, cycles float64) float64) {
	if c == nil {
		return
	}
	c.derived = append(c.derived, Derived{Name: name, Fn: fn})
}

// ColIndex returns the flattened index of a qualified column name
// ("Net.Delivered"), or -1 when absent.
func (c *Collector) ColIndex(name string) int {
	if c == nil {
		return -1
	}
	for i, col := range c.cols {
		if col == name {
			return i
		}
	}
	return -1
}

// Columns returns the qualified raw column names in row order.
func (c *Collector) Columns() []string {
	if c == nil {
		return nil
	}
	return c.cols
}

// DerivedColumns returns the names of the registered derived columns.
func (c *Collector) DerivedColumns() []string {
	if c == nil {
		return nil
	}
	out := make([]string, len(c.derived))
	for i, d := range c.derived {
		out[i] = d.Name
	}
	return out
}

// Subscribe registers a live epoch subscriber (see EpochFunc). This is
// the fan-out behind the serving daemon's progress streams: the sinks in
// sinks.go read the full series after the run, subscribers see each epoch
// as it closes. Subscribing changes nothing about what is recorded.
func (c *Collector) Subscribe(fn EpochFunc) {
	if c == nil || fn == nil {
		return
	}
	c.subs = append(c.subs, fn)
}

// Start snapshots the baseline of every source at the current simulated
// time. It must be called before the first Tick.
func (c *Collector) Start() {
	if c == nil || c.started {
		return
	}
	c.started = true
	c.prev = make([]float64, len(c.cols))
	c.cur = make([]float64, len(c.cols))
	c.at = c.clock.Now()
	c.sampleInto(c.prev)
	c.lastAt = c.at
}

// NextBoundary returns the simulated time of the next epoch boundary.
func (c *Collector) NextBoundary() sim.Time { return c.lastAt + c.epoch }

// Tick closes the current epoch at the clock: it samples every source and
// records the deltas since the previous boundary as one Row. A Tick with
// no elapsed simulated time is folded into the next epoch instead of
// recording a zero-length row.
func (c *Collector) Tick() {
	if c == nil || !c.started {
		return
	}
	c.closeAt(c.clock.Now())
}

// Finish records the final (possibly partial) epoch, closing it at end:
// the run's last cycle, which lies before the clock when events drained
// after the run's work was done. The sources are sampled now, so that
// drain tail's counts land in the final epoch, and after Finish the
// column sums across all rows equal the end-of-run cumulative counters.
func (c *Collector) Finish(end sim.Time) {
	if c == nil || !c.started {
		return
	}
	c.closeAt(end)
}

// SampleTime returns the simulated time the sample being taken stands
// for: the clock at Start and Tick, the end given to Finish. A source
// whose value grows with elapsed time rather than with events reads this,
// not the clock.
func (c *Collector) SampleTime() sim.Time { return c.at }

// closeAt records the epoch [lastAt, end) from a sample of every source.
func (c *Collector) closeAt(end sim.Time) {
	if end == c.lastAt {
		return
	}
	c.at = end
	c.sampleInto(c.cur)
	deltas := make([]float64, len(c.cols))
	for i := range deltas {
		deltas[i] = c.cur[i] - c.prev[i]
	}
	row := Row{Start: c.lastAt, End: end, Deltas: deltas}
	c.rows = append(c.rows, row)
	c.prev, c.cur = c.cur, c.prev
	c.lastAt = end
	for _, fn := range c.subs {
		fn(len(c.rows)-1, row)
	}
}

func (c *Collector) sampleInto(dst []float64) {
	for _, s := range c.sources {
		s.sample(dst[s.off : s.off+s.n])
	}
}

// Rows returns the recorded epochs in time order.
func (c *Collector) Rows() []Row {
	if c == nil {
		return nil
	}
	return c.rows
}

// Totals returns the per-column sums across every recorded epoch — by
// construction, the cumulative counter growth between Start and the last
// Tick. The reconciliation tests compare these against the run's final
// aggregate counters.
func (c *Collector) Totals() []float64 {
	if c == nil {
		return nil
	}
	out := make([]float64, len(c.cols))
	for _, r := range c.rows {
		for i, d := range r.Deltas {
			out[i] += d
		}
	}
	return out
}

// Total returns the summed delta of one qualified column, or 0 when the
// column is absent.
func (c *Collector) Total(name string) float64 {
	i := c.ColIndex(name)
	if i < 0 {
		return 0
	}
	var v float64
	for _, r := range c.rows {
		v += r.Deltas[i]
	}
	return v
}

// derivedRow computes every derived column for one row.
func (c *Collector) derivedRow(r Row) []float64 {
	out := make([]float64, len(c.derived))
	for i, d := range c.derived {
		out[i] = d.Fn(r.Deltas, r.Cycles())
	}
	return out
}
