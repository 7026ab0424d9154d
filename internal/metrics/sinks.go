package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// WriteCSV renders the epoch series as CSV: one row per epoch, columns
// epoch,start,end followed by every raw counter delta and every derived
// column. Counter columns reconcile: each column's sum over all rows
// equals the run's final aggregate counter.
func (c *Collector) WriteCSV(w io.Writer) error {
	if c == nil {
		return nil
	}
	var sb strings.Builder
	sb.WriteString("epoch,start,end")
	for _, col := range c.cols {
		sb.WriteByte(',')
		sb.WriteString(col)
	}
	for _, d := range c.derived {
		sb.WriteByte(',')
		sb.WriteString("derived." + d.Name)
	}
	sb.WriteByte('\n')
	for i, r := range c.rows {
		sb.WriteString(strconv.Itoa(i))
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatUint(uint64(r.Start), 10))
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatUint(uint64(r.End), 10))
		for _, v := range r.Deltas {
			sb.WriteByte(',')
			sb.WriteString(formatNum(v))
		}
		for _, v := range c.derivedRow(r) {
			sb.WriteByte(',')
			sb.WriteString(formatNum(v))
		}
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// formatNum renders counter deltas as integers when they are whole (the
// overwhelmingly common case) and falls back to full float formatting.
func formatNum(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// jsonSeries is the JSON time-series document layout.
type jsonSeries struct {
	EpochCycles uint64    `json:"epoch_cycles"`
	Columns     []string  `json:"columns"`
	Derived     []string  `json:"derived,omitempty"`
	Rows        []jsonRow `json:"rows"`
	Totals      []float64 `json:"totals"`
}

type jsonRow struct {
	Start   uint64    `json:"start"`
	End     uint64    `json:"end"`
	Deltas  []float64 `json:"deltas"`
	Derived []float64 `json:"derived,omitempty"`
}

// WriteJSON renders the epoch series as a single JSON document, including
// the per-column totals so consumers can reconcile without re-summing.
func (c *Collector) WriteJSON(w io.Writer) error {
	if c == nil {
		return nil
	}
	doc := jsonSeries{
		EpochCycles: uint64(c.epoch),
		Columns:     c.cols,
		Derived:     c.DerivedColumns(),
		Rows:        make([]jsonRow, 0, len(c.rows)),
		Totals:      c.Totals(),
	}
	for _, r := range c.rows {
		jr := jsonRow{Start: uint64(r.Start), End: uint64(r.End), Deltas: r.Deltas}
		if len(c.derived) > 0 {
			jr.Derived = c.derivedRow(r)
		}
		doc.Rows = append(doc.Rows, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// Instant is one point event merged into the Chrome trace export — the
// protocol trace.Ring records its events as Instants, so the exported
// timeline shows them against the counter tracks on the shared sim.Time
// axis.
type Instant struct {
	At   sim.Time
	Cat  string // category, e.g. "dir", "net"
	Name string
}

// traceEvent is one Chrome trace_event entry. The format is the
// chrome://tracing / Perfetto "JSON Array Format": cycles are nanoseconds
// (1 GHz clock), trace timestamps are microseconds.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

const cyclesPerMicro = 1e3 // 1 GHz: 1000 cycles per microsecond

// WriteChromeTrace renders the epoch series (and optional instant events)
// as Chrome trace_event JSON. Each column group — the text before a
// column's first '.', or a dotless column on its own — becomes one counter
// track ("ph":"C") sampled per epoch, derived columns become a "derived"
// track, and instants appear as global instant events — all on the one
// simulated-time axis, so a run opens directly in chrome://tracing or
// Perfetto.
func (c *Collector) WriteChromeTrace(w io.Writer, proc string, instants []Instant) error {
	if c == nil {
		return nil
	}
	events := []traceEvent{{
		Name: "process_name", Phase: "M", PID: 0, TID: 0,
		Args: map[string]any{"name": proc},
	}}
	var tracks []string // in first-column order
	trackCols := map[string][]int{}
	for i, col := range c.cols {
		t, _, _ := strings.Cut(col, ".")
		if trackCols[t] == nil {
			tracks = append(tracks, t)
		}
		trackCols[t] = append(trackCols[t], i)
	}
	for _, r := range c.rows {
		ts := float64(r.Start) / cyclesPerMicro
		for _, t := range tracks {
			args := make(map[string]any, len(trackCols[t]))
			for _, i := range trackCols[t] {
				_, key, ok := strings.Cut(c.cols[i], ".")
				if !ok {
					key = t
				}
				args[key] = r.Deltas[i]
			}
			events = append(events, traceEvent{
				Name: t, Phase: "C", TS: ts, PID: 0, TID: 0, Args: args,
			})
		}
		if len(c.derived) > 0 {
			args := make(map[string]any, len(c.derived))
			for i, v := range c.derivedRow(r) {
				args[c.derived[i].Name] = v
			}
			events = append(events, traceEvent{
				Name: "derived", Phase: "C", TS: ts, PID: 0, TID: 0, Args: args,
			})
		}
	}
	for _, in := range instants {
		events = append(events, traceEvent{
			Name: in.Name, Cat: in.Cat, Phase: "i", Scope: "g",
			TS: float64(in.At) / cyclesPerMicro, PID: 0, TID: 0,
		})
	}
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ns"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// Summary renders a one-line human summary of the collected series.
func (c *Collector) Summary() string {
	if c == nil || len(c.rows) == 0 {
		return "metrics: no epochs recorded"
	}
	last := c.rows[len(c.rows)-1]
	return fmt.Sprintf("metrics: %d epochs of %d cycles over [0, %d)", len(c.rows), c.epoch, last.End)
}
