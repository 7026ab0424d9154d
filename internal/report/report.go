// Package report renders experiment tables in machine-readable formats
// (CSV, JSON) in addition to the human-readable text the experiments
// package produces, and provides the writer used by cmd/figures and
// cmd/sweep to emit multi-format result files.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/experiments"
)

// Format selects an output encoding.
type Format string

// Supported formats.
const (
	Text Format = "text"
	CSV  Format = "csv"
	JSON Format = "json"
)

// ParseFormat validates a format name.
func ParseFormat(s string) (Format, error) {
	switch Format(strings.ToLower(s)) {
	case Text:
		return Text, nil
	case CSV:
		return CSV, nil
	case JSON:
		return JSON, nil
	}
	return "", fmt.Errorf("report: unknown format %q (text, csv, json)", s)
}

// jsonTable is the JSON shape of one table.
type jsonTable struct {
	Title    string              `json:"title"`
	Columns  []string            `json:"columns"`
	Rows     []map[string]string `json:"rows"`
	Notes    []string            `json:"notes,omitempty"`
	Degraded bool                `json:"degraded,omitempty"`
}

// Write renders one table to w in the requested format.
func Write(w io.Writer, t *experiments.Table, f Format) error {
	switch f {
	case Text:
		_, err := fmt.Fprintln(w, t)
		return err
	case CSV:
		cw := csv.NewWriter(w)
		// A comment-style title row keeps multi-table CSV streams
		// self-describing.
		if err := cw.Write([]string{"# " + t.Title}); err != nil {
			return err
		}
		if err := cw.Write(t.Columns); err != nil {
			return err
		}
		for _, row := range t.Rows {
			if err := cw.Write(row); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	case JSON:
		jt := jsonTable{Title: t.Title, Columns: t.Columns, Notes: t.Notes, Degraded: t.Degraded}
		for _, row := range t.Rows {
			m := make(map[string]string, len(row))
			for i, cell := range row {
				if i < len(t.Columns) {
					m[t.Columns[i]] = cell
				}
			}
			jt.Rows = append(jt.Rows, m)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(jt)
	}
	return fmt.Errorf("report: unknown format %q", f)
}
