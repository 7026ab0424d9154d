package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func sample() *experiments.Table {
	return &experiments.Table{
		Title:   "Sample",
		Columns: []string{"benchmark", "value"},
		Rows:    [][]string{{"radix", "1.5"}, {"barnes", "2.0"}},
		Notes:   []string{"a note"},
	}
}

func TestParseFormat(t *testing.T) {
	for _, s := range []string{"text", "CSV", "Json"} {
		if _, err := ParseFormat(s); err != nil {
			t.Errorf("ParseFormat(%q): %v", s, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("xml accepted")
	}
}

func TestWriteText(t *testing.T) {
	var b bytes.Buffer
	if err := Write(&b, sample(), Text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Sample", "radix", "note: a note"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("text output missing %q", want)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	var b bytes.Buffer
	if err := Write(&b, sample(), CSV); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines: %q", len(lines), b.String())
	}
	if lines[1] != "benchmark,value" || lines[2] != "radix,1.5" {
		t.Errorf("CSV rows wrong: %v", lines)
	}
}

func TestWriteJSON(t *testing.T) {
	var b bytes.Buffer
	if err := Write(&b, sample(), JSON); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Title string              `json:"title"`
		Rows  []map[string]string `json:"rows"`
	}
	if err := json.Unmarshal(b.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Title != "Sample" || len(decoded.Rows) != 2 {
		t.Fatalf("decoded %+v", decoded)
	}
	if decoded.Rows[0]["benchmark"] != "radix" {
		t.Errorf("row mapping wrong: %v", decoded.Rows[0])
	}
}

func TestWriteUnknownFormat(t *testing.T) {
	if err := Write(&bytes.Buffer{}, sample(), Format("xml")); err == nil {
		t.Error("unknown format accepted")
	}
}
