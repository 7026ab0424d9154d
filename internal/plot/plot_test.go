package plot

import (
	"strconv"
	"strings"
	"testing"
)

func TestRenderLineBasics(t *testing.T) {
	l := &Line{
		Title:  "Latency vs Load",
		XLabel: "load",
		YLabel: "cycles",
		Series: []Series{
			{Name: "Cluster", X: []float64{0.01, 0.05, 0.1}, Y: []float64{12, 40, 900}},
			{Name: "Distance-15", X: []float64{0.01, 0.05, 0.1}, Y: []float64{16, 18, 25}},
		},
	}
	svg := l.RenderLine()
	for _, want := range []string{"<svg", "</svg>", "Latency vs Load", "Cluster", "Distance-15", "polyline", "cycles"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Two polylines, one per series.
	if got := strings.Count(svg, "<polyline"); got != 2 {
		t.Errorf("polylines = %d, want 2", got)
	}
}

func TestRenderLineLogY(t *testing.T) {
	l := &Line{
		Title: "log",
		LogY:  true,
		Series: []Series{
			{Name: "a", X: []float64{1, 2, 3}, Y: []float64{10, 1000, 0 /* dropped */}},
		},
	}
	svg := l.RenderLine()
	if !strings.Contains(svg, "<polyline") {
		t.Error("no polyline on log axis")
	}
	// The zero sample is dropped: only two circles.
	if got := strings.Count(svg, "<circle"); got != 2 {
		t.Errorf("circles = %d, want 2", got)
	}
}

func TestRenderLineEmpty(t *testing.T) {
	l := &Line{Title: "empty"}
	svg := l.RenderLine()
	if !strings.Contains(svg, "</svg>") {
		t.Error("empty chart must still be valid SVG")
	}
}

func TestRenderBarGrouped(t *testing.T) {
	b := &Bar{
		Title:  "EDP",
		YLabel: "normalized",
		Labels: []string{"radix", "barnes"},
		Names:  []string{"ATAC+", "EMesh-BCast"},
		Values: [][]float64{{1.0, 1.8}, {1.0, 2.2}},
	}
	svg := b.RenderBar()
	if got := strings.Count(svg, "<rect"); got < 5 { // bg + 4 bars + legend
		t.Errorf("rects = %d", got)
	}
	for _, want := range []string{"radix", "barnes", "ATAC+", "EMesh-BCast"} {
		if !strings.Contains(svg, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRenderBarStacked(t *testing.T) {
	b := &Bar{
		Title:   "Energy breakdown",
		Labels:  []string{"ATAC+", "Cons"},
		Names:   []string{"laser", "tuning"},
		Values:  [][]float64{{0.1, 0}, {3.0, 2.0}},
		Stacked: true,
	}
	svg := b.RenderBar()
	if !strings.Contains(svg, "</svg>") {
		t.Fatal("invalid SVG")
	}
}

func TestRenderBarEmpty(t *testing.T) {
	b := &Bar{Title: "none"}
	if svg := b.RenderBar(); !strings.Contains(svg, "</svg>") {
		t.Error("empty bar chart invalid")
	}
}

func TestEscaping(t *testing.T) {
	l := &Line{Title: "a<b & c>d"}
	svg := l.RenderLine()
	if strings.Contains(svg, "a<b") {
		t.Error("title not escaped")
	}
	if !strings.Contains(svg, "a&lt;b &amp; c&gt;d") {
		t.Error("escaped title missing")
	}
}

func TestNiceTicks(t *testing.T) {
	ticks := niceTicks(0, 100, 6)
	if len(ticks) < 3 || len(ticks) > 8 {
		t.Errorf("tick count %d", len(ticks))
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i] <= ticks[i-1] {
			t.Error("ticks not increasing")
		}
	}
	if ts := niceTicks(5, 5, 4); len(ts) == 0 {
		t.Error("degenerate range produced no ticks")
	}
}

func parseF(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

func TestFromTable(t *testing.T) {
	b := FromTable("T", "y",
		[]string{"bench", "a", "note", "b"},
		[][]string{{"radix", "1.5", "hello", "2.0"}, {"fmm", "1.1", "x", "0.9"}},
		parseF)
	if len(b.Names) != 2 || b.Names[0] != "a" || b.Names[1] != "b" {
		t.Fatalf("numeric columns: %v", b.Names)
	}
	if len(b.Values) != 2 || b.Values[0][1] != 2.0 {
		t.Fatalf("values: %v", b.Values)
	}
	if len(b.Labels) != 2 || b.Labels[1] != "fmm" {
		t.Fatalf("labels: %v", b.Labels)
	}
	// Degenerate table.
	if e := FromTable("T", "y", []string{"only"}, nil, parseF); len(e.Names) != 0 {
		t.Error("single-column table produced series")
	}
}

func TestShorten(t *testing.T) {
	if s := shorten("ocean_non_contig"); len(s) > 14 {
		t.Errorf("shorten failed: %q", s)
	}
	if shorten("radix") != "radix" {
		t.Error("short name mangled")
	}
}
