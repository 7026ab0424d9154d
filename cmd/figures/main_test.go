package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/experiments"
)

// An impossible machine used to reach every run of the campaign, which
// journaled each doomed run ("Cores = 24 is not a perfect square") and
// exited degraded. It must fail once, before anything is simulated, as a
// scenario typo already did.
func TestImpossibleGeometryFailsFirst(t *testing.T) {
	args, cl := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = args, cl }()
	for _, bad := range [][]string{{"-cores", "24"}, {"-tech", "3nm"}, {"-optics", "magic"}} {
		os.Args = append([]string{"figures", "-only", "4", "-no-cache", "-q"}, bad...)
		flag.CommandLine = flag.NewFlagSet("figures", flag.ContinueOnError)
		if code := run(); code != experiments.ExitFatal {
			t.Errorf("figures %v exited %d, want %d (ExitFatal)", bad, code, experiments.ExitFatal)
		}
	}
}

// -only used to be matched against the job list by a predicate, so an id
// the list did not have selected nothing: `figures -only 18,fig4` printed
// the banner, simulated nothing and exited 0.
func TestSelectFigures(t *testing.T) {
	all := experiments.FigureIDs()
	for _, tc := range []struct {
		only string
		want []string
	}{
		{"", all},
		{" , ", all},
		{"8", []string{"8"}},
		{"TableV, 8,4,8", []string{"4", "8", "tablev"}}, // campaign order, not list order
	} {
		got, err := selectFigures(tc.only)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("selectFigures(%q) = %v, %v; want %v", tc.only, got, err, tc.want)
		}
	}
	for _, only := range []string{"nope", "18,fig4", "4,fig4"} {
		got, err := selectFigures(only)
		if err == nil || got != nil {
			t.Errorf("selectFigures(%q) = %v, nil; want an error", only, got)
			continue
		}
		for _, id := range all {
			if !strings.Contains(err.Error(), id) {
				t.Errorf("selectFigures(%q): %q does not list valid id %q", only, err, id)
			}
		}
	}
}

// -topos takes a comma list of network names; blanks around and between
// names are ignored, but a list that names nothing or misspells a name is
// an error rather than an empty or partial campaign.
func TestParseTopologies(t *testing.T) {
	got, err := parseTopologies(" atac+, corona ,,bcast")
	if want := []config.NetworkKind{config.ATACPlus, config.Corona, config.EMeshBCast}; err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("parseTopologies(valid) = %v, %v; want %v", got, err, want)
	}
	if got, err := parseTopologies("  "); err != nil || got != nil {
		t.Errorf("parseTopologies(empty) = %v, %v; want nil, nil (the figure's own set)", got, err)
	}
	if got, err := parseTopologies(" , ,"); err == nil || got != nil || !strings.Contains(err.Error(), "names no topologies") {
		t.Errorf("parseTopologies(commas) = %v, %v; want a names-no-topologies error", got, err)
	}
	if got, err := parseTopologies("atac+,corna"); err == nil || got != nil || !strings.Contains(err.Error(), `"corna"`) {
		t.Errorf("parseTopologies(typo) = %v, %v; want an error naming the typo", got, err)
	}
}

// The provenance manifest goes beside the SVGs, else beside -o, else
// nowhere.
func TestManifestDir(t *testing.T) {
	for _, tc := range []struct{ svg, out, want string }{
		{"svg", "res/out.txt", "svg"},
		{"", "res/out.txt", "res"},
		{"", "", ""},
	} {
		if got := manifestDir(tc.svg, tc.out); got != tc.want {
			t.Errorf("manifestDir(%q, %q) = %q, want %q", tc.svg, tc.out, got, tc.want)
		}
	}
}

// Fig 3 renders as a line chart with one polyline per series and one
// marker per numeric cell; any other figure as a bar chart of its numeric
// columns. The output directory is created on demand.
func TestWriteSVG(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "svg")
	read := func(id string) string {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, "fig"+id+".svg"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(b), "<svg") || !strings.HasSuffix(string(b), "</svg>\n") {
			t.Fatalf("fig%s.svg is not one svg element:\n%s", id, b)
		}
		return string(b)
	}

	fig3 := &experiments.Table{
		Title:   "Fig 3: Latency vs Offered Load",
		Columns: []string{"load", "Cluster", "Distance-8"},
		Rows:    [][]string{{"0.010", "10.87", "10.23"}, {"0.020", "—", "10.19"}, {"0.040", "23.86", "10.13"}},
	}
	if err := writeSVG(dir, "3", fig3); err != nil {
		t.Fatal(err)
	}
	svg := read("3")
	if n := strings.Count(svg, "<polyline"); n != 2 {
		t.Errorf("fig3.svg has %d polylines, want 2 (one per series)", n)
	}
	if n := strings.Count(svg, "<circle"); n != 5 {
		t.Errorf("fig3.svg has %d markers, want 5 (the non-numeric cell skipped)", n)
	}
	if !strings.Contains(svg, ">Distance-8</text>") {
		t.Error("fig3.svg has no legend entry for Distance-8")
	}

	fig4 := &experiments.Table{
		Title:   "Fig 4: Runtime",
		Columns: []string{"benchmark", "ATAC+", "EMesh-BCast", "note"},
		Rows:    [][]string{{"radix", "1.00", "1.08", "x"}, {"barnes", "1.00", "0.95", "y"}},
	}
	if err := writeSVG(dir, "4", fig4); err != nil {
		t.Fatal(err)
	}
	svg = read("4")
	if strings.Contains(svg, "<polyline") {
		t.Error("fig4.svg is a line chart, want bars")
	}
	for _, want := range []string{">radix</text>", ">barnes</text>", ">EMesh-BCast</text>"} {
		if !strings.Contains(svg, want) {
			t.Errorf("fig4.svg lacks %s", want)
		}
	}
	if strings.Contains(svg, ">note</text>") {
		t.Error("fig4.svg charts the non-numeric note column")
	}
}

// The narration is RunEvents formatted: one line per transition, the
// settled count moving on terminal phases only.
func TestNarrate(t *testing.T) {
	var b strings.Builder
	say := narrate(&b, 4, 2)
	ev := func(phase string, mod func(*experiments.RunEvent)) {
		e := experiments.RunEvent{Hash: strings.Repeat("ab", 32), Benchmark: "radix",
			Config: "ATAC+/ACKwise4/c16", Phase: phase}
		if mod != nil {
			mod(&e)
		}
		say(e)
	}
	ev(experiments.PhaseStart, func(e *experiments.RunEvent) { e.Attempt = 1 })
	ev(experiments.PhaseRetry, func(e *experiments.RunEvent) { e.Attempt = 2 })
	ev(experiments.PhaseDone, func(e *experiments.RunEvent) { e.Attempt, e.Cycles, e.WallMS = 2, 48471, 39.4 })
	ev(experiments.PhaseCached, func(e *experiments.RunEvent) { e.Cycles = 48471 })
	ev(experiments.PhaseRecalled, func(e *experiments.RunEvent) { e.Attempt, e.Error = 1, "run x: boom" })
	ev(experiments.PhaseInterrupted, nil)
	want := `[0/4] radix@ATAC+/ACKwise4/c16 abababababab start attempt 1/2
[0/4] radix@ATAC+/ACKwise4/c16 abababababab retry attempt 2/2 after a per-run deadline
[1/4] radix@ATAC+/ACKwise4/c16 abababababab done 48471 cycles in 39 ms
[2/4] radix@ATAC+/ACKwise4/c16 abababababab cached 48471 cycles
[3/4] radix@ATAC+/ACKwise4/c16 abababababab recalled from the journal, 1 attempt(s): run x: boom
[4/4] radix@ATAC+/ACKwise4/c16 abababababab interrupted
`
	if got := b.String(); got != want {
		t.Errorf("narration:\n%s\nwant:\n%s", got, want)
	}
}
