package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// -update rewrites the golden files from the current simulator output:
//
//	go test ./internal/experiments -run Golden -update
//
// Do this only when a deliberate model change shifts the expected
// figures, and review the diff like any other behavioral change.
var update = flag.Bool("update", false, "rewrite golden figure files")

// goldenDoc is the committed shape of the 16-core smoke campaign: the
// full rendered figure tables plus the headline EDP ratios as numbers.
type goldenDoc struct {
	Fig4 *Table `json:"fig4"`
	Fig8 *Table `json:"fig8"`
	// Campaign-average energy-delay ratios vs ATAC+ (the paper's
	// headline comparison; 1.8x / 4.8x at 1024 cores).
	AvgEDPBcastOverAtac float64 `json:"avg_edp_bcast_over_atac"`
	AvgEDPPureOverAtac  float64 `json:"avg_edp_pure_over_atac"`
}

// TestGoldenFigures16Core is the end-to-end regression gate: a 16-core
// smoke campaign must reproduce the committed figure tables exactly and
// the ATAC+ vs EMesh EDP ratios to 1e-9. Any change to the timing
// models, coherence protocol, network fabrics or energy accounting that
// shifts a figure shows up here as a reviewable golden diff.
func TestGoldenFigures16Core(t *testing.T) {
	r := NewRunner(Options{Cores: 16, Scale: 1, Seed: 42})
	r.Cache = nil // hermetic: never recall results from a REPRO_CACHE dir
	r.Apps = []string{"radix", "fmm", "lu_contig"}

	fig4, err := r.Figure("4")
	if err != nil {
		t.Fatal(err)
	}
	fig8, avgB, avgP, err := r.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	got := goldenDoc{Fig4: fig4, Fig8: fig8, AvgEDPBcastOverAtac: avgB, AvgEDPPureOverAtac: avgP}

	// Basic sanity independent of the golden. (No ordering claim: at 16
	// cores the optical fabric's latency overhead outweighs its scaling
	// advantage, so unlike the paper's 1024-core result the EMesh ratios
	// legitimately sit below 1 here.)
	if !(avgB > 0 && avgP > 0 && !math.IsInf(avgB, 0) && !math.IsInf(avgP, 0)) {
		t.Errorf("degenerate EDP ratios: bcast %.3f, pure %.3f", avgB, avgP)
	}

	path := filepath.Join("testdata", "golden_16core.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want goldenDoc
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	for _, tb := range []struct {
		name      string
		got, want *Table
	}{{"fig4", got.Fig4, want.Fig4}, {"fig8", got.Fig8, want.Fig8}} {
		if !reflect.DeepEqual(tb.got, tb.want) {
			t.Errorf("%s diverged from golden:\ngot:\n%v\nwant:\n%v", tb.name, tb.got, tb.want)
		}
	}
	const tol = 1e-9
	if d := math.Abs(got.AvgEDPBcastOverAtac - want.AvgEDPBcastOverAtac); d > tol {
		t.Errorf("EMesh-BCast/ATAC+ EDP ratio %.12f, golden %.12f (|diff| %.2g > %g)",
			got.AvgEDPBcastOverAtac, want.AvgEDPBcastOverAtac, d, tol)
	}
	if d := math.Abs(got.AvgEDPPureOverAtac - want.AvgEDPPureOverAtac); d > tol {
		t.Errorf("EMesh-Pure/ATAC+ EDP ratio %.12f, golden %.12f (|diff| %.2g > %g)",
			got.AvgEDPPureOverAtac, want.AvgEDPPureOverAtac, d, tol)
	}
}

// TestGoldenXtopo16Core is the crossbar/hybrid regression gate: the
// 16-core cross-topology figure — one run per backend per benchmark,
// rendered through the same table path cmd/figures uses — must match the
// committed golden exactly. Any timing or energy drift in the Corona
// crossbar or the hybrid fabric shows up as a reviewable golden diff.
func TestGoldenXtopo16Core(t *testing.T) {
	r := NewRunner(Options{Cores: 16, Scale: 1, Seed: 42})
	r.Cache = nil // hermetic: never recall results from a REPRO_CACHE dir
	r.Apps = []string{"radix", "fmm", "lu_contig"}

	tbl, err := r.Xtopo()
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "golden_xtopo_16core.json")
	if *update {
		data, err := json.MarshalIndent(tbl, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want Table
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tbl, &want) {
		t.Errorf("xtopo diverged from golden:\ngot:\n%v\nwant:\n%v", tbl, &want)
	}
}

// TestGoldenCampaign16Core pins every figure at once. The golden is the
// stdout of the binary, recorded with
//
//	go run ./cmd/figures -cores 16 -no-cache -q > internal/experiments/testdata/campaign_16core.txt
//
// (all 20 ids, 8 apps, 256 runs), so it is regenerated with that command,
// not with -update. Its first paragraph is cmd/figures' banner; everything
// after it is the tables in campaign order, which this test renders and
// compares byte for byte. The run-set behind them is pinned alongside:
// same run keys, same RunSetHash.
func TestGoldenCampaign16Core(t *testing.T) {
	r := NewRunner(Options{Cores: 16, Scale: 1, Seed: 42})
	r.Cache = nil // hermetic: never recall results from a REPRO_CACHE dir
	r.Partial = true

	var got strings.Builder
	for _, id := range FigureIDs() {
		tbl, err := r.Figure(id)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		fmt.Fprintln(&got, tbl)
	}

	data, err := os.ReadFile(filepath.Join("testdata", "campaign_16core.txt"))
	if err != nil {
		t.Fatal(err)
	}
	_, want, _ := strings.Cut(string(data), "\n\n")
	if got.String() != want {
		t.Errorf("campaign diverged from testdata/campaign_16core.txt:\n%s", firstDiff(got.String(), want))
	}

	p := r.Provenance(FigureIDs(), 0)
	const wantHash = "e1acd487cc40e4e0a8fa29362a343133cea2d08ed4201ec645624b645ae01d5f"
	if p.Runs != 256 || p.RunSetHash != wantHash {
		t.Errorf("run-set: %d runs, hash %s; want 256, %s", p.Runs, p.RunSetHash, wantHash)
	}
	// The two averages of Fig 8's closing note, as numbers: the rendered
	// table rounds them to two decimals. Recalled from the warm runner, so
	// this simulates nothing.
	_, avgB, avgP, err := r.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	const wantB, wantP, tol = 0.784380535709, 0.801311808791, 1e-9
	if math.Abs(avgB-wantB) > tol || math.Abs(avgP-wantP) > tol {
		t.Errorf("avg EDP vs ATAC+: EMesh-BCast %.12f, EMesh-Pure %.12f; want %.12f, %.12f",
			avgB, avgP, wantB, wantP)
	}
	if r.FreshRuns() != 256 {
		t.Errorf("%d fresh simulations, want the 256 declared", r.FreshRuns())
	}
}

// firstDiff reports the first line where got and want part ways.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
