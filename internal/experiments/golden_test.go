package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenCampaign16Core pins every figure at once. The golden is the
// stdout of the binary, recorded with
//
//	go run ./cmd/figures -cores 16 -no-cache -q > internal/experiments/testdata/campaign_16core.txt
//
// (all 20 ids, 8 apps, 246 runs; Fig 3's 30 are five distinct routing
// configs at six loads, since Distance-1 appears twice at 16 cores). It is
// the package's campaign golden and there is no -update flag: regenerate it
// with that command, only for a deliberate model change, and review the
// diff like any other behavioural change. Its first paragraph is cmd/figures' banner; everything after it
// is the tables in campaign order, which this test renders and compares
// byte for byte. The run-set behind them is pinned alongside: same run
// count, same RunSetHash.
func TestGoldenCampaign16Core(t *testing.T) {
	r := NewRunner(Options{Cores: 16, Scale: 1, Seed: 42})
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
	const wantHash = "56374ae5bfabbee99b9ef4241badccde0839ba41c83065ada9ec3d7ffbaf1ae1"
	if p.Runs != 246 || p.RunSetHash != wantHash {
		t.Errorf("run-set: %d runs, hash %s; want 246, %s", p.Runs, p.RunSetHash, wantHash)
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
	if r.FreshRuns() != 246 {
		t.Errorf("%d fresh simulations, want the 246 declared", r.FreshRuns())
	}
}

// TestGoldenFig3At64Core pins Fig 3 where its six routing schemes are six
// distinct configs (at 16 cores Distance-1 appears twice). The golden is
// the binary's stdout, recorded like the campaign's:
//
//	go run ./cmd/figures -cores 64 -only 3 -no-cache -q > internal/experiments/testdata/fig3_64core.txt
func TestGoldenFig3At64Core(t *testing.T) {
	r := NewRunner(Options{Cores: 64, Scale: 1, Seed: 42})
	tbl, err := r.Figure("3")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "fig3_64core.txt"))
	if err != nil {
		t.Fatal(err)
	}
	_, want, _ := strings.Cut(string(data), "\n\n")
	if got := fmt.Sprintln(tbl); got != want {
		t.Errorf("Fig 3 diverged from testdata/fig3_64core.txt:\n%s", firstDiff(got, want))
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
