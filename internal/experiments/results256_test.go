package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestResults256 renders the whole 256-core campaign cold (252 runs, about
// three minutes on two cores) and compares it byte for byte with the
// repository's results_256.txt, which EXPERIMENTS.md quotes. It runs only
// when REPRO_FULL=1 is set. The file is regenerated with `make
// results-256`, only for a deliberate model change.
func TestResults256(t *testing.T) {
	if os.Getenv("REPRO_FULL") != "1" {
		t.Skip("set REPRO_FULL=1 to render the 256-core campaign")
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "results_256.txt"))
	if err != nil {
		t.Fatal(err)
	}
	banner, want, _ := strings.Cut(string(data), "\n\n")
	const wantBanner = "ATAC+ evaluation campaign: 256 cores, scale 1, seed 42, 11nm electronics, baseline optics"
	if banner != wantBanner {
		t.Errorf("banner %q, want %q", banner, wantBanner)
	}
	r := NewRunner(Options{Cores: 256, Scale: 1, Seed: 42})
	r.Partial = true
	r.Prefetch(r.CampaignRuns(FigureIDs()))
	var got strings.Builder
	for _, id := range FigureIDs() {
		tbl, err := r.Figure(id)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		fmt.Fprintln(&got, tbl)
	}
	if got.String() != want {
		t.Errorf("campaign diverged from results_256.txt:\n%s", firstDiff(got.String(), want))
	}
}
