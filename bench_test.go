package repro

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (Section V). BenchmarkFigures has one sub-benchmark per entry
// of the figure table (experiments.FigureIDs), each of which runs that
// experiment and prints the same rows/series the paper reports; run with
//
//	go test -bench=. -benchmem            # the whole campaign
//	go test -bench 'Figures/8$'           # one figure
//
// The campaign scale defaults to 64 cores so a full pass stays tractable;
// set REPRO_FULL=1 (or REPRO_CORES=n) for the paper's 1024-core geometry.
// All sub-benchmarks share one memoized campaign, mirroring how the paper's
// figures share the same underlying simulations. The campaign engine's
// environment knobs apply here too: REPRO_JOBS caps concurrent simulations
// (each figure prefetches its run-set through the shared worker pool) and
// REPRO_CACHE names a persistent result cache directory so repeat bench
// runs skip simulation entirely.

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/experiments"
)

func BenchmarkFigures(b *testing.B) {
	campaign := experiments.NewRunner(experiments.DefaultOptions())
	// Cached only when REPRO_CACHE says where, never in the user cache.
	f := experiments.Flags{Runner: campaign, NoCache: os.Getenv("REPRO_CACHE") == ""}
	closeCache, err := f.AttachCache(false, b.Logf)
	if err != nil {
		b.Fatal(err)
	}
	defer closeCache()
	for _, id := range experiments.FigureIDs() {
		b.Run(id, func(b *testing.B) {
			// Memoization makes repeated iterations (b.N > 1) nearly free;
			// the table is printed on the first.
			for i := 0; i < b.N; i++ {
				t, err := benchFigure(b, campaign, id)
				if err != nil {
					b.Fatalf("figure %s: %v", id, err)
				}
				if i == 0 {
					fmt.Println(t)
				}
			}
		})
	}
}

// benchFigure renders one table entry. Two entries differ from the plain
// campaign.Figure(id) cmd/figures runs: Fig 8 also reports its headline
// ratios as benchmark metrics, and Fig 10 ignores the campaign scale.
func benchFigure(b *testing.B, campaign *experiments.Runner, id string) (*experiments.Table, error) {
	switch id {
	case "8":
		t, avgB, avgP, err := campaign.Fig8()
		if err == nil {
			b.ReportMetric(avgB, "EDBCast/ATAC+")
			b.ReportMetric(avgP, "EDPure/ATAC+")
		}
		return t, err
	case "10":
		// Area is a model-only figure: always evaluated at the paper's
		// 1024-core geometry.
		o := campaign.Opt
		o.Cores = 1024
		return experiments.Fig10(o)
	}
	return campaign.Figure(id)
}
