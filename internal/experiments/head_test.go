package experiments

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/config"
)

// TestHeadlineAt1024 reproduces the paper-scale runtime comparison: twelve
// 1024-core runs, one after the other, about seven minutes in all, so it
// only runs when REPRO_FULL=1 is set.
func TestHeadlineAt1024(t *testing.T) {
	if os.Getenv("REPRO_FULL") != "1" {
		t.Skip("set REPRO_FULL=1 to run the 1024-core headline comparison")
	}
	r := NewRunner(Options{Cores: 1024, Scale: 1, Seed: 42})
	kinds := []config.NetworkKind{config.ATACPlus, config.EMeshBCast, config.EMeshPure}
	for _, b := range []string{"radix", "barnes", "ocean_non_contig", "dynamic_graph"} {
		var atac uint64
		for _, kind := range kinds {
			cfg := r.Opt.Config(kind)
			start := time.Now()
			res, err := r.Run(cfg, b)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Printf("%-16s %-12v cycles=%9d wall=%v\n", b, kind, res.Cycles, time.Since(start).Round(time.Second))
			if kind == config.ATACPlus {
				atac = uint64(res.Cycles)
			} else if uint64(res.Cycles) < atac {
				t.Errorf("%s: %v (%d cycles) beat ATAC+ (%d) at paper scale", b, kind, res.Cycles, atac)
			}
		}
	}
}
