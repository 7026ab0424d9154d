package coherence_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/system"
)

// TestRadixFootprint bounds the coherence state a 64-core ATAC+ radix run
// keeps: its tag chunks and value pages, summed from their lengths, so the
// bound holds on any host. The budget is the measured count, 55296 8-byte
// tag entries and nine 4 KB pages; a change that widens a tag entry or a
// page, or allocates blocks or pages a run does not touch, fails it.
func TestRadixFootprint(t *testing.T) {
	cfg := config.Small() // 64 cores, ATAC+
	spec, err := system.WorkloadFor(cfg, "radix", 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := system.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(spec, 0); err != nil {
		t.Fatal(err)
	}
	const budget = 55296*8 + 9*4096
	if got := s.Coh.FootprintBytes(); got > budget {
		t.Errorf("radix at %d cores kept %d bytes of tags and value pages, budget %d", cfg.Cores, got, budget)
	}
}
