package experiments

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/system"
)

// TestLatencyMonotone is a metamorphic check on the timing model: at 16
// cores and seed 42, raising one latency knob by one step never makes
// radix, ocean_contig or lu_contig finish sooner, on any of the six
// network kinds under either protocol. The router, link and DRAM knobs are
// asserted outright for those three apps. ocean_non_contig and the L2 and
// L1 hit knobs are recorded: each knob names the exact set of runs it
// makes faster, so a run that joins or leaves that set fails the test
// until it is explained. The hybrid's LinkDelay+1 row is an open lead: a
// slower link should not speed a run up.
func TestLatencyMonotone(t *testing.T) {
	knobs := []struct {
		name   string
		bump   func(*config.Config)
		faster map[string]bool // app/kind/protocol runs the bump speeds up
	}{
		{"RouterDelay+1", func(c *config.Config) { c.Network.RouterDelay++ }, nil},
		{"LinkDelay+1", func(c *config.Config) { c.Network.LinkDelay++ }, map[string]bool{
			"ocean_non_contig/Hybrid/ACKwise": true, // 18,601 -> 18,583
		}},
		{"LatencyCycles+100", func(c *config.Config) { c.Memory.LatencyCycles += 100 }, nil},
		{"L2HitCycles+4", func(c *config.Config) { c.Caches.L2HitCycles += 4 }, map[string]bool{
			"ocean_contig/EMesh-Pure/ACKwise": true, // 14,250 -> 14,238
			"ocean_contig/EMesh-Pure/DirKB":   true, // 14,251 -> 14,231
			"ocean_non_contig/Corona/ACKwise": true, // 18,316 -> 17,770
			"ocean_non_contig/Hybrid/ACKwise": true, // 18,601 -> 18,108
			"ocean_non_contig/Hybrid/DirKB":   true, // 17,894 -> 17,859
		}},
		{"L1HitCycles+1", func(c *config.Config) { c.Caches.L1HitCycles++ }, map[string]bool{
			"radix/EMesh-BCast/ACKwise":       true, // 44,701 -> 44,642
			"ocean_non_contig/Corona/ACKwise": true, // 18,316 -> 18,053
			"ocean_non_contig/Corona/DirKB":   true, // 18,106 -> 17,980
		}},
	}
	kinds := []config.NetworkKind{
		config.EMeshPure, config.EMeshBCast, config.ATAC, config.ATACPlus, config.Corona, config.HybridMesh,
	}
	cycles := func(cfg config.Config, app string) uint64 {
		res, err := system.RunBenchmark(cfg, app, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.Cycles)
	}
	for _, app := range []string{"radix", "ocean_contig", "lu_contig", "ocean_non_contig"} {
		for _, kind := range kinds {
			for _, proto := range []config.CoherenceKind{config.ACKwise, config.DirKB} {
				cfg, err := BuildConfig(Geometry{Net: kind.String(), Cores: 16, Seed: 42, Coherence: proto.String()})
				if err != nil {
					t.Fatal(err)
				}
				run := fmt.Sprintf("%s/%s/%s", app, kind, proto)
				base := cycles(cfg, app)
				for _, k := range knobs {
					bumped := cfg
					k.bump(&bumped)
					got := cycles(bumped, app)
					if faster := got < base; faster != k.faster[run] {
						t.Errorf("%s %s: %d -> %d cycles; recorded as faster: %v", run, k.name, base, got, k.faster[run])
					}
				}
			}
		}
	}
}
