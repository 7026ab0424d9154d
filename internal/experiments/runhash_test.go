package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
)

// TestRunHashGolden pins run identity across builds: every cache file,
// journal record and atacd job is named by a RunHash, and a RunHash is the
// sha256 of the config's JSON. A renamed enum spelling, a reordered field
// or a changed default would silently orphan every cache entry; this test
// turns it into a diff.
//
// The grid is radix at 64 cores, seed 42, over every network kind, both
// protocols, all four routing policies and both receive nets: 96 run
// hashes. Crossing it with the four flavors (energy-only, so they share a
// hash) gives 384 configs whose json.Marshal encodings are pinned by one
// sha256. The last line is json.Marshal(config.Default()). There is no
// -update flag: the file changes only with a deliberate schema change,
// which also bumps cacheSchemaVersion.
func TestRunHashGolden(t *testing.T) {
	r := NewRunner(Options{Cores: 64, Scale: 1, Seed: 42})
	var got strings.Builder
	sum := sha256.New()
	for _, kind := range []config.NetworkKind{config.EMeshPure, config.EMeshBCast,
		config.ATAC, config.ATACPlus, config.Corona, config.HybridMesh} {
		for _, coh := range []config.CoherenceKind{config.ACKwise, config.DirKB} {
			for _, rt := range []config.RoutingPolicy{config.ClusterRouting, config.DistanceRouting,
				config.ENetOnlyRouting, config.AdaptiveRouting} {
				for _, rn := range []config.ReceiveNet{config.StarNet, config.BNet} {
					cfg := r.Opt.Config(kind)
					cfg.Coherence.Kind, cfg.Network.Routing, cfg.Network.ReceiveNet = coh, rt, rn
					fmt.Fprintf(&got, "%v %v %v %v %s\n", kind, coh, rt, rn, r.RunHash(cfg, "radix"))
					for _, fl := range []config.Flavor{config.FlavorDefault, config.FlavorIdeal,
						config.FlavorRingTuned, config.FlavorCons} {
						cfg.Network.Flavor = fl
						blob, err := json.Marshal(cfg)
						if err != nil {
							t.Fatal(err)
						}
						sum.Write(append(blob, '\n'))
					}
				}
			}
		}
	}
	fmt.Fprintf(&got, "marshal-sha256 %x\n", sum.Sum(nil))
	def, err := json.Marshal(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "default %s\n", def)

	want, err := os.ReadFile(filepath.Join("testdata", "runhash_64core.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("run identity diverged from testdata/runhash_64core.txt:\n%s", firstDiff(got.String(), string(want)))
	}
}
