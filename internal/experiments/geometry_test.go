package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/sim"
)

// nullNet accepts every message and delivers none: the coherence system
// needs a network to be built, and the geometry test sends nothing.
type nullNet struct{ stats noc.Stats }

func (*nullNet) Send(*noc.Message)          {}
func (*nullNet) SetDeliver(noc.DeliverFunc) {}
func (n *nullNet) Stats() *noc.Stats        { return &n.stats }

// TestGeometryPinned pins every machine size the repo builds: config.Tiny,
// config.Small and BuildConfig at 16, 64, 256 and 1024 cores. For each it
// records the cluster dim, the directory-slice and memory-controller
// counts and the distance threshold, then for every cluster the core its
// hub, its directory slice and its memory controller sit on, and its
// cores in ascending order (row by row, the order a broadcast fans out
// in). The values in testdata/geometry.txt were recorded before the
// sizing rule and the placement arithmetic moved into internal/config;
// there is no -update flag, because a geometry change moves simulated
// numbers.
func TestGeometryPinned(t *testing.T) {
	type machine struct {
		name string
		cfg  config.Config
	}
	machines := []machine{{"Tiny", config.Tiny()}, {"Small", config.Small()}}
	for _, cores := range []int{16, 64, 256, 1024} {
		cfg, err := BuildConfig(Geometry{Net: "atac+", Cores: cores, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, machine{fmt.Sprintf("BuildConfig/%d", cores), cfg})
	}
	var got strings.Builder
	for _, m := range machines {
		cfg := m.cfg
		fmt.Fprintf(&got, "%s cores %d cluster_dim %d clusters %d dir_slices %d controllers %d rthres %d\n", m.name,
			cfg.Cores, cfg.ClusterDim, cfg.Clusters(), cfg.Caches.DirSlices, cfg.Memory.Controllers, cfg.Network.RThres)
		var k sim.Kernel
		s := coherence.NewSystem(&k, &cfg, &nullNet{})
		members := make([][]int, cfg.Clusters())
		for core := 0; core < cfg.Cores; core++ {
			cl := cfg.ClusterOf(core)
			members[cl] = append(members[cl], core)
		}
		for cl := range members {
			fmt.Fprintf(&got, "%s cluster %d hub %d dir %d mem %d cores %s\n", m.name, cl,
				cfg.HubCore(cl), s.Cfg.DirCore(cl), s.Cfg.MemCore(cl), strings.Trim(fmt.Sprint(members[cl]), "[]"))
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "geometry.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("machine geometry diverged from testdata/geometry.txt:\n%s", firstDiff(got.String(), string(want)))
	}
}
