package system

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/config"
)

// update rewrites testdata/cost_golden.json:
//
//	go test ./internal/system -run TestCostGolden -update
//
// Only do that for an intended change to what the simulator schedules: the
// file is the proof that a speed-up added, dropped or moved no event.
var update = flag.Bool("update", false, "rewrite testdata/cost_golden.json")

const costGolden = "testdata/cost_golden.json"

// TestCostGolden pins how many kernel events a 64-core radix run executes
// on each of the six network kinds, plus one fault-injected ATAC+ run and
// four ATAC+ runs through the other protocol cases: barnes (whose
// broadcasts race its shared requests, so ACKwise buffers some), radix and
// barnes under DirKB, and barnes on 2 KB L1 and 8 KB L2 caches, which evict
// (testdata/cost_golden.json). A change that only makes event handlers
// cheaper — fewer allocations, fewer probes, a smaller flit — leaves every
// count equal; one that adds, drops or merges a Schedule/At/Post moves one,
// even where every result counter stays put. The count comes from a poll
// armed to run before every event, which schedules nothing.
func TestCostGolden(t *testing.T) {
	type run struct {
		name string
		cfg  config.Config
	}
	var runs []run
	for _, kind := range []config.NetworkKind{config.EMeshPure, config.EMeshBCast, config.ATAC,
		config.ATACPlus, config.Corona, config.HybridMesh} {
		runs = append(runs, run{fmt.Sprintf("radix/64/%v", kind), config.Sized(64, 4).WithNetwork(kind)})
	}
	atac := config.Sized(64, 4).WithNetwork(config.ATACPlus)
	faulty := atac
	faulty.Fault = config.DefaultFault()
	dirKB := atac
	dirKB.Coherence.Kind = config.DirKB
	small := atac
	small.Caches.L1DKB, small.Caches.L2KB = 2, 8
	runs = append(runs,
		run{"radix/64/ATAC+/faults", faulty},
		run{"barnes/64/ATAC+", atac},
		run{"radix/64/ATAC+/DirKB", dirKB},
		run{"barnes/64/ATAC+/DirKB", dirKB},
		run{"barnes/64/ATAC+/L1-2KB/L2-8KB", small},
	)

	got := map[string]uint64{}
	for _, r := range runs {
		s, err := New(r.cfg)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := WorkloadFor(r.cfg, strings.Split(r.name, "/")[0], 1)
		if err != nil {
			t.Fatal(err)
		}
		var events uint64
		s.K.SetPoll(1, func() error { events++; return nil })
		res, err := s.Run(spec, 0)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if r.name == "barnes/64/ATAC+" && res.Coh.ReorderBufferedBcast == 0 {
			t.Errorf("%s buffered no broadcast: the row no longer covers the reorder buffer", r.name)
		}
		got[r.name] = events
	}

	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(costGolden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(costGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]uint64{}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d runs, test makes %d", len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok || w != g {
			t.Errorf("%s: %d events, want %d", name, g, w)
		}
	}
}
