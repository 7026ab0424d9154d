package system

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/traffic"
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
// (testdata/cost_golden.json). Three more rows cover the mesh's broadcast
// and self-send hand-offs: barnes on EMesh-Pure (serialized broadcasts) and
// on the hybrid (the source core's copy of a mesh broadcast), and one
// synthetic point driven through traffic.Drive as a netsweep runs it:
// uniform traffic with 0.1 % broadcasts on a 256-core EMesh-BCast, whose
// uniform destinations include the source core itself. A change that only makes event handlers
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
		run{"barnes/64/EMesh-Pure", config.Sized(64, 4).WithNetwork(config.EMeshPure)},
		run{"barnes/64/Hybrid", config.Sized(64, 4).WithNetwork(config.HybridMesh)},
		run{"synth:uniform/256/EMesh-BCast/load0.05/bcast0.001", config.Sized(256, 4).WithNetwork(config.EMeshBCast)},
	)

	got := map[string]uint64{}
	for _, r := range runs {
		if strings.HasPrefix(r.name, "synth:") {
			got[r.name] = synthEvents(t, r.cfg)
			continue
		}
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

// synthEvents counts the kernel events of one synthetic point on cfg's
// fabric: uniform traffic with 0.1 % broadcasts at load 0.05, 2000 warm-up
// and 2000 measured cycles, seed 42.
func synthEvents(t *testing.T, cfg config.Config) uint64 {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var k sim.Kernel
	net, err := noc.New(&k, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	var events uint64
	k.SetPoll(1, func() error { events++; return nil })
	p := traffic.Uniform{Cores: cfg.Cores, BcastFrac: 0.001}
	res := traffic.Drive(&k, net, cfg.Cores, p, 0.05, cfg.Network.FlitBits, 2000, 2000, 20000, 42)
	if res.Delivered == 0 || res.Delivered < res.Injected {
		t.Fatalf("synthetic point delivered %d of %d messages", res.Delivered, res.Injected)
	}
	return events
}
