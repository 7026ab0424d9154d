package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/system"
)

// TestConcurrentIdenticalRuns drives many goroutines through
// Runner.RunContext with the same run identity and checks the
// singleflight contract the serving daemon's coalescing relies on: one
// fresh simulation, and every caller handed a byte-identical result.
// Run under -race (make check does) this also proves the path is clean.
func TestConcurrentIdenticalRuns(t *testing.T) {
	r := NewRunner(Options{Cores: 16, Scale: 1, Seed: 1})
	sp := SynthSpec{Pattern: "uniform", Load: 0.05, BcastFrac: 0.001, Warmup: 200, Measure: 400}
	cfg := r.SchemeConfig(Fig3Schemes(4)[0])

	const callers = 16
	results := make([]system.Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.RunContext(context.Background(), cfg, sp.Bench())
		}(i)
	}
	wg.Wait()

	if got := r.FreshRuns(); got != 1 {
		t.Errorf("FreshRuns = %d, want 1 for %d identical callers", got, callers)
	}
	want, err := json.Marshal(results[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		got, err := json.Marshal(results[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("caller %d: result differs from caller 0", i)
		}
	}
	if results[0].Synth == nil || results[0].Synth.Delivered == 0 {
		t.Errorf("synthetic result missing latency stats: %+v", results[0].Synth)
	}
}

// TestConcurrentDistinctRuns checks the other direction: distinct
// identities do not share executions, and the event hook sees every
// lifecycle exactly once even under concurrency.
func TestConcurrentDistinctRuns(t *testing.T) {
	r := NewRunner(Options{Cores: 16, Scale: 1, Seed: 1})
	var mu sync.Mutex
	done := map[string]int{}
	r.Events = func(ev RunEvent) {
		if ev.Phase == PhaseDone {
			mu.Lock()
			done[ev.Hash]++
			mu.Unlock()
		}
	}
	loads := []float64{0.01, 0.02, 0.03, 0.04}
	cfg := r.SchemeConfig(Fig3Schemes(4)[0])
	var wg sync.WaitGroup
	for _, load := range loads {
		sp := SynthSpec{Pattern: "uniform", Load: load, BcastFrac: 0.001, Warmup: 200, Measure: 400}
		for i := 0; i < 4; i++ { // 4 callers per identity
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := r.RunSynthetic(cfg, sp); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()
	if got := r.FreshRuns(); got != uint64(len(loads)) {
		t.Errorf("FreshRuns = %d, want %d", got, len(loads))
	}
	if len(done) != len(loads) {
		t.Errorf("saw done events for %d hashes, want %d", len(done), len(loads))
	}
	for h, n := range done {
		if n != 1 {
			t.Errorf("hash %s: %d done events, want 1", h[:12], n)
		}
	}

	// Every network kind takes a synthetic run: the synthetic path builds
	// its fabric through the same noc.New as the full system.
	sp := SynthSpec{Pattern: "uniform", Load: 0.02, BcastFrac: 0.001, Warmup: 200, Measure: 400}
	for _, kind := range []config.NetworkKind{config.EMeshPure, config.EMeshBCast,
		config.ATAC, config.ATACPlus, config.Corona, config.HybridMesh} {
		res, err := r.RunSynthetic(r.Opt.Config(kind), sp)
		if err != nil {
			t.Errorf("%v: %v", kind, err)
		} else if res.Synth == nil || res.Synth.Delivered == 0 || res.Net.InjectedFlits == 0 {
			t.Errorf("%v: nothing delivered: %+v", kind, res.Synth)
		}
	}
	if got, want := r.FreshRuns(), uint64(len(loads)+6); got != want {
		t.Errorf("FreshRuns = %d, want %d", got, want)
	}
}
