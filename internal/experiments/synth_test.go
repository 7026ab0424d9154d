package experiments

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/system"
)

func TestSynthSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		bench string
		ok    bool
	}{
		{"synth:uniform:load=0.05:bcast=0.001:warmup=200:measure=400", true},
		{"synth:hotspot:load=1:bcast=0:warmup=0:measure=1", true},
		{"synth:uniform:load=0:bcast=1:warmup=0:measure=1", true},
		{"synth:uniform:load=NaN:bcast=0:warmup=0:measure=100", false},
		{"synth:uniform:load=+Inf:bcast=0:warmup=0:measure=100", false},
		{"synth:uniform:load=0.1:bcast=-3:warmup=0:measure=100", false},
		{"synth:nosuch:load=0.1:bcast=0:warmup=0:measure=100", false},
		{"synth:uniform:load=0.1:bcast=0:warmup=100:measure=0", false},
		{"synth:uniform:load=1.5:bcast=0:warmup=0:measure=100", false},
	} {
		sp, parsed := ParseSynthBench(tc.bench)
		if !parsed {
			t.Fatalf("%s: encoding rejected; this test is about values", tc.bench)
		}
		if err := sp.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.bench, err, tc.ok)
		}
	}
}

func TestSyntheticRunHonoursCancellation(t *testing.T) {
	// A 400k-cycle synthetic run under a 50 ms per-run deadline must stop
	// at the deadline and fail as cancelled, like an application run,
	// instead of running to completion and reporting success.
	r := NewRunner(Options{Cores: 16, Scale: 1, Seed: 1})
	r.RunTimeout = 50 * time.Millisecond
	sp := SynthSpec{Pattern: "uniform", Load: 0.05, BcastFrac: 0.001, Measure: 400_000}
	t0 := time.Now()
	_, err := r.Run(r.SchemeConfig(Fig3Schemes(4)[0]), sp.Bench())
	if !errors.Is(err, system.ErrRunCancelled) || !errors.Is(err, ErrRunDeadline) {
		t.Fatalf("err = %v, want ErrRunCancelled wrapping ErrRunDeadline", err)
	}
	if wall := time.Since(t0); wall > 10*time.Second {
		t.Errorf("cancelled run took %v", wall)
	}
}

func TestSyntheticCancelPinned(t *testing.T) {
	// A cancelled synthetic run stops before its first event and names
	// the run, the cycle and the context's cause: the exact text a
	// journal records and a resumed campaign replays.
	r := NewRunner(Options{Cores: 16, Scale: 1, Seed: 1})
	sp := SynthSpec{Pattern: "uniform", Load: 0.05, BcastFrac: 0.001, Measure: 400}
	cause := errors.New("pinned cause")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	_, err := r.runSynthetic(ctx, r.SchemeConfig(Fig3Schemes(4)[0]), sp.Bench(), sp)
	want := "synthetic run synth:uniform:load=0.05:bcast=0.001:warmup=0:measure=400: " +
		"run cancelled at cycle 0: pinned cause"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v\nwant %s", err, want)
	}
	if !errors.Is(err, system.ErrRunCancelled) || !errors.Is(err, cause) ||
		errors.Is(err, system.ErrStalled) || errors.Is(err, sim.ErrEventBudget) {
		t.Fatalf("err = %v: want ErrRunCancelled wrapping its cause, and no other class", err)
	}
}
