package main

import (
	"testing"

	"repro/internal/experiments"
)

// submit used to declare its own machine flags and had no -hybrid-radius,
// so a hybrid job could only be submitted at the default radius. The same
// arguments given to atacsim and to atacctl submit must name the same run.
func TestSubmitMatchesAtacsim(t *testing.T) {
	spec, wait := parseSubmit([]string{"-bench", "fft", "-net", "hybrid", "-hybrid-radius", "2",
		"-cores", "256", "-seed", "42", "-wait"})
	if spec.Bench != "fft" || !wait {
		t.Fatalf("bench %q, wait %v", spec.Bench, wait)
	}
	got, err := experiments.BuildConfig(spec.Geometry)
	if err != nil {
		t.Fatal(err)
	}
	// atacsim's flag defaults (cmd/atacsim) under the same arguments.
	want, err := experiments.BuildConfig(experiments.Geometry{Net: "hybrid", Cores: 256, Sharers: 4,
		Coherence: "ackwise", FlitBits: 64, HybridRadius: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if got.Hybrid.Radius != 2 {
		t.Errorf("submitted hybrid radius %d, want 2", got.Hybrid.Radius)
	}
	r := experiments.NewRunner(experiments.Options{Cores: 256, Scale: 1, Seed: 42})
	if g, w := r.RunHash(got, spec.Bench), r.RunHash(want, spec.Bench); g != w {
		t.Errorf("atacctl submit resolves to run %s, atacsim to %s", g, w)
	}
}
