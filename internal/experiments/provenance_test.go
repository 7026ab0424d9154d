package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/config"
)

func TestProvenanceManifest(t *testing.T) {
	r := NewRunner(Options{Cores: 16, Scale: 1, Seed: 42})
	r.Apps = []string{"radix"}
	if _, err := r.Run(r.Opt.Config(config.ATACPlus), "radix"); err != nil {
		t.Fatal(err)
	}

	p := r.Provenance([]string{"4"}, 1500*time.Millisecond)
	if p.Cores != 16 || p.Seed != 42 || p.Runs == 0 {
		t.Fatalf("provenance = %+v", p)
	}
	if len(p.RunSetHash) != 64 {
		t.Fatalf("RunSetHash = %q, want sha256 hex", p.RunSetHash)
	}
	if p.FreshRuns != 1 || p.CacheHits != 0 {
		t.Errorf("fresh=%d cached=%d, want 1/0", p.FreshRuns, p.CacheHits)
	}
	if p.WallSeconds != 1.5 || p.GoVersion == "" {
		t.Errorf("wall=%g go=%q", p.WallSeconds, p.GoVersion)
	}

	// The hash identifies the run-set: same campaign, same hash; a
	// different seed changes every run key and therefore the hash.
	if p2 := r.Provenance([]string{"4"}, 0); p2.RunSetHash != p.RunSetHash {
		t.Error("hash not deterministic for an identical campaign")
	}
	r2 := NewRunner(Options{Cores: 16, Scale: 1, Seed: 43})
	r2.Apps = []string{"radix"}
	if p3 := r2.Provenance([]string{"4"}, 0); p3.RunSetHash == p.RunSetHash {
		t.Error("hash ignores the campaign seed")
	}

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := WriteManifest(path, p); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Provenance
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if back.RunSetHash != p.RunSetHash || back.Runs != p.Runs {
		t.Errorf("round trip changed the manifest: %+v", back)
	}
}
