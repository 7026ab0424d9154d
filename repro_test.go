package repro

import "testing"

func TestPublicAPISurface(t *testing.T) {
	cfg := SmallConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(Benchmarks()); got != 8 {
		t.Fatalf("Benchmarks() has %d entries, want 8", got)
	}
}

func TestRunBenchmarkEndToEnd(t *testing.T) {
	cfg := SmallConfig()
	cfg.Cores = 16
	cfg.ClusterDim = 2
	cfg.Caches.DirSlices = 4
	cfg.Memory.Controllers = 4
	cfg.Network.RThres = 2
	res, err := RunBenchmark(cfg, "fmm", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || !res.Finished {
		t.Fatalf("bad result: %+v", res)
	}
	bd, err := EnergyOf(res)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Total() <= 0 {
		t.Fatal("non-positive total energy")
	}
	edp, err := EDPOf(res)
	if err != nil || edp <= 0 {
		t.Fatalf("EDP %v, err %v", edp, err)
	}
	area, err := AreaOf(cfg)
	if err != nil || area.Total() <= 0 {
		t.Fatalf("area %v, err %v", area, err)
	}
}

func TestDefaultConfigIsPaperScale(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Cores != 1024 || cfg.Clusters() != 64 {
		t.Errorf("default config %d cores / %d clusters, want 1024/64", cfg.Cores, cfg.Clusters())
	}
	if cfg.Network.Kind != ATACPlus {
		t.Errorf("default network %v, want ATAC+", cfg.Network.Kind)
	}
}

func TestCampaignConstruction(t *testing.T) {
	o := DefaultCampaignOptions()
	c := NewCampaign(o)
	if c == nil || c.Opt.Cores < 16 {
		t.Fatalf("bad campaign %+v", c)
	}
}
