package system

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/config"
)

// FuzzConfigRuns: a configuration Validate accepts builds, on the serial
// kernel or on up to four shards, and runs 1k cycles of radix without a
// panic, within 10 s of host time (a slower run is a livelock: simulated
// time stopped moving). Whether the run finishes is not asked. Inputs
// above 64 cores, or with buffers, receive networks, controllers or
// associativities sized beyond what a short fuzz run affords, are skipped.
func FuzzConfigRuns(f *testing.F) {
	tiny := func(kind config.NetworkKind, mut func(*config.Config)) []byte {
		c := config.Tiny().WithNetwork(kind)
		mut(&c)
		data, err := c.ToJSON()
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	zero := func(c *config.Config) {
		c.Network.SelectDataLag, c.Network.ONetLinkDelay = 0, 0
		c.Caches.L1HitCycles, c.Caches.L2HitCycles, c.Memory.LatencyCycles = 0, 0, 0
	}
	for _, seed := range []struct {
		data   []byte
		shards uint8
	}{
		{tiny(config.ATACPlus, func(c *config.Config) {}), 1},
		{tiny(config.ATACPlus, zero), 1},
		{tiny(config.ATACPlus, zero), 2},
		{tiny(config.HybridMesh, zero), 2},
		{tiny(config.Corona, zero), 1},
		{tiny(config.EMeshPure, zero), 2},
		{tiny(config.ATACPlus, func(c *config.Config) { c.Network.SelectDataLag = -1 }), 1},
		{tiny(config.ATACPlus, func(c *config.Config) { c.Network.ONetLinkDelay = -5 }), 1},
		{tiny(config.ATACPlus, func(c *config.Config) { c.Caches.L1HitCycles = -1 }), 1},
		{tiny(config.ATACPlus, func(c *config.Config) { c.Caches.L2HitCycles = -3 }), 1},
		{tiny(config.ATACPlus, func(c *config.Config) { c.Memory.LatencyCycles = -1 }), 1},
		{tiny(config.ATACPlus, func(c *config.Config) { c.Network.LinkDelay = 10 }), 2},
		{tiny(config.HybridMesh, func(c *config.Config) { c.Network.LinkDelay = 10 }), 2},
		{[]byte(`{"Cores": 64, "ClusterDim": 2, "Caches": {"DirSlices": 16}, "Memory": {"Controllers": 16}, "Network": {"Kind": "EMesh-BCast"}}`), 4},
	} {
		f.Add(seed.data, seed.shards)
	}
	f.Fuzz(func(t *testing.T, data []byte, shards uint8) {
		cfg, err := config.FromJSON(data)
		if err != nil {
			return
		}
		if cfg.Cores > 64 || cfg.Network.BufFlits > 64 || cfg.Network.StarNetsPerCl > 64 ||
			cfg.Memory.Controllers > 64 || cfg.Caches.L1Assoc > 64 || cfg.Caches.L2Assoc > 64 {
			t.Skip("too large for a short fuzz run")
		}
		s, err := NewSharded(cfg, int(shards%4)+1)
		if err != nil {
			t.Fatalf("NewSharded rejected a config Validate accepts: %v", err)
		}
		spec, err := WorkloadFor(cfg, "radix", 1)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := s.RunContext(ctx, spec, 1000); errors.Is(err, ErrRunCancelled) {
			t.Fatalf("1k cycles did not finish: %v", err)
		}
	})
}
