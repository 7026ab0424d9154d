package system

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/config"
)

// fuzzKinds are the network kinds FuzzConfigRuns picks from.
var fuzzKinds = []config.NetworkKind{
	config.EMeshPure, config.EMeshBCast, config.ATAC, config.ATACPlus, config.Corona, config.HybridMesh,
}

// fuzzConfig maps FuzzConfigRuns' typed inputs onto a machine of at most
// 64 cores: a mesh dimension of 1..8 (far inside config.MaxMeshDim, so the
// width check never decides), a cluster dimension of 1 up to the
// mesh dimension, one directory slice and memory controller per cluster,
// RThres half the mesh dimension, router and link delays of 0..15, the
// four short latencies of -8..23 cycles, a memory latency of -8..247,
// buffers and ways of 0..64, and sharers as given. Most of each range is
// accepted; a cluster dimension that does not tile the mesh, a zero delay,
// buffer or way count and a negative latency are not, so rejection is
// fuzzed too.
func fuzzConfig(kind, dim, clusterDim, routerDelay, linkDelay, selectLag, onetDelay, l1Hit, l2Hit, memLat,
	sharers, bufFlits, l1Assoc, l2Assoc uint8) config.Config {
	d := 1 + int(dim%8)
	c := config.Default().WithNetwork(fuzzKinds[int(kind)%len(fuzzKinds)])
	c.Cores, c.ClusterDim = d*d, 1+int(clusterDim)%d
	c.Caches.DirSlices = c.Clusters()
	c.Memory.Controllers = c.Caches.DirSlices
	c.Network.RThres = d / 2
	short := func(x uint8) int { return int(x%32) - 8 }
	n := &c.Network
	n.RouterDelay, n.LinkDelay = int(routerDelay%16), int(linkDelay%16)
	n.SelectDataLag, n.ONetLinkDelay = short(selectLag), short(onetDelay)
	c.Caches.L1HitCycles, c.Caches.L2HitCycles = short(l1Hit), short(l2Hit)
	c.Memory.LatencyCycles = int(memLat) - 8
	c.Coherence.Sharers = int(sharers)
	n.BufFlits = int(bufFlits % 65)
	c.Caches.L1Assoc, c.Caches.L2Assoc = int(l1Assoc%65), int(l2Assoc%65)
	return c
}

// FuzzConfigRuns: a configuration Validate accepts builds, on the serial
// kernel or on up to four shards, and runs 1k cycles of radix without a
// panic, within 10 s of host time (a slower run is a livelock: simulated
// time stopped moving). Whether the run finishes is not asked. A
// configuration Validate rejects, NewSharded rejects too.
//
// The watchdog byte arms the progress watchdog (interval 0, off, or 1–255
// cycles; 3 stalls). Only the watchdog may then end the run early, and a
// watched run it does not stop ends exactly like the unwatched run.
func FuzzConfigRuns(f *testing.F) {
	// add seeds one machine: config.Tiny() (Small() for 64 cores) with the
	// kind and mut applied, and the shard and watchdog bytes.
	add := func(kind config.NetworkKind, cores int, shards, watchdog uint8, mut func(*config.Config)) {
		c := config.Tiny()
		if cores == 64 {
			c = config.Small()
		}
		c = c.WithNetwork(kind)
		mut(&c)
		n := &c.Network
		lat := func(v int) uint8 { return uint8(v + 8) } // fuzzConfig's latency offset
		f.Add(uint8(slices.Index(fuzzKinds, kind)), uint8(c.MeshDim()-1), uint8(c.ClusterDim-1),
			uint8(n.RouterDelay), uint8(n.LinkDelay), lat(n.SelectDataLag), lat(n.ONetLinkDelay),
			lat(c.Caches.L1HitCycles), lat(c.Caches.L2HitCycles), lat(c.Memory.LatencyCycles),
			uint8(c.Coherence.Sharers), uint8(n.BufFlits), uint8(c.Caches.L1Assoc), uint8(c.Caches.L2Assoc), shards, watchdog)
	}
	none := func(*config.Config) {}
	zero := func(c *config.Config) {
		c.Network.SelectDataLag, c.Network.ONetLinkDelay = 0, 0
		c.Caches.L1HitCycles, c.Caches.L2HitCycles, c.Memory.LatencyCycles = 0, 0, 0
	}
	add(config.ATACPlus, 16, 1, 0, none)
	add(config.ATACPlus, 16, 1, 0, zero)
	add(config.ATACPlus, 16, 2, 0, zero)
	add(config.HybridMesh, 16, 2, 0, zero)
	add(config.Corona, 16, 1, 0, zero)
	add(config.EMeshPure, 16, 2, 0, zero)
	add(config.ATACPlus, 16, 1, 0, func(c *config.Config) { c.Network.SelectDataLag = -1 })
	add(config.ATACPlus, 16, 1, 0, func(c *config.Config) { c.Network.ONetLinkDelay = -5 })
	add(config.ATACPlus, 16, 1, 0, func(c *config.Config) { c.Caches.L1HitCycles = -1 })
	add(config.ATACPlus, 16, 1, 0, func(c *config.Config) { c.Caches.L2HitCycles = -3 })
	add(config.ATACPlus, 16, 1, 0, func(c *config.Config) { c.Memory.LatencyCycles = -1 })
	add(config.ATACPlus, 16, 2, 0, func(c *config.Config) { c.Network.LinkDelay = 10 })
	add(config.HybridMesh, 16, 2, 0, func(c *config.Config) { c.Network.LinkDelay = 10 })
	add(config.EMeshBCast, 64, 4, 0, none)
	add(config.ATACPlus, 16, 1, 2, none)
	add(config.ATACPlus, 16, 2, 40, none)
	f.Fuzz(func(t *testing.T, kind, dim, clusterDim, routerDelay, linkDelay, selectLag, onetDelay, l1Hit, l2Hit, memLat,
		sharers, bufFlits, l1Assoc, l2Assoc, shards, watchdog uint8) {
		cfg := fuzzConfig(kind, dim, clusterDim, routerDelay, linkDelay, selectLag, onetDelay, l1Hit, l2Hit,
			memLat, sharers, bufFlits, l1Assoc, l2Assoc)
		cfg.Fault.WatchdogInterval = int(watchdog)
		s, err := NewSharded(cfg, int(shards%4)+1)
		if verr := cfg.Validate(); verr != nil {
			if err == nil {
				t.Fatalf("NewSharded accepted a config Validate rejects: %v", verr)
			}
			return
		}
		if err != nil {
			t.Fatalf("NewSharded rejected a config Validate accepts: %v", err)
		}
		spec, err := WorkloadFor(cfg, "radix", 1)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		res, err := s.RunContext(ctx, spec, 1000)
		switch {
		case errors.Is(err, ErrRunCancelled):
			t.Fatalf("1k cycles did not finish: %v", err)
		case errors.Is(err, ErrStalled):
			if watchdog == 0 {
				t.Fatalf("unwatched run stalled: %v", err)
			}
			return
		case watchdog == 0:
			return
		}
		cfg.Fault.WatchdogInterval = 0
		u, uerr := NewSharded(cfg, int(shards%4)+1)
		if uerr != nil {
			t.Fatal(uerr)
		}
		ures, uerr := u.RunContext(ctx, spec, 1000)
		res.Cfg, ures.Cfg = config.Config{}, config.Config{}
		if fmt.Sprint(err) != fmt.Sprint(uerr) || !reflect.DeepEqual(res, ures) {
			t.Fatalf("the watchdog perturbed the run:\n%v %+v\n%v %+v", err, res, uerr, ures)
		}
		if s.eng.Now() != u.eng.Now() || s.eng.Pending() != u.eng.Pending() {
			t.Fatalf("watched run ended at cycle %d with %d queued, unwatched at %d with %d",
				s.eng.Now(), s.eng.Pending(), u.eng.Now(), u.eng.Pending())
		}
	})
}
