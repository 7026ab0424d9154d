// Sharded execution: partitioning a machine onto the window-synchronized
// engine (internal/sim.Sharded), which runs each window's shards one after
// another on the calling goroutine. The mesh is cut into horizontal slabs of whole
// cluster rows, so a cluster — its cores, its directory slice and memory
// controller hosts, and its ONet hub — always lives on one shard, and the
// only cross-shard interactions are ENet link/credit crossings at the slab
// boundaries and hub-to-hub optical deliveries. Both are at least one
// LinkDelay in the future, which is exactly the engine's conservative
// lookahead, so every cross-shard effect lands beyond the synchronization
// window it was produced in and the sharded run replays the serial event
// order bit for bit.
package system

import (
	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/sim"
)

// engine is the event-execution surface RunContext drives, satisfied by
// both the serial *sim.Kernel and the sharded *sim.Sharded.
type engine interface {
	Run(until sim.Time) int
	Now() sim.Time
	Pending() int
	SetEventBudget(n uint64)
	SetPoll(every uint64, fn func() error)
	Stopped() error
}

// EffectiveShards returns the shard count actually usable for cfg when
// want shards are requested: the largest divisor of the mesh's cluster-row
// count not exceeding want (shards are equal slabs of cluster rows).
// Returns 1 when want <= 1 or no division is possible.
func EffectiveShards(cfg *config.Config, want int) int {
	rows := cfg.ClusterGrid()
	if want > rows {
		want = rows
	}
	for ; want > 1; want-- {
		if rows%want == 0 {
			return want
		}
	}
	return 1
}

// shardMap assigns each core to a shard: eff equal horizontal slabs of
// cluster rows. eff must divide the cluster-row count (EffectiveShards
// guarantees it).
func shardMap(cfg *config.Config, eff int) []int {
	cw := cfg.ClusterGrid()
	rowsPer := cw / eff
	of := make([]int, cfg.Cores)
	for t := range of {
		of[t] = cfg.ClusterOf(t) / cw / rowsPer
	}
	return of
}

// NewSharded builds a machine like New and, when shards > 1 and the
// configuration permits, partitions it onto a sharded engine with that
// many shards (rounded down to the nearest feasible count — see
// EffectiveShards). The result is bit-identical to a serial run: the
// conservative synchronizer only admits event orderings the serial kernel
// would also produce.
//
// Fault-injected configurations always run serially: the injector draws
// from one global RNG stream, whose draw order is a cross-shard total
// order no conservative window schedule can reproduce. So does a fabric
// that does not implement Partition — the Corona crossbar: its home
// channels are token-ordered resources written by every cluster, shared
// state no spatial partition can cut — and an optical fabric whose
// optical hop (noc.OpticalHop) is shorter than the lookahead, whose
// deliveries would land inside the window that sent them.
func NewSharded(cfg config.Config, shards int) (*System, error) {
	s, err := New(cfg)
	if err != nil || shards <= 1 || cfg.Fault.Enabled {
		return s, err
	}
	net, ok := s.Net.(interface{ Partition(*sim.Domain) })
	eff := EffectiveShards(&s.Cfg, shards)
	if !ok || eff <= 1 {
		return s, nil
	}
	look := sim.Time(s.Cfg.Network.LinkDelay) // >= 1: New validated cfg
	if s.Cfg.Network.Kind.HasPhotonics() && noc.OpticalHop(&s.Cfg.Network) < look {
		return s, nil
	}
	sh := sim.NewSharded(eff, look)
	dom := sim.NewDomain(sh, shardMap(&s.Cfg, eff))
	net.Partition(dom) // an optical fabric partitions its embedded mesh too
	s.Coh.Partition(dom)
	for i, c := range s.Core {
		c.K = dom.K(i)
	}
	s.K = dom.ShardK(0)
	s.sh = sh
	s.eng = sh
	s.Shards = eff
	return s, nil
}
