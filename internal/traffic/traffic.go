// Package traffic provides the synthetic traffic patterns used for
// network-only studies (Fig 3 uses uniform random with a broadcast
// fraction; the classic NoC patterns — transpose, bit-complement,
// neighbor, tornado, hotspot — are provided for the routing ablations).
// A Driver injects a pattern into any noc.Network at a configured load
// and measures delivery latency over a warmup/measurement window.
package traffic

import (
	"fmt"
	"math/rand"

	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Pattern maps a source core to a destination for one injected message.
// Implementations must be deterministic given the rng.
type Pattern interface {
	Name() string
	// Dst returns the destination core for a message from src, or
	// noc.BroadcastDst for a broadcast.
	Dst(src int, rng *rand.Rand) int
}

// Uniform sends to a uniformly random core (the Fig 3 workload), with an
// optional broadcast fraction.
type Uniform struct {
	Cores     int
	BcastFrac float64
}

// Name implements Pattern.
func (u Uniform) Name() string { return "uniform" }

// Dst implements Pattern.
func (u Uniform) Dst(src int, rng *rand.Rand) int {
	if u.BcastFrac > 0 && rng.Float64() < u.BcastFrac {
		return noc.BroadcastDst
	}
	return rng.Intn(u.Cores)
}

// Transpose sends (x, y) -> (y, x): long diagonal trips that stress
// dimension-ordered routing.
type Transpose struct{ Dim int }

// Name implements Pattern.
func (t Transpose) Name() string { return "transpose" }

// Dst implements Pattern.
func (t Transpose) Dst(src int, _ *rand.Rand) int {
	x, y := src%t.Dim, src/t.Dim
	return x*t.Dim + y
}

// BitComplement sends each core to its bit-complemented id: maximal
// average distance.
type BitComplement struct{ Cores int }

// Name implements Pattern.
func (b BitComplement) Name() string { return "bitcomp" }

// Dst implements Pattern.
func (b BitComplement) Dst(src int, _ *rand.Rand) int {
	return b.Cores - 1 - src
}

// Neighbor sends to the east neighbor (wrapping per row): short-range
// traffic that the ENet should always win.
type Neighbor struct{ Dim int }

// Name implements Pattern.
func (n Neighbor) Name() string { return "neighbor" }

// Dst implements Pattern.
func (n Neighbor) Dst(src int, _ *rand.Rand) int {
	x, y := src%n.Dim, src/n.Dim
	return y*n.Dim + (x+1)%n.Dim
}

// Tornado sends halfway around each row: the classic adversarial pattern
// for dimension-ordered routing.
type Tornado struct{ Dim int }

// Name implements Pattern.
func (t Tornado) Name() string { return "tornado" }

// Dst implements Pattern.
func (t Tornado) Dst(src int, _ *rand.Rand) int {
	x, y := src%t.Dim, src/t.Dim
	return y*t.Dim + (x+t.Dim/2)%t.Dim
}

// Hotspot sends a fraction of traffic to one hot core and the rest
// uniformly: models a contended directory or memory controller.
type Hotspot struct {
	Cores   int
	Hot     int
	HotFrac float64
}

// Name implements Pattern.
func (h Hotspot) Name() string { return "hotspot" }

// Dst implements Pattern.
func (h Hotspot) Dst(src int, rng *rand.Rand) int {
	if rng.Float64() < h.HotFrac {
		return h.Hot
	}
	return rng.Intn(h.Cores)
}

// patterns is the one list of pattern names, each with its constructor
// for a square mesh of dim x dim cores.
var patterns = []struct {
	name string
	make func(dim int, bcastFrac float64) Pattern
}{
	{"uniform", func(dim int, bcastFrac float64) Pattern { return Uniform{Cores: dim * dim, BcastFrac: bcastFrac} }},
	{"transpose", func(dim int, _ float64) Pattern { return Transpose{Dim: dim} }},
	{"bitcomp", func(dim int, _ float64) Pattern { return BitComplement{Cores: dim * dim} }},
	{"neighbor", func(dim int, _ float64) Pattern { return Neighbor{Dim: dim} }},
	{"tornado", func(dim int, _ float64) Pattern { return Tornado{Dim: dim} }},
	{"hotspot", func(dim int, _ float64) Pattern { return Hotspot{Cores: dim * dim, Hot: dim * dim / 2, HotFrac: 0.2} }},
}

// ByName constructs a pattern for a square mesh of dim x dim cores.
func ByName(name string, dim int, bcastFrac float64) (Pattern, error) {
	for _, p := range patterns {
		if p.name == name {
			return p.make(dim, bcastFrac), nil
		}
	}
	return nil, fmt.Errorf("traffic: unknown pattern %q", name)
}

// Patterns lists the available pattern names.
func Patterns() []string {
	names := make([]string, len(patterns))
	for i, p := range patterns {
		names[i] = p.name
	}
	return names
}

// Result summarizes one measurement window.
type Result struct {
	Pattern   string
	Load      float64 // offered flits/cycle/core
	Injected  uint64  // messages injected in the measurement window
	Delivered uint64  // deliveries observed after warmup
	Latency   stats.Hist
}

// Drive injects the pattern into net at `load` flits per cycle per core
// for warmup+measure cycles, then lets the network drain (bounded by
// drainLimit extra cycles) and returns latency statistics for deliveries
// initiated after warmup. Messages are single-flit unless bits overrides.
//
// Injection is one kernel event per cycle, all scheduled before the run in
// cycle order; each draws its cycle's (Float64, Dst) pairs in core order
// and sends. That is the same run as one event per message scheduled the
// same way — the cycle's event sits exactly where that contiguous block
// of events would, and the private rng is drawn in the same (cycle, core)
// order — with a queue of O(warmup+measure) events instead of O(messages).
// A self-rescheduling injector is not the same run: Schedule(1, ...) from
// cycle t joins bucket t+1 behind whatever cycle t already put there.
func Drive(k *sim.Kernel, net noc.Network, cores int, p Pattern, load float64,
	bits int, warmup, measure, drainLimit sim.Time, seed int64) Result {

	if bits <= 0 {
		bits = 64
	}
	rng := rand.New(rand.NewSource(seed))
	res := Result{Pattern: p.Name(), Load: load}

	net.SetDeliver(func(dst int, m *noc.Message) {
		if m.Inject >= warmup {
			res.Delivered++
			res.Latency.Add(uint64(k.Now() - m.Inject))
		}
	})

	inject := func() {
		for c := 0; c < cores; c++ {
			if rng.Float64() >= load {
				continue
			}
			dst := p.Dst(c, rng)
			if k.Now() >= warmup {
				res.Injected++
			}
			net.Send(&noc.Message{Src: c, Dst: dst, Bits: bits})
		}
	}
	horizon := warmup + measure
	for t := sim.Time(0); t < horizon; t++ {
		k.At(t, inject)
	}
	k.Run(horizon + drainLimit)
	return res
}
