// Package workload provides the application programs the paper evaluates
// (Section V-A): seven SPLASH-2 kernels — radix, barnes, fmm, ocean
// (contiguous and non-contiguous) and lu (contiguous and non-contiguous) —
// plus the UHPC dynamic graph benchmark, reimplemented against the
// simulated coherent shared memory. Synchronization (barriers, ticket
// locks, spin-waits) is built from ordinary loads, stores and atomics, so
// it produces exactly the coherence traffic the paper's evaluation
// depends on: widely-shared lines, invalidation broadcasts, and lock
// ping-ponging.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/coherence"
	"repro/internal/cpu"
)

// Spec is one runnable benchmark.
type Spec struct {
	Name string
	// Init pre-loads the value store (the program's input data), like
	// binary/data pages already resident in DRAM. Caches start cold.
	Init func(vs *coherence.ValueStore)
	// Program runs on every core (it dispatches on p.ID()).
	Program cpu.Program
	// Validate checks the output against a sequential reference.
	Validate func(vs *coherence.ValueStore) error
}

// Mem is a bump allocator for the simulated shared address space. All
// allocations are cache-line aligned; Pad-allocated regions give each core
// a private line to avoid false sharing where the real benchmarks do.
type Mem struct {
	next uint64
	line uint64
}

// NewMem starts allocating at a fixed base with the given line size.
func NewMem(lineBytes int) *Mem {
	return &Mem{next: 1 << 20, line: uint64(lineBytes)}
}

// Alloc reserves n bytes, line-aligned.
func (m *Mem) Alloc(n int) uint64 {
	if n <= 0 {
		n = 8
	}
	addr := m.next
	sz := (uint64(n) + m.line - 1) / m.line * m.line
	m.next += sz
	return addr
}

// AllocWords reserves n 8-byte words.
func (m *Mem) AllocWords(n int) uint64 { return m.Alloc(n * 8) }

// Barrier is a sense-reversing centralized barrier in shared memory.
type Barrier struct {
	count uint64 // arrival counter (own line)
	sense uint64 // release flag (own line)
	n     int
}

// NewBarrier allocates a barrier for n participants.
func NewBarrier(m *Mem, n int) *Barrier {
	return &Barrier{count: m.Alloc(8), sense: m.Alloc(8), n: n}
}

// BarrierState is one core's local sense. Each core creates its own.
type BarrierState struct {
	b     *Barrier
	local uint64
}

// State returns a fresh per-core handle.
func (b *Barrier) State() *BarrierState { return &BarrierState{b: b} }

// Wait blocks until all n participants arrive. The waiters spin locally on
// the sense line: one shared line, invalidated once on release — the
// classic source of ACKwise invalidation broadcasts.
func (s *BarrierState) Wait(p *cpu.Proc) {
	s.local ^= 1
	want := s.local
	arrived := p.FetchAdd(s.b.count, 1)
	if arrived == uint64(s.b.n-1) {
		p.Store(s.b.count, 0)
		p.Store(s.b.sense, want)
		return
	}
	p.WaitUntil(s.b.sense, func(v uint64) bool { return v == want })
}

// Lock is a fair ticket lock in shared memory.
type Lock struct {
	next    uint64
	serving uint64
}

// NewLock allocates a lock.
func NewLock(m *Mem) *Lock {
	return &Lock{next: m.Alloc(8), serving: m.Alloc(8)}
}

// Acquire takes the lock, returning the ticket to pass to Release.
func (l *Lock) Acquire(p *cpu.Proc) uint64 {
	t := p.FetchAdd(l.next, 1)
	p.WaitUntil(l.serving, func(v uint64) bool { return v == t })
	return t
}

// Release hands the lock to the next ticket holder.
func (l *Lock) Release(p *cpu.Proc, ticket uint64) {
	p.Store(l.serving, ticket+1)
}

// rng returns the deterministic per-core random stream.
func rng(seed int64, core int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(core)*7919 + 1))
}

// catalog is every benchmark in one ordered table, the paper's eight in
// Fig 4 order. Name lists read it without building a workload.
var catalog = []struct {
	name  string
	build func(cores int, seed int64, scale int) Spec
}{
	{"dynamic_graph", DynamicGraph},
	{"radix", Radix},
	{"barnes", Barnes},
	{"fmm", FMM},
	{"ocean_contig", OceanContig},
	{"lu_contig", LUContig},
	{"ocean_non_contig", OceanNonContig},
	{"lu_non_contig", LUNonContig},
}

// Names returns the benchmark names in Fig 4 order.
func Names() []string {
	out := make([]string, len(catalog))
	for i, e := range catalog {
		out[i] = e.name
	}
	return out
}

// ByName builds the named benchmark.
func ByName(name string, cores int, seed int64, scale int) (Spec, error) {
	for _, e := range catalog {
		if e.name == name {
			return e.build(cores, seed, max(scale, 1)), nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// isqrt returns the integer square root used for grid partitioning.
func isqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}
