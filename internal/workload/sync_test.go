package workload_test

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// syncFixture builds bare cores over a mesh for driving the shared-memory
// synchronization primitives directly.
func syncFixture(t *testing.T) (*sim.Kernel, []*cpu.Core) {
	t.Helper()
	cfg := config.Tiny()
	var k sim.Kernel
	n := &cfg.Network
	mesh := noc.NewMesh(&k, cfg.MeshDim(), n.FlitBits, n.BufFlits, n.RouterDelay, n.LinkDelay, true)
	coh := coherence.NewSystem(&k, &cfg, mesh)
	cores := make([]*cpu.Core, cfg.Cores)
	for i := range cores {
		cores[i] = cpu.NewCore(i, &k, coh)
	}
	return &k, cores
}

func TestBarrierSynchronizes(t *testing.T) {
	k, cores := syncFixture(t)
	m := workload.NewMem(64)
	bar := workload.NewBarrier(m, len(cores))
	// Every core computes for a different duration, then hits the
	// barrier; no core may pass before the slowest arrives.
	var passTimes [16]sim.Time
	for i, c := range cores {
		i := i
		c.Start(func(p *cpu.Proc) {
			st := bar.State()
			p.Compute(int64(10 + 100*p.ID()))
			st.Wait(p)
			passTimes[i] = 0 // placeholder; real time read at finish
		}, func(c *cpu.Core) { passTimes[i] = c.FinishTime })
	}
	k.RunAll()
	// The slowest core computes 10+100*15 = 1510 cycles; nobody may
	// finish before that.
	for i, tm := range passTimes {
		if tm < 1510 {
			t.Fatalf("core %d passed the barrier at %d, before the slowest arrival", i, tm)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	k, cores := syncFixture(t)
	m := workload.NewMem(64)
	bar := workload.NewBarrier(m, len(cores))
	const rounds = 4
	counter := m.Alloc(8)
	violated := false
	for _, c := range cores {
		c.Start(func(p *cpu.Proc) {
			st := bar.State()
			for r := 0; r < rounds; r++ {
				p.FetchAdd(counter, 1)
				st.Wait(p)
				// Between barriers, the counter must be a full multiple
				// of the participant count.
				if v := p.Load(counter); v%(uint64(len(cores))) != 0 {
					violated = true
				}
				st.Wait(p)
			}
		}, nil)
	}
	k.RunAll()
	if violated {
		t.Fatal("barrier round separation violated")
	}
}

func TestTicketLockMutualExclusion(t *testing.T) {
	k, cores := syncFixture(t)
	m := workload.NewMem(64)
	lock := workload.NewLock(m)
	shared := m.Alloc(8) // non-atomic read-modify-write under the lock
	const per = 8
	for _, c := range cores {
		c.Start(func(p *cpu.Proc) {
			for i := 0; i < per; i++ {
				tk := lock.Acquire(p)
				v := p.Load(shared)
				p.Compute(5) // widen the race window
				p.Store(shared, v+1)
				lock.Release(p, tk)
			}
		}, nil)
	}
	k.RunAll()
	// Without mutual exclusion the plain load+store pairs would lose
	// updates; with it the count is exact.
	if got := cores[0].Coh.Vals.Read(shared); got != uint64(len(cores)*per) {
		t.Fatalf("critical-section count %d, want %d (lock broken)", got, len(cores)*per)
	}
}

func TestLockFairnessFIFO(t *testing.T) {
	k, cores := syncFixture(t)
	m := workload.NewMem(64)
	lock := workload.NewLock(m)
	orderSlot := m.Alloc(8)
	order := make([]uint64, 0, 16)
	// Cores stagger their acquisition attempts; the ticket lock must
	// grant in arrival order.
	for i, c := range cores {
		i := i
		c.Start(func(p *cpu.Proc) {
			p.Compute(int64(1 + 50*i)) // stagger arrivals
			tk := lock.Acquire(p)
			v := p.FetchAdd(orderSlot, 1)
			order = append(order, v)
			_ = v
			lock.Release(p, tk)
		}, nil)
	}
	k.RunAll()
	if len(order) != 16 {
		t.Fatalf("only %d acquisitions", len(order))
	}
	for i, v := range order {
		if v != uint64(i) {
			t.Fatalf("acquisition %d saw sequence %d: not FIFO", i, v)
		}
	}
}

func TestWorkloadsAtScaleTwo(t *testing.T) {
	// The scale knob must keep every kernel valid.
	for _, spec := range specs(t, workload.Names(), 16, 11, 2) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			runAndValidate(t, spec, config.ATACPlus)
		})
	}
}
