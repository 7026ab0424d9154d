package cpu

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/sim"
)

func fixture(t testing.TB) (*sim.Kernel, *coherence.System, []*Core) {
	t.Helper()
	cfg := config.Tiny()
	cfg.Network.Kind = config.EMeshBCast
	var k sim.Kernel
	n := &cfg.Network
	mesh := noc.NewMesh(&k, cfg.MeshDim(), n.FlitBits, n.BufFlits, n.RouterDelay, n.LinkDelay, true)
	coh := coherence.NewSystem(&k, &cfg, mesh)
	cores := make([]*Core, cfg.Cores)
	for i := range cores {
		cores[i] = NewCore(i, &k, coh)
	}
	return &k, coh, cores
}

func TestComputeTiming(t *testing.T) {
	k, _, cores := fixture(t)
	var end sim.Time
	cores[0].Start(func(p *Proc) {
		p.Compute(100)
	}, func(c *Core) { end = c.FinishTime })
	k.RunAll()
	if end < 100 || end > 105 {
		t.Errorf("100-instruction program finished at %d", end)
	}
	if cores[0].Instructions != 100 {
		t.Errorf("Instructions = %d, want 100", cores[0].Instructions)
	}
}

func TestLoadStoreThroughCore(t *testing.T) {
	k, coh, cores := fixture(t)
	var got uint64
	cores[0].Start(func(p *Proc) {
		p.Store(0x100, 7)
		got = p.Load(0x100)
	}, nil)
	k.RunAll()
	if got != 7 {
		t.Errorf("load = %d, want 7", got)
	}
	if coh.Vals.Read(0x100) != 7 {
		t.Error("value store not updated")
	}
	if !cores[0].Finished {
		t.Error("core did not finish")
	}
}

func TestCrossCoreCommunication(t *testing.T) {
	k, _, cores := fixture(t)
	var seen uint64
	cores[0].Start(func(p *Proc) {
		p.Compute(50)
		p.Store(0x200, 99)
	}, nil)
	cores[1].Start(func(p *Proc) {
		seen = p.WaitUntil(0x200, func(v uint64) bool { return v != 0 })
	}, nil)
	k.RunAll()
	if seen != 99 {
		t.Errorf("waiter saw %d, want 99", seen)
	}
}

func TestFetchAddAcrossCores(t *testing.T) {
	k, coh, cores := fixture(t)
	const per = 20
	for _, c := range cores {
		c.Start(func(p *Proc) {
			for i := 0; i < per; i++ {
				p.FetchAdd(0x300, 1)
			}
		}, nil)
	}
	k.RunAll()
	want := uint64(len(cores) * per)
	if got := coh.Vals.Read(0x300); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
}

func TestAllCoresFinish(t *testing.T) {
	k, _, cores := fixture(t)
	finished := 0
	for _, c := range cores {
		c.Start(func(p *Proc) {
			p.Compute(int64(10 + p.ID()))
			p.Store(uint64(0x1000+p.ID()*64), uint64(p.ID()))
		}, func(*Core) { finished++ })
	}
	k.RunAll()
	if finished != len(cores) {
		t.Fatalf("%d of %d cores finished", finished, len(cores))
	}
}

func TestRMWReturnsOld(t *testing.T) {
	k, _, cores := fixture(t)
	var old uint64
	cores[2].Start(func(p *Proc) {
		p.Store(0x400, 10)
		old = p.RMW(0x400, func(v uint64) uint64 { return v * 3 })
	}, nil)
	k.RunAll()
	if old != 10 {
		t.Errorf("RMW old = %d, want 10", old)
	}
}

func TestKillAbandonedProgram(t *testing.T) {
	k, _, cores := fixture(t)
	before := runtime.NumGoroutine()
	spinnerFinished := false
	cores[0].Start(func(p *Proc) {
		// Spin on a flag that is set only after the core was killed.
		p.WaitUntil(0x500, func(v uint64) bool { return v == 1 })
	}, func(*Core) { spinnerFinished = true })
	cores[1].Start(func(p *Proc) {
		p.Compute(20000)
		p.Store(0x500, 1)
	}, nil)
	// Let the spinner load the flag and park on its Shared copy.
	k.Run(10000)
	if cores[0].Finished {
		t.Fatal("spinner should not finish")
	}
	cores[0].Kill()
	cores[0].Kill() // idempotent
	cores[2].Kill() // never started
	// The kernel must drain without the spinner, dropping the wake-up the
	// store delivers to its parked WaitChange.
	k.RunAll()
	if !cores[1].Finished {
		t.Fatal("other core blocked by spinner")
	}
	if cores[0].Finished || spinnerFinished {
		t.Error("a completion after Kill was taken for the program finishing")
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Errorf("%d goroutines after the run, %d before Start", got, before)
	}
}

func TestProgramPanicSurfacesInKernelEvent(t *testing.T) {
	k, _, cores := fixture(t)
	cores[0].Start(func(p *Proc) {
		p.Compute(5)
		panic("boom")
	}, nil)
	defer func() {
		r := recover()
		if s, _ := r.(string); !strings.Contains(s, "boom") || !strings.Contains(s, "core 0") {
			t.Errorf("kernel saw panic %v, want the program's", r)
		}
		if cores[0].Finished {
			t.Error("a panicked program counts as finished")
		}
	}()
	k.RunAll()
}

// steadyState runs one program that issues op forever and returns the
// kernel, stepped past the cold start, so that every further k.Step() is
// one completed op.
func steadyState(tb testing.TB, op func(p *Proc)) *sim.Kernel {
	k, _, cores := fixture(tb)
	cores[0].Start(func(p *Proc) {
		for {
			op(p)
		}
	}, nil)
	tb.Cleanup(cores[0].Kill)
	k.Run(10000)
	return k
}

func computeOp(p *Proc) { p.Compute(1) }
func l1HitLoad(p *Proc) { p.Load(0x100) }

// The core's own per-op cost is zero objects: a Compute op allocates
// nothing, and neither does an L1-hit Load, whose completion coherence
// schedules through the controller's one bound completion event.
func TestOpAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		op     func(*Proc)
		budget float64
	}{
		{"Compute", computeOp, 0},
		{"L1HitLoad", l1HitLoad, 0},
	} {
		k := steadyState(t, tc.op)
		if got := testing.AllocsPerRun(1000, func() { k.Step() }); got != tc.budget {
			t.Errorf("%s: %v allocs/op, want %v", tc.name, got, tc.budget)
		}
	}
}

func benchmarkOp(b *testing.B, op func(*Proc)) {
	k := steadyState(b, op)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

func BenchmarkComputeOp(b *testing.B) { benchmarkOp(b, computeOp) }
func BenchmarkL1HitLoad(b *testing.B) { benchmarkOp(b, l1HitLoad) }

func TestDeterministicExecution(t *testing.T) {
	run := func() (sim.Time, uint64) {
		k, coh, cores := fixture(t)
		for _, c := range cores {
			c.Start(func(p *Proc) {
				for i := 0; i < 10; i++ {
					p.FetchAdd(0x600, uint64(p.ID()))
					p.Compute(3)
				}
			}, nil)
		}
		k.RunAll()
		return k.Now(), coh.Vals.Read(0x600)
	}
	t1, v1 := run()
	t2, v2 := run()
	if t1 != t2 || v1 != v2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", t1, v1, t2, v2)
	}
}

func TestInstructionCountsMemoryOps(t *testing.T) {
	k, _, cores := fixture(t)
	cores[0].Start(func(p *Proc) {
		p.Compute(5)
		p.Store(0x700, 1)
		p.Load(0x700)
		p.FetchAdd(0x700, 1)
	}, nil)
	k.RunAll()
	if got := cores[0].Instructions; got != 8 {
		t.Errorf("Instructions = %d, want 8 (5 ALU + 3 memory)", got)
	}
}
