package system

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := config.Tiny()
	cfg.Cores = 15 // not a perfect square
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestNewBuildsAllNetworkKinds(t *testing.T) {
	for _, k := range []config.NetworkKind{config.EMeshPure, config.EMeshBCast, config.ATAC, config.ATACPlus} {
		cfg := config.Tiny().WithNetwork(k)
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if (s.Atac != nil) != k.IsOptical() {
			t.Errorf("%v: Atac presence mismatch", k)
		}
		if len(s.Core) != cfg.Cores {
			t.Errorf("%v: %d cores", k, len(s.Core))
		}
	}
}

// TestNewAllocatesLittleAtPaperScale guards host memory at the paper's
// geometry: building the 1024-core machine allocates no cache tag storage
// until a run fills it, so setup stays far below the ≈ 38 MB that tags
// allocated up front would cost (a core's dense L1-D and L2 tags are
// 4608 8-byte entries, 37 KB).
func TestNewAllocatesLittleAtPaperScale(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := New(config.Default())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 16 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("New at %d cores allocated %.1f MB, budget %d MB", len(s.Core), float64(got)/(1<<20), budget>>20)
	}
}

func TestRunHorizonAbort(t *testing.T) {
	cfg := config.Tiny()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.ByName("radix", cfg.Cores, cfg.Seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(spec, 100) // far too short
	if err == nil {
		t.Fatal("horizon abort did not error")
	}
	if res.Finished {
		t.Fatal("result claims finished")
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	res, err := RunBenchmark(config.Tiny(), "fmm", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ipc := res.IPC(); ipc <= 0 || ipc > 1 {
		t.Errorf("IPC = %v, want in (0,1] for an in-order single-issue core", ipc)
	}
	if res.OfferedLoad() <= 0 {
		t.Error("offered load must be positive")
	}
	if f := res.BroadcastRecvFraction(); f < 0 || f > 1 {
		t.Errorf("broadcast fraction %v", f)
	}
	if res.LinkUtilization <= 0 || res.LinkUtilization > 1 {
		t.Errorf("link utilization %v", res.LinkUtilization)
	}
}

func TestRunBenchmarkUnknownName(t *testing.T) {
	if _, err := RunBenchmark(config.Tiny(), "nope", 1, 0); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestZeroMetricsOnEmptyResult(t *testing.T) {
	var r Result
	if r.IPC() != 0 || r.OfferedLoad() != 0 || r.BroadcastRecvFraction() != 0 {
		t.Error("zero result must produce zero metrics")
	}
}

func TestRunContextCancellation(t *testing.T) {
	cfg := config.Tiny()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.ByName("radix", cfg.Cores, cfg.Seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("per-run deadline")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	res, err := s.RunContext(ctx, spec, 0)
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if !errors.Is(err, ErrRunCancelled) {
		t.Fatalf("error does not wrap ErrRunCancelled: %v", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("error does not carry the cancellation cause: %v", err)
	}
	if res.Finished {
		t.Fatal("cancelled run claims to have finished")
	}
}

func TestRunContextBackgroundUnperturbed(t *testing.T) {
	// A background context must take the poll-free path and reproduce the
	// plain Run result bit for bit.
	cfg := config.Tiny()
	run := func(ctx context.Context) Result {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := workload.ByName("radix", cfg.Cores, cfg.Seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		if ctx == nil {
			res, err = s.Run(spec, 0)
		} else {
			res, err = s.RunContext(ctx, spec, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	polled := run(ctx) // cancellable, but never cancelled
	if !reflect.DeepEqual(plain, polled) {
		t.Fatalf("cancellable context perturbed the run:\n%+v\n%+v", plain, polled)
	}
}
