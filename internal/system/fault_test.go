package system

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestWatchdogDetectsDeadlock runs a workload whose cores all block on an
// address nobody ever writes. The watchdog must terminate the run long
// before the (enormous) horizon and name the stuck cores.
func TestWatchdogDetectsDeadlock(t *testing.T) {
	cfg := config.Tiny()
	cfg.Fault.WatchdogInterval = 1000
	cfg.Fault.WatchdogStalls = 3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{
		Name: "always-blocks",
		Program: func(p *cpu.Proc) {
			// Address 0 stays zero forever: every core sleeps on it.
			p.WaitUntil(0, func(v uint64) bool { return v != 0 })
		},
	}
	res, err := s.Run(spec, sim.Forever/2)
	if err == nil {
		t.Fatal("deadlocked run returned no error")
	}
	if res.Finished {
		t.Fatal("result claims finished")
	}
	msg := err.Error()
	if !strings.Contains(msg, "watchdog") || !strings.Contains(msg, "no progress") {
		t.Fatalf("error is not a watchdog diagnosis: %v", err)
	}
	// Every core is stuck; the dump must name them with their wait state.
	if !strings.Contains(msg, "core 0:") || !strings.Contains(msg, "waiting on") {
		t.Fatalf("diagnosis lacks per-core blocked state: %v", err)
	}
	// The trip must be prompt: a handful of watchdog windows, not the horizon.
	if got := s.K.Now(); got > 100*1000 {
		t.Fatalf("watchdog let the run reach cycle %d", got)
	}
	// Cycles must reflect simulated time, not the zero last-finish.
	if res.Cycles != s.K.Now() {
		t.Fatalf("Cycles = %d, want clock %d", res.Cycles, s.K.Now())
	}
}

// TestWatchdogQuietOnHealthyRun arms the watchdog on a normal benchmark:
// it must never trip, and the result must match an unwatched run exactly
// (watchdog sampling is observation-only).
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	base := config.Tiny()
	watched := base
	watched.Fault.WatchdogInterval = 500
	watched.Fault.WatchdogStalls = 3
	r1, err := RunBenchmark(base, "radix", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunBenchmark(watched, "radix", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1.Cfg, r2.Cfg = config.Config{}, config.Config{}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("watchdog perturbed the run:\n%+v\n%+v", r1, r2)
	}
}

// TestEventBudgetBoundsRun caps a healthy run at a tiny event budget and
// expects the sentinel error.
func TestEventBudgetBoundsRun(t *testing.T) {
	cfg := config.Tiny()
	cfg.Fault.EventBudget = 500
	_, err := RunBenchmark(cfg, "radix", 1, 0)
	if !errors.Is(err, sim.ErrEventBudget) {
		t.Fatalf("err = %v, want ErrEventBudget", err)
	}
}

// TestFaultRunsDeterministic: same config+seed => byte-identical Result
// across independent runs, for both an electrical and an optical fabric
// with fault injection active.
func TestFaultRunsDeterministic(t *testing.T) {
	for _, kind := range []config.NetworkKind{config.EMeshPure, config.ATACPlus} {
		cfg := config.Tiny().WithNetwork(kind)
		cfg.Fault = config.Fault{
			Enabled:          true,
			MeshBER:          1e-5,
			OpticalBER:       1e-4,
			DriftPeriod:      5000,
			DriftDuty:        500,
			DriftBERMult:     10,
			DegradeThreshold: 0.05,
			Seed:             42,
		}
		r1, err := RunBenchmark(cfg, "radix", 1, 0)
		if err != nil {
			t.Fatalf("%v run 1: %v", kind, err)
		}
		r2, err := RunBenchmark(cfg, "radix", 1, 0)
		if err != nil {
			t.Fatalf("%v run 2: %v", kind, err)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("%v: fault runs diverged:\n%+v\n%+v", kind, r1, r2)
		}
	}
}

// TestFaultsPreserveCorrectness: the retry/reroute machinery must be
// transparent to the coherence protocol — the workload's validated output
// stays correct under aggressive fault rates on both fabric families.
func TestFaultsPreserveCorrectness(t *testing.T) {
	for _, kind := range []config.NetworkKind{config.EMeshPure, config.ATACPlus} {
		cfg := config.Tiny().WithNetwork(kind)
		cfg.Fault = config.Fault{
			Enabled:          true,
			MeshBER:          1e-4,
			OpticalBER:       1e-3,
			DegradeThreshold: 0.02,
			DegradeWindow:    256,
		}
		res, err := RunBenchmark(cfg, "radix", 1, 0)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !res.Net.FaultEvents() {
			t.Errorf("%v: no fault events at these rates", kind)
		}
	}
}

// TestWatchdogStallsDefault: WatchdogStalls 0 means 3, so a deadlocked run
// with only the interval set trips with the same report as stalls 3.
func TestWatchdogStallsDefault(t *testing.T) {
	cfg := config.Tiny()
	cfg.Fault.WatchdogInterval = 1000
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(blockedSpec(cfg), sim.Forever/2)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want a watchdog stall", err)
	}
	if want := pinnedStopErrors()["watchdog"][0]; err.Error() != want {
		t.Fatalf("error text:\n got %q\nwant %q", err, want)
	}
}

// TestWatchedRunEndsLikeUnwatched: the watchdog is a check between engine
// runs, so a healthy watched run leaves the engine exactly as an unwatched
// one does — clock at the horizon, nothing queued, nothing latched — on
// the serial kernel and on 2 shards.
func TestWatchedRunEndsLikeUnwatched(t *testing.T) {
	for _, shards := range []int{1, 2} {
		type end struct {
			now     sim.Time
			pending int
			stopped error
		}
		run := func(interval int) end {
			cfg := config.Tiny()
			cfg.Fault.WatchdogInterval = interval
			s, err := NewSharded(cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			if s.Shards != shards {
				t.Fatalf("machine runs on %d shards, want %d", s.Shards, shards)
			}
			if _, err := s.Run(radixSpec(cfg), 0); err != nil {
				t.Fatal(err)
			}
			return end{s.eng.Now(), s.eng.Pending(), s.eng.Stopped()}
		}
		unwatched, watched := run(0), run(500)
		if watched != unwatched || unwatched != (end{now: sim.Forever}) {
			t.Errorf("shards=%d: watched run ended at %+v, unwatched at %+v", shards, watched, unwatched)
		}
	}
}
