package system

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// TestShardedRunStartsNoGoroutines: a 2-shard run executes its windows on
// the calling goroutine. At the barriers the goroutine count is the count
// before Run plus one program coroutine per unfinished core. The least
// excess over all barriers is checked, so a goroutine of another test
// that exits, or a finalizer that runs, during the run cannot fail it; a
// goroutine that lives through the run can.
func TestShardedRunStartsNoGoroutines(t *testing.T) {
	cfg := config.Tiny()
	s, err := NewSharded(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards != 2 {
		t.Fatalf("effective shards = %d, want 2", s.Shards)
	}
	spec, err := WorkloadFor(cfg, "radix", 1)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	barriers, extra := 0, 0
	s.sh.AddBarrierHook(func(sim.Time) {
		_, unfinished := s.lastFinish()
		if n := runtime.NumGoroutine() - unfinished - before; barriers == 0 || n < extra {
			extra = n
		}
		barriers++
	})
	if _, err := s.Run(spec, 0); err != nil {
		t.Fatal(err)
	}
	if barriers == 0 {
		t.Fatal("no window barrier ran")
	}
	if extra > 0 {
		t.Fatalf("%d goroutines beyond the cores' program coroutines during the run", extra)
	}
}
