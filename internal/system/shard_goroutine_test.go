package system

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/metrics"
)

// TestShardedRunStartsNoGoroutines: a 2-shard run executes its windows on
// the calling goroutine. At every metrics epoch the goroutine count is the
// count before Run plus one program coroutine per unfinished core. The
// least excess over all epochs is checked, so a goroutine of another test
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
	c := metrics.New(s.Clock(), 100)
	s.AttachMetrics(c)
	before := runtime.NumGoroutine()
	epochs, extra := 0, 0
	c.Subscribe(func(int, metrics.Row) {
		_, unfinished := s.lastFinish()
		if n := runtime.NumGoroutine() - unfinished - before; epochs == 0 || n < extra {
			extra = n
		}
		epochs++
	})
	if _, err := s.Run(spec, 0); err != nil {
		t.Fatal(err)
	}
	if epochs == 0 {
		t.Fatal("no metrics epoch closed")
	}
	if extra > 0 {
		t.Fatalf("%d goroutines beyond the cores' program coroutines during the run", extra)
	}
}
