package system

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// stopCase is one way a run can end early, and the exact error it must
// end with. Journals record these texts and resumed campaigns replay them
// verbatim into degraded figures, so they are pinned byte for byte.
type stopCase struct {
	name    string
	cfg     func(*config.Config)
	spec    func(cfg config.Config) workload.Spec
	ctx     func() context.Context
	horizon sim.Time
	class   error // the errors.Is class; nil for a horizon overrun
}

var errPinnedCause = errors.New("pinned cause")

func radixSpec(cfg config.Config) workload.Spec {
	spec, err := workload.ByName("radix", cfg.Cores, cfg.Seed, 1)
	if err != nil {
		panic(err)
	}
	return spec
}

func blockedSpec(config.Config) workload.Spec {
	return workload.Spec{
		Name: "always-blocks",
		Program: func(p *cpu.Proc) {
			p.WaitUntil(0, func(v uint64) bool { return v != 0 })
		},
	}
}

func stopCases() []stopCase {
	return []stopCase{
		{
			name: "watchdog",
			cfg: func(c *config.Config) {
				c.Fault.WatchdogInterval = 1000
				c.Fault.WatchdogStalls = 3
			},
			spec:    blockedSpec,
			horizon: sim.Forever / 2,
			class:   ErrStalled,
		},
		{
			name:  "budget",
			cfg:   func(c *config.Config) { c.Fault.EventBudget = 500 },
			spec:  radixSpec,
			class: sim.ErrEventBudget,
		},
		{
			name: "cancel",
			spec: radixSpec,
			ctx: func() context.Context {
				ctx, cancel := context.WithCancelCause(context.Background())
				cancel(errPinnedCause)
				return ctx
			},
			class: ErrRunCancelled,
		},
		{
			name:    "horizon",
			spec:    radixSpec,
			horizon: 1000,
		},
	}
}

// TestStopCausePinned ends a 16-core run early in each of the four ways —
// watchdog stall, event budget, context cancellation, horizon overrun —
// on the serial kernel and on 2 shards, and checks the exact error text
// and its class: each early end wraps exactly its own sentinel.
func TestStopCausePinned(t *testing.T) {
	want := pinnedStopErrors()
	for _, tc := range stopCases() {
		for i, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				cfg := config.Tiny()
				if tc.cfg != nil {
					tc.cfg(&cfg)
				}
				s, err := NewSharded(cfg, shards)
				if err != nil {
					t.Fatal(err)
				}
				if s.Shards != shards {
					t.Fatalf("machine runs on %d shards, want %d", s.Shards, shards)
				}
				ctx := context.Background()
				if tc.ctx != nil {
					ctx = tc.ctx()
				}
				res, err := s.RunContext(ctx, tc.spec(cfg), tc.horizon)
				if err == nil {
					t.Fatal("run ended early without an error")
				}
				if res.Finished {
					t.Fatal("result claims finished")
				}
				if got := err.Error(); got != want[tc.name][i] {
					t.Errorf("error text:\n got %q\nwant %q", got, want[tc.name][i])
				}
				for _, class := range []error{ErrStalled, sim.ErrEventBudget, ErrRunCancelled} {
					if errors.Is(err, class) != (class == tc.class) {
						t.Errorf("errors.Is(err, %q) = %v", class, errors.Is(err, class))
					}
				}
				if tc.class == ErrRunCancelled && !errors.Is(err, errPinnedCause) {
					t.Errorf("cancellation lost its cause: %v", err)
				}
			})
		}
	}
}

// pinnedStopErrors is the exact error of each stopCase, serial first.
func pinnedStopErrors() map[string][2]string {
	stall := "system: always-blocks: watchdog stall: no progress for 3000 cycles " +
		"(instr=16, delivered=64) at cycle 6000; stuck cores:"
	for c := 0; c < 16; c++ {
		stall += fmt.Sprintf("\n  core %d: waiting on 1 line(s) 0x0", c)
	}
	cancelled := "system: radix: run cancelled at cycle 0 (0 instructions retired): pinned cause"
	horizon := "system: radix: 16 cores unfinished at horizon 1000"
	return map[string][2]string{
		"watchdog": {stall, stall},
		"budget": {
			"system: radix: sim: event budget exhausted after 500 events at cycle 133",
			"system: radix: sim: event budget exhausted after 500 events at cycle 131",
		},
		"cancel":  {cancelled, cancelled},
		"horizon": {horizon, horizon},
	}
}
