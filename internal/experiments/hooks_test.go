package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/config"
)

// TestEpochEvents drives the live-progress path the serving daemon streams
// over SSE: with EpochCycles and Events set, a fresh run emits one epoch
// event per closed epoch, their clocks rise to the run's end, their
// instruction deltas add up to the run's instructions, and observing the
// run leaves its result byte-identical to an unobserved one. The last epoch
// closes at the run's cycle count, not at the epoch boundary after it.
func TestEpochEvents(t *testing.T) {
	cfg := testCampaignOpts().Config(config.ATACPlus)
	observed := testCampaignRunner()
	observed.EpochCycles = 2000
	var epochs []RunEvent
	observed.Events = func(ev RunEvent) {
		if ev.Phase == PhaseEpoch {
			epochs = append(epochs, ev)
		}
	}
	res, err := observed.Run(cfg, "radix")
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) < 2 {
		t.Fatalf("%d epoch events for a %d-cycle run at 2000 cycles per epoch", len(epochs), res.Cycles)
	}
	var cycles, instr uint64
	for i, ev := range epochs {
		if ev.Epoch != i || ev.Cycles <= cycles || ev.Instructions < instr {
			t.Fatalf("epoch event %d out of order: %+v after cycle %d, %d instructions", i, ev, cycles, instr)
		}
		cycles, instr = ev.Cycles, ev.Instructions
	}
	if cycles != uint64(res.Cycles) || instr != res.Instructions {
		t.Errorf("epochs end at cycle %d with %d instructions; the run took %d cycles and %d instructions",
			cycles, instr, res.Cycles, res.Instructions)
	}

	plain, err := testCampaignRunner().Run(cfg, "radix")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(res)
	want, _ := json.Marshal(plain)
	if !bytes.Equal(got, want) {
		t.Error("observing the run changed its result")
	}
}
