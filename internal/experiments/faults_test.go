package experiments

import (
	"testing"

	"repro/internal/config"
)

func TestFaultSweepShape(t *testing.T) {
	r := NewRunner(Options{Cores: 16, Scale: 1, Seed: 42})
	tab, err := r.Figure("faults")
	if err != nil {
		t.Fatal(err)
	}
	want := len(FaultScenarios())
	if len(tab.Rows) != want {
		t.Fatalf("%d rows, want %d", len(tab.Rows), want)
	}
	// The zero-BER control row must match the clean row on every column:
	// the fault plumbing at rate 0 is provably inert.
	clean, control := tab.Rows[0], tab.Rows[1]
	for i := 1; i < len(clean); i++ {
		if clean[i] != control[i] {
			t.Errorf("column %q: control %q != clean %q", tab.Columns[i], control[i], clean[i])
		}
	}
	// High-BER rows must actually show retransmission traffic.
	found := false
	for _, row := range tab.Rows[2:] {
		if row[3] != "0" {
			found = true
		}
	}
	if !found {
		t.Error("no scenario produced retransmitted flits")
	}
}

func TestFaultScenariosValidate(t *testing.T) {
	o := Options{Cores: 16, Scale: 1, Seed: 42}
	for _, sc := range FaultScenarios() {
		cfg := o.Config(config.ATACPlus)
		cfg.Fault = sc.Fault
		if err := cfg.Validate(); err != nil {
			t.Errorf("scenario %q invalid: %v", sc.Name, err)
		}
	}
}
