package main

import (
	"flag"
	"os"
	"testing"

	"repro/internal/experiments"
)

// An impossible machine used to reach every synthetic run, each of which
// panicked (index out of range, isolated and journaled) before netsweep
// exited degraded. It must fail once, before anything is simulated.
func TestImpossibleGeometryFailsFirst(t *testing.T) {
	args, cl := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = args, cl }()
	os.Args = []string{"netsweep", "-cores", "24", "-no-cache", "-q", "-loads", "0.01"}
	flag.CommandLine = flag.NewFlagSet("netsweep", flag.ContinueOnError)
	if code := run(); code != experiments.ExitFatal {
		t.Errorf("netsweep -cores 24 exited %d, want %d (ExitFatal)", code, experiments.ExitFatal)
	}
}
