package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenRuns are the invocations testdata/atacsim_16core.txt holds, in
// order: the three optical fabrics under mesh and optical bit errors with
// degradation armed (so the resilience block prints), and one clean
// electrical run.
var goldenRuns = [][]string{
	{"-net", "atac+", "-ber", "1e-4", "-meshber", "1e-5", "-degrade", "0.01"},
	{"-net", "corona", "-ber", "1e-4", "-meshber", "1e-5", "-degrade", "0.01"},
	{"-net", "hybrid", "-ber", "1e-4", "-meshber", "1e-5", "-degrade", "0.01"},
	{"-net", "bcast"},
}

// runAtacsim runs the command with args after -cores 16 and returns its
// stdout.
func runAtacsim(t *testing.T, args ...string) string {
	t.Helper()
	argv, cl, stdout := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = argv, cl, stdout }()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	os.Args = append([]string{"atacsim", "-cores", "16"}, args...)
	flag.CommandLine = flag.NewFlagSet("atacsim", flag.ContinueOnError)
	os.Stdout = out
	main()
	if _, err := out.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAtacsimGolden pins atacsim's report at 16 cores: the performance
// lines, the energy breakdown, the E-D product and, on the three fault
// runs, the resilience block. The golden is the binary's stdout, recorded
// with
//
//	for a in "-net atac+ -ber 1e-4 -meshber 1e-5 -degrade 0.01" \
//	         "-net corona -ber 1e-4 -meshber 1e-5 -degrade 0.01" \
//	         "-net hybrid -ber 1e-4 -meshber 1e-5 -degrade 0.01" \
//	         "-net bcast"; do
//	  go run ./cmd/atacsim -cores 16 $a
//	done > cmd/atacsim/testdata/atacsim_16core.txt
func TestAtacsimGolden(t *testing.T) {
	var got strings.Builder
	for _, args := range goldenRuns {
		got.WriteString(runAtacsim(t, args...))
	}
	want, err := os.ReadFile(filepath.Join("testdata", "atacsim_16core.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("atacsim output diverged from testdata/atacsim_16core.txt:\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
}
