package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// goldenSweeps are the invocations testdata/sweep_16core.txt holds, in
// order: two network-only load sweeps on different fabrics and patterns,
// and one system sweep.
var goldenSweeps = [][]string{
	{"-param", "load", "-values", "1,5,20", "-net", "corona", "-pattern", "hotspot"},
	{"-param", "load", "-values", "2,10,30", "-net", "pure", "-pattern", "transpose"},
	{"-param", "flit", "-values", "32,64", "-bench", "radix"},
}

// runSweep runs the command with args after -cores 16 -no-cache and
// returns its exit code and stdout.
func runSweep(t *testing.T, args ...string) (int, string) {
	t.Helper()
	argv, cl, stdout := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = argv, cl, stdout }()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	os.Args = append([]string{"sweep", "-cores", "16", "-no-cache"}, args...)
	flag.CommandLine = flag.NewFlagSet("sweep", flag.ContinueOnError)
	os.Stdout = out
	code := run()
	if _, err := out.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(out)
	if err != nil {
		t.Fatal(err)
	}
	return code, string(b)
}

// TestSweepGolden pins the CSV of three sweeps at 16 cores. The golden is
// the binary's stdout, recorded with
//
//	for a in "-param load -values 1,5,20 -net corona -pattern hotspot" \
//	         "-param load -values 2,10,30 -net pure -pattern transpose" \
//	         "-param flit -values 32,64 -bench radix"; do
//	  go run ./cmd/sweep -cores 16 -no-cache $a
//	done > cmd/sweep/testdata/sweep_16core.txt
func TestSweepGolden(t *testing.T) {
	var got strings.Builder
	for _, args := range goldenSweeps {
		code, out := runSweep(t, args...)
		if code != experiments.ExitOK {
			t.Fatalf("sweep %v exited %d", args, code)
		}
		got.WriteString(out)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "sweep_16core.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("sweep output diverged from testdata/sweep_16core.txt:\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestLoadOutOfRangeFailsFirst: an offered load outside [0, 100] % used to
// saturate or idle the fabric silently. Like an invalid system-sweep value,
// it must fail the whole sweep before any point is simulated, so nothing
// reaches stdout, not even the CSV header.
func TestLoadOutOfRangeFailsFirst(t *testing.T) {
	for _, values := range []string{"5,150", "-1,5"} {
		code, out := runSweep(t, "-param", "load", "-values", values)
		if code != experiments.ExitFatal || out != "" {
			t.Errorf("-values %s: exit %d, stdout %q; want %d (ExitFatal) and nothing", values, code, out, experiments.ExitFatal)
		}
	}
}
