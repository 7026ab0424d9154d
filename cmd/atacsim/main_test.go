package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/system"
	"repro/internal/workload"
)

// TestMain runs main itself when a test re-executes the test binary with
// ATACSIM_TEST_MAIN=1, so a test can watch atacsim exit.
func TestMain(m *testing.M) {
	if os.Getenv("ATACSIM_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Each of these configs used to pass Validate, and atacsim -config on it
// died with a Go panic inside the simulator. It must exit non-zero with
// Validate's message instead.
func TestConfigFileRejected(t *testing.T) {
	for _, tc := range []struct {
		mut  func(*config.Config)
		want string
	}{
		{func(c *config.Config) { c.Caches.DirSlices = 8 }, "config: DirSlices 8 out of range"},
		{func(c *config.Config) { c.Network.RouterDelay = 0 }, "config: RouterDelay, LinkDelay"},
		{func(c *config.Config) { c.Network.LinkDelay = 0 }, "config: RouterDelay, LinkDelay"},
	} {
		cfg := config.Tiny()
		tc.mut(&cfg)
		path := filepath.Join(t.TempDir(), "cfg.json")
		if err := cfg.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(os.Args[0], "-config", path)
		cmd.Env = append(os.Environ(), "ATACSIM_TEST_MAIN=1")
		out, err := cmd.CombinedOutput()
		if err == nil || !strings.Contains(string(out), tc.want) {
			t.Errorf("atacsim -config (%s): err %v, output %q; want a non-zero exit saying %q", tc.want, err, out, tc.want)
		}
	}
}

// Config resolution lives in internal/experiments (BuildConfig) and is
// tested there; atacsim only forwards its flags into a Geometry.

// -bench list prints the paper's eight applications, one a line, and a
// name outside them is refused.
func TestWorkloadNames(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-bench", "list")
	cmd.Env = append(os.Environ(), "ATACSIM_TEST_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	names := strings.Fields(string(out))
	if want := workload.Names(); len(want) != 8 || !slices.Equal(names, want) {
		t.Fatalf("-bench list printed %v, want the 8 names %v", names, want)
	}
	cmd = exec.Command(os.Args[0], "-bench", "fft", "-cores", "16")
	cmd.Env = append(os.Environ(), "ATACSIM_TEST_MAIN=1")
	if out, err := cmd.CombinedOutput(); err == nil || !strings.Contains(string(out), "unknown benchmark") {
		t.Errorf("atacsim -bench fft: err %v, output %q; want a non-zero exit saying unknown benchmark", err, out)
	}
}

// The degraded-channel line and -heatmap used to reach the fabric only
// through System.Atac, so both silently printed nothing for the other two
// optical fabrics. A 16-core hybrid whose express channels are hopeless must
// name its degraded gateways and render its mesh; Corona has a mesh to render
// but nothing that degrades.
func TestReportCoversEveryOpticalFabric(t *testing.T) {
	for _, tc := range []struct {
		kind     config.NetworkKind
		degraded string
	}{
		{config.ATACPlus, "degraded clusters ["},
		{config.HybridMesh, "degraded gateways ["},
		{config.Corona, ""},
	} {
		cfg := config.Tiny().WithNetwork(tc.kind)
		cfg.Fault = config.DefaultFault()
		cfg.Fault.OpticalBER = 1e-2
		cfg.Fault.DegradeThreshold = 0.01
		cfg.Fault.DegradeWindow = 64
		sys, err := system.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := system.WorkloadFor(cfg, "radix", 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(spec, 0); err != nil {
			t.Fatal(err)
		}
		line := degradedLine(sys.Net, cfg.Network.Kind)
		if tc.degraded == "" && line != "" || !strings.Contains(line, tc.degraded) {
			t.Errorf("%v: degraded line %q, want it to contain %q", tc.kind, line, tc.degraded)
		}
		if hm := meshHeatmap(sys.Net, cfg.MeshDim()); !strings.Contains(hm, "hottest router") {
			t.Errorf("%v: no heatmap: %q", tc.kind, hm)
		}
	}
}

// TestMetricsSinks drives atacsim's observability sinks on Corona. The CSV
// header names the Result counters by field path, Corona's home-channel
// and token counters included, next to one energy column per Breakdown
// category. The JSON totals of the Net.* columns equal a direct run's
// Result. The Chrome trace parses, with one counter track per column group
// plus the derived track, and the retained protocol events as instants.
func TestMetricsSinks(t *testing.T) {
	dir := t.TempDir()
	cfgPath, mdir, tracePath := filepath.Join(dir, "cfg.json"), filepath.Join(dir, "m"), filepath.Join(dir, "trace.json")
	runAtacsim(t, "-net", "corona", "-dumpconfig", cfgPath)
	if out := runAtacsim(t, "-net", "corona", "-metrics-dir", mdir, "-trace-out", tracePath, "-trace", "32"); !strings.Contains(out, "last 32 of") {
		t.Errorf("stdout lacks the protocol event tail:\n%s", out)
	}

	csv, err := os.ReadFile(filepath.Join(mdir, "metrics.csv"))
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(string(csv), "\n")
	for _, col := range []string{"Net.XbarFlits", "Net.TokensGranted", "energy.Laser"} {
		if !slices.Contains(strings.Split(header, ","), col) {
			t.Errorf("metrics.csv header lacks %s: %s", col, header)
		}
	}

	var series struct {
		Columns []string
		Totals  []float64
	}
	if err := readJSON(filepath.Join(mdir, "metrics.json"), &series); err != nil {
		t.Fatal(err)
	}
	cfg, err := config.LoadFile(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := system.RunBenchmark(cfg, "radix", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	net, n := reflect.ValueOf(res.Net), 0
	for i, col := range series.Columns {
		if field, ok := strings.CutPrefix(col, "Net."); ok {
			n++
			if want := float64(net.FieldByName(field).Uint()); series.Totals[i] != want {
				t.Errorf("metrics.json total of %s = %g, the direct run's Result has %g", col, series.Totals[i], want)
			}
		}
	}
	if n != net.NumField() {
		t.Errorf("metrics.json has %d Net.* columns for %d noc.Stats fields", n, net.NumField())
	}

	var trace struct {
		TraceEvents []struct{ Name, Ph string }
	}
	if err := readJSON(tracePath, &trace); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"derived": true}
	for _, col := range series.Columns {
		group, _, _ := strings.Cut(col, ".")
		want[group] = true
	}
	got, instants := map[string]bool{}, 0
	for _, e := range trace.TraceEvents {
		switch e.Ph {
		case "C":
			got[e.Name] = true
		case "i":
			instants++
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("trace counter tracks %v, want one per column group %v", got, want)
	}
	if instants != 32 {
		t.Errorf("trace holds %d protocol instants, want the 32 retained", instants)
	}
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
