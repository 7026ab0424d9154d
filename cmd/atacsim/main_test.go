package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/system"
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

func TestWorkloadNames(t *testing.T) {
	names := workloadNames()
	if len(names) != 10 {
		t.Fatalf("%d workloads", len(names))
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
