package main

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/system"
)

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
