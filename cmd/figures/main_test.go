package main

import (
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// An impossible machine used to reach every run of the campaign, which
// journaled each doomed run ("Cores = 24 is not a perfect square") and
// exited degraded. It must fail once, before anything is simulated, as a
// scenario typo already did.
func TestImpossibleGeometryFailsFirst(t *testing.T) {
	args, cl := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = args, cl }()
	for _, bad := range [][]string{{"-cores", "24"}, {"-tech", "3nm"}, {"-optics", "magic"}} {
		os.Args = append([]string{"figures", "-only", "4", "-no-cache", "-q"}, bad...)
		flag.CommandLine = flag.NewFlagSet("figures", flag.ContinueOnError)
		if code := run(); code != experiments.ExitFatal {
			t.Errorf("figures %v exited %d, want %d (ExitFatal)", bad, code, experiments.ExitFatal)
		}
	}
}

// -only used to be matched against the job list by a predicate, so an id
// the list did not have selected nothing: `figures -only 18,fig4` printed
// the banner, simulated nothing and exited 0.
func TestSelectFigures(t *testing.T) {
	all := experiments.FigureIDs()
	for _, tc := range []struct {
		only string
		want []string
	}{
		{"", all},
		{" , ", all},
		{"8", []string{"8"}},
		{"TableV, 8,4,8", []string{"4", "8", "tablev"}}, // campaign order, not list order
	} {
		got, err := selectFigures(tc.only)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("selectFigures(%q) = %v, %v; want %v", tc.only, got, err, tc.want)
		}
	}
	for _, only := range []string{"nope", "18,fig4", "4,fig4"} {
		got, err := selectFigures(only)
		if err == nil || got != nil {
			t.Errorf("selectFigures(%q) = %v, nil; want an error", only, got)
			continue
		}
		for _, id := range all {
			if !strings.Contains(err.Error(), id) {
				t.Errorf("selectFigures(%q): %q does not list valid id %q", only, err, id)
			}
		}
	}
}
