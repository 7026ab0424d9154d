package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

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
