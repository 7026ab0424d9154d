package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the harness tables name the same workloads and
// metrics, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q (or the why differs)", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: end_to_end %d vs %d, per_layer %d vs %d",
			len(b.EndToEnd), len(endToEnd), len(b.PerLayer), len(perLayer))
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	checkDef := func(name, unit, better string) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || (better != "lower" && better != "higher") {
			t.Errorf("metric %q: bad name, unit %q or direction %q", name, unit, better)
		}
		if seen[name] {
			t.Errorf("metric %q declared twice", name)
		}
		seen[name] = true
	}
	var setup *metricDef
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
		checkDef(d.Name, d.Unit, d.Better)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = &endToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatal("setup_s (s, lower) must be an end-to-end metric")
	}
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
		checkDef(d.Name, d.Unit, d.Better)
		if d.Moves == "" {
			t.Errorf("%s: no prediction of what it moves", d.Name)
		}
	}
	for _, l := range shareNames {
		if !seen["share."+l] {
			t.Errorf("layer-cost row share.%s is not a declared metric", l)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v / run_seconds %d", b.Paths, b.RunSeconds)
	}
	if len(b.Command) == 0 || b.Command[len(b.Command)-1] != "bench/run.sh" {
		t.Errorf("command %v does not name bench/run.sh", b.Command)
	}
}

func defsByName(defs []metricDef) map[string]metricDef {
	m := make(map[string]metricDef, len(defs))
	for _, d := range defs {
		m[d.Name] = d
	}
	return m
}

// dryRun drives one workload at the 16-core test size and returns the
// parsed result line plus everything printed before it.
func dryRun(t *testing.T, args ...string) (result, []string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "-dry", "-out", t.TempDir())
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last stdout line is not the JSON result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("bench %v: correct=%v attempted=%d failed=%d", args, res.Correct, res.Attempted, res.Failed)
	}
	return res, lines[:len(lines)-1]
}

// checkMetrics asserts the run printed exactly the declared metrics, each
// as "workload/name value unit" and in the JSON result.
func checkMetrics(t *testing.T, workload string, defs []metricDef, res result, lines []string) {
	t.Helper()
	byName := defsByName(defs)
	if len(res.Metrics) != len(defs) || len(lines) != len(defs) {
		t.Fatalf("%s: %d metrics in the result, %d lines, %d declared", workload, len(res.Metrics), len(lines), len(defs))
	}
	for _, line := range lines {
		f := strings.Fields(line)
		name, ok := strings.CutPrefix(f[0], workload+"/")
		d, declared := byName[name]
		if len(f) != 3 || !ok || !declared || !nameRE.MatchString(name) || f[2] != d.Unit {
			t.Errorf("%s: unexpected metric line %q", workload, line)
		}
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s missing or malformed: %+v", workload, d.Name, m)
		}
	}
}

// Every workload runs clean at the test size and reports every
// end-to-end metric, none of them zero.
func TestDryRunEndToEnd(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res, lines := dryRun(t, "-workload", w.name)
			checkMetrics(t, w.name, endToEnd, res, lines)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %g: an end-to-end metric must never read 0", name, m.Value)
				}
			}
		})
	}
}

// The harness accepts the names BENCHMARK.json lists and nothing else.
func TestWorkloadNames(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatal(stderr.String())
	}
	listed := strings.Fields(stdout.String())
	if len(listed) != len(workloads) {
		t.Fatalf("-list printed %v", listed)
	}
	for i, n := range listed {
		if workloadByName(n) != &workloads[i] {
			t.Errorf("-list name %q is not workload %d", n, i)
		}
	}
	if code := run([]string{"-workload", "no-such-workload"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload was accepted")
	}
}

// Another seed gives other inputs but the same metric names, and one
// seed gives the same simulated numbers every time.
func TestSecondSeed(t *testing.T) {
	const w = "synth-mesh-256"
	a, _ := dryRun(t, "-workload", w, "-seed", "42")
	b, lines := dryRun(t, "-workload", w, "-seed", "7")
	checkMetrics(t, w, endToEnd, b, lines)
	if a.Metrics["sim_flits"].Value == b.Metrics["sim_flits"].Value {
		t.Error("seeds 42 and 7 injected the same flit count: the seed is not reaching the workload")
	}
	c, _ := dryRun(t, "-workload", w, "-seed", "7")
	for _, name := range []string{"sim_cycles", "sim_edp_js", "sim_flits"} {
		if b.Metrics[name].Value != c.Metrics[name].Value {
			t.Errorf("%s differs between two runs at one seed", name)
		}
	}
}

// A traced run reports every per-layer metric, a layer-cost table that
// sums to 1, and a loadable trace_event file.
func TestTracedDryRun(t *testing.T) {
	if testing.Short() {
		t.Skip("traced run shells out to go tool pprof")
	}
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "serve-rtt", "-trace", "1", "-dry", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct {
		t.Fatalf("result line: %v %+v", err, res)
	}
	checkMetrics(t, "serve-rtt", perLayer, res, lines[:len(lines)-1])
	var sum float64
	for _, l := range shareNames {
		sum += res.Metrics["share."+l].Value
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("share.* rows sum to %g, want 1", sum)
	}
	data, err := os.ReadFile(filepath.Join(out, "trace-serve-rtt.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			Dur      float64
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file does not load: %v", err)
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		names[e.Name] = true
	}
	for _, want := range []string{"setup", "warmup", "op", "http.submit", "sse.watch", "http.result", "probes"} {
		if !names[want] {
			t.Errorf("trace has no %q span", want)
		}
	}
}

// The env-scrub really removes the variables NewRunner and
// DefaultOptions read.
func TestScrubEnv(t *testing.T) {
	for _, k := range scrubbedEnv {
		t.Setenv(k, "1")
	}
	scrubEnv()
	for _, k := range scrubbedEnv {
		if v, ok := os.LookupEnv(k); ok {
			t.Errorf("%s=%q survived the scrub", k, v)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/cpu.(*Proc).send":            "cpu",
		"repro/internal/noc.(*Mesh).route.func1":     "noc",
		"repro/internal/coherence.(*Directory).recv": "coherence",
		"repro/internal/sim.(*Kernel).Run":           "sim",
		"repro/internal/serve.(*Server).worker":      "serve",
		"runtime.chanrecv":                           "runtime_chan",
		"runtime.(*hchan).sortkey":                   "runtime_chan",
		"runtime.mallocgc":                           "runtime_gc",
		"runtime.gcBgMarkWorker.func2":               "runtime_gc",
		"runtime.(*mheap).allocSpan":                 "runtime_gc",
		"runtime.futex":                              "runtime_sched",
		"runtime.findRunnable":                       "runtime_sched",
		"internal/runtime/syscall.Syscall6":          "runtime_sched",
		"encoding/json.(*encodeState).marshal":       "other",
		"type:.eq.[2]interface {}":                   "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestFoldTop(t *testing.T) {
	top := `File: bench
Type: cpu
Showing nodes accounting for 100ms, 100% of 100ms total
      flat  flat%   sum%        cum   cum%
      60ms 60.00% 60.00%       60ms 60.00%  repro/internal/noc.(*Mesh).step
      30ms 30.00% 90.00%       30ms 30.00%  runtime.futex
      10ms 10.00%   100%       10ms 10.00%  runtime.chansend
`
	shares, err := foldTop([]byte(top))
	if err != nil {
		t.Fatal(err)
	}
	if shares["noc"] != 0.6 || shares["runtime_sched"] != 0.3 || shares["runtime_chan"] != 0.1 {
		t.Errorf("shares = %v", shares)
	}
}
