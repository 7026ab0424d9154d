// Command bench is the repository's benchmark: six named workloads over
// the simulator, the campaign engine and atacd, measured from outside by
// timing calls into each layer's public functions. One process runs one
// workload:
//
//	bench/run.sh --workload paper-1024 --seed 42 --trace 0
//
// An untraced run prints the end-to-end metrics; a traced run (--trace 1)
// records spans around every call the harness makes into a layer, takes a
// CPU profile around the ops, runs the layer micro-probes, and prints the
// per-layer metrics. The last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// processStart is taken at package initialisation, the earliest the
// program can read a clock; the first set-up round is timed from it.
var processStart = time.Now()

// setupRounds is how many times a run sets the workload up; setup_s is
// the median round. Each round ends with one warm-up run on the small
// geometry through the workload's own entry point, so a round is real
// work (hundreds of milliseconds), never a bare timer read.
const setupRounds = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name  = fs.String("workload", "", "workload to run (see -list)")
		seed  = fs.Int64("seed", 42, "seeds the workload generator: simulation seed and job-spec seeds")
		trace = fs.Int("trace", 0, "1: traced run (spans, CPU profile, micro-probes), prints the per-layer metrics")
		dry   = fs.Bool("dry", false, "test-only: shrink every machine to 16 cores")
		out   = fs.String("out", filepath.Join("bench", "out"), "directory for traces, profiles and scratch data")
		list  = fs.Bool("list", false, "print the workload names and exit")
		aaDir = fs.String("aa-report", "", "summarise the A/A result files in this directory (see aa.sh) and exit")
	)
	// The driver passes -seconds; work per run is fixed (reps are constants
	// in sizesFor), not time-boxed, so that every commit measures the same
	// ops and the sim_* metrics stay exact.
	fs.Int("seconds", 0, "accepted and ignored: work per run is fixed, not time-boxed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		for _, w := range workloads {
			fmt.Fprintln(stdout, w.name)
		}
		return 0
	case *aaDir != "":
		return aaReport(*aaDir, stdout, stderr)
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (try -list)\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace takes 0 or 1, got %d\n", *trace)
		return 2
	}
	scrubEnv()
	h := &harness{sz: sizesFor(*dry), seed: *seed, out: *out, traced: *trace == 1, layer: values{}}
	metrics, err := runWorkload(h, w)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if h.traced {
		defs = perLayer
	}
	if err := printResult(stdout, w.name, defs, metrics, h); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if len(h.failures) > 0 {
		return 1
	}
	return 0
}

// result is the final line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes every declared metric as "workload/metric value
// unit", then the JSON result line. A metric the run did not produce is
// an error: the table and the harness must not drift apart.
func printResult(w io.Writer, workload string, defs []metricDef, got values, h *harness) error {
	res := result{Correct: len(h.failures) == 0, Attempted: h.attempted, Failed: len(h.failures),
		Metrics: make(map[string]metricJSON, len(defs))}
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		fmt.Fprintf(w, "%s/%s %s %s\n", workload, d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit)
		res.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runWorkload is one benchmark run: set the workload up, run its fixed
// number of ops, check the outputs, and derive the metrics.
func runWorkload(h *harness, w *workloadDef) (values, error) {
	var all *tracer
	if h.traced {
		all = newTracer()
	}

	// Set-up, several times over; the last round's instance runs the ops.
	h.tr = all
	var inst instance
	rounds := make([]float64, 0, setupRounds)
	for round := 0; round < setupRounds; round++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		if round == 0 {
			t0 = processStart
		}
		id := h.tr.begin("setup")
		var err error
		inst, err = w.setup(h)
		h.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rounds = append(rounds, time.Since(t0).Seconds())
	}
	defer inst.close()

	// Ops. A traced run does two (one untraced, then one under spans, the
	// CPU profile and the goroutine sampler), so the tracing overhead comes
	// from one process; a workload of distinct ops splits its traced ops
	// the same way.
	n := w.reps(h.sz)
	firstTraced := n
	if h.traced {
		n = 2
		if w.distinct {
			n = h.sz.tracedColdOps
		}
		firstTraced = n / 2
	}
	recs := make([]opRecord, 0, n)
	var prof *cpuProfile
	var sampler *goroutineSampler
	var mem0 runtime.MemStats
	h.tr = nil
	for i := 0; i < n; i++ {
		if i == firstTraced {
			h.tr = all
			var err error
			if prof, err = startProfile(filepath.Join(h.out, "cpu-"+w.name+".pprof")); err != nil {
				return nil, err
			}
			sampler = startGoroutineSampler()
			runtime.ReadMemStats(&mem0)
		}
		if h.tr != nil {
			h.tr.op = i
		}
		var rec opRecord
		var err error
		id := h.tr.begin("op")
		rec.wall, rec.user, rec.sys = timed(func() { rec.stats, err = inst.op(i) })
		h.tr.end(id)
		if err != nil {
			h.attempt(fmt.Sprintf("op %d: %v", i, err))
			continue
		}
		h.attempt("")
		recs = append(recs, rec)
		fmt.Fprintf(os.Stderr, "bench: %s op %d: wall %.3fs cpu %.3fs (sys %.3fs)\n",
			w.name, i, rec.wall.Seconds(), (rec.user + rec.sys).Seconds(), rec.sys.Seconds())
	}
	if len(recs) < n {
		return nil, fmt.Errorf("%d of %d ops failed: %s", n-len(recs), n, h.failures[0])
	}
	var shares map[string]float64
	var mem1 runtime.MemStats
	if h.traced {
		runtime.ReadMemStats(&mem1)
		h.layer["cpu.goroutines_peak"] = float64(sampler.stop())
		var err error
		if shares, err = prof.stop(); err != nil {
			return nil, err
		}
		all.op = -1
	}
	untraced, tracedOps := recs[:firstTraced], recs[firstTraced:]

	// Determinism: reps of one process simulate the same thing exactly.
	if !w.distinct {
		for i, r := range recs[1:] {
			h.check(r.stats.digest == recs[0].stats.digest && r.stats.cycles == recs[0].stats.cycles,
				"rep %d simulated something else than rep 0 (sim_cycles %d vs %d)", i+1, r.stats.cycles, recs[0].stats.cycles)
		}
	}
	if w.after != nil {
		w.after(h, inst, untraced)
	}

	m := endToEndMetrics(w, rounds, untraced)
	if !h.traced {
		return m, nil
	}
	layerFromOps(h, tracedOps, all, &mem0, &mem1)
	for l, s := range shares {
		h.layer["share."+l] = s
	}
	h.layer["trace.overhead_frac"] = median(opWalls(tracedOps))/m["op_s"] - 1
	h.tr = all
	layerProbes(h)
	if err := all.write(filepath.Join(h.out, "trace-"+w.name+".json"), "bench "+w.name); err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		if _, ok := h.layer[d.Name]; !ok {
			h.layer[d.Name] = 0 // the layer is not on this workload's path
		}
	}
	return h.layer, nil
}

// endToEndMetrics derives the gated metrics from the untraced ops.
func endToEndMetrics(w *workloadDef, rounds []float64, ops []opRecord) values {
	var cycles, flits uint64
	var edp float64
	for _, r := range ops {
		cycles += r.stats.cycles
		flits += r.stats.flits
		edp += r.stats.edp
	}
	opS := median(opWalls(ops))
	perOp := float64(cycles) / float64(len(ops))
	m := values{
		"setup_s":           median(rounds),
		"op_s":              opS,
		"op_cpu_s":          median(opCPUs(ops)),
		"sim_kcycles_per_s": perOp / opS / 1e3,
		"peak_rss_mb":       statusMB("VmHWM"),
	}
	if w.distinct {
		// Every op is a different input: the modelled numbers are the sum
		// over the cold phase.
		m["sim_cycles"], m["sim_edp_js"], m["sim_flits"] = float64(cycles), edp, float64(flits)
	} else {
		// Reps repeat one input (checked above): report one op's worth.
		s := ops[0].stats
		m["sim_cycles"], m["sim_edp_js"], m["sim_flits"] = float64(s.cycles), s.edp, float64(s.flits)
	}
	return m
}

// layerFromOps fills the per-layer readings that come from the traced
// ops themselves: span totals, the modelled design's counters, and the
// Go runtime's accounting over the traced half.
func layerFromOps(h *harness, ops []opRecord, tr *tracer, mem0, mem1 *runtime.MemStats) {
	n := float64(len(ops))
	if _, ok := h.layer["system.run_s"]; !ok {
		// The netsweep path has no System; its simulate step is the Runner's.
		h.layer["system.run_s"] = (tr.totalInOps("system.run") + tr.totalInOps("runner.run_synthetic")).Seconds() / n
	}
	h.layer["experiments.render_ms"] = ms(tr.totalInOps("figure.render")) / n
	last := ops[len(ops)-1]
	st := last.stats
	h.layer["system.result_digest48"] = st.digest48()
	if cpu := last.user + last.sys; cpu > 0 {
		h.layer["cpu.sys_cpu_frac"] = last.sys.Seconds() / cpu.Seconds()
	}
	if acc := st.coh.L1DReads + st.coh.L1DWrites; acc > 0 {
		h.layer["coherence.l1d_miss_frac"] = float64(st.coh.L1DMisses) / float64(acc)
	}
	if st.instr > 0 {
		h.layer["coherence.inv_bcast_per_kinstr"] = float64(st.coh.InvBroadcasts) / (float64(st.instr) / 1e3)
	}
	h.layer["coherence.dir_accesses"] = float64(st.coh.DirAccesses)
	h.layer["coherence.mem_reads"] = float64(st.coh.MemReads)
	h.layer["noc.avg_latency_cycles"] = st.net.AvgLatency()
	h.layer["noc.mesh_link_flits"] = float64(st.net.MeshLinkFlits)
	h.layer["noc.hub_flits"] = float64(st.net.HubFlits)

	h.layer["runtime.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
	h.layer["runtime.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	h.layer["runtime.alloc_mb_per_op"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / n / (1 << 20)
	h.layer["runtime.heap_peak_mb"] = float64(mem1.HeapSys) / (1 << 20)
}

// totalInOps sums the named spans recorded inside measured ops (set-up
// and probe spans carry op id -1).
func (t *tracer) totalInOps(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name && s.op >= 0 && s.end > 0 {
			d += s.end - s.start
		}
	}
	return d
}

// goroutineSampler polls runtime.NumGoroutine while the traced ops run.
type goroutineSampler struct {
	peak int // written by the sampling goroutine, read after done
	quit chan struct{}
	done sync.WaitGroup
}

func startGoroutineSampler() *goroutineSampler {
	s := &goroutineSampler{quit: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				if n := runtime.NumGoroutine(); n > s.peak {
					s.peak = n
				}
			}
		}
	}()
	return s
}

func (s *goroutineSampler) stop() int {
	close(s.quit)
	s.done.Wait()
	return s.peak
}

// ---- A/A report ----

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the benchmark driver uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		} else if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// aaReport reads the result lines aa.sh saved as <set>-<workload>-<i>.json
// (set "a" or "b") and prints, per workload and end-to-end metric, the
// within-set spread and the gap between the two sets' medians. Spread is
// what the driver computes: the distance between the first and third
// quartile as a share of the median. It fails when a gap or a spread
// exceeds the metric's bound (set-up time's spread is printed but not
// judged, as in the driver).
func aaReport(dir string, stdout, stderr io.Writer) int {
	bad := 0
	fmt.Fprintf(stdout, "%-16s %-18s %12s %12s %9s %9s %7s %6s\n",
		"workload", "metric", "median_a", "median_b", "spread_a", "spread_b", "gap", "bound")
	for _, w := range workloads {
		sets := map[string]map[string][]float64{"a": {}, "b": {}}
		for set, byMetric := range sets {
			files, _ := filepath.Glob(filepath.Join(dir, set+"-"+w.name+"-*.json"))
			sort.Strings(files)
			for _, f := range files {
				data, err := os.ReadFile(f)
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
				var res result
				if err := json.Unmarshal(data, &res); err != nil || !res.Correct {
					fmt.Fprintf(stderr, "bench: %s: not a passing result line\n", f)
					return 1
				}
				for name, m := range res.Metrics {
					byMetric[name] = append(byMetric[name], m.Value)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := sets["a"][d.Name], sets["b"][d.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(stderr, "bench: no A/A results for %s %s in %s\n", w.name, d.Name, dir)
				return 1
			}
			spread := func(xs []float64) float64 {
				q1, q3 := quartiles(xs)
				return (q3 - q1) / median(xs)
			}
			ma, mb := median(a), median(b)
			gap := math.Abs(mb-ma) / ma
			verdict := ""
			if gap > d.Bound {
				verdict = "  GAP"
				bad++
			}
			if d.Name != "setup_s" && (spread(a) > d.Bound || spread(b) > d.Bound) {
				verdict += "  SPREAD"
				bad++
			}
			fmt.Fprintf(stdout, "%-16s %-18s %12.6g %12.6g %9.4f %9.4f %7.4f %6.2f%s\n",
				w.name, d.Name, ma, mb, spread(a), spread(b), gap, d.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "A/A check failed: %d metric(s) out of bounds\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "A/A check passed")
	return 0
}
