package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/noc"
	"repro/internal/system"
)

// scrubbedEnv lists the variables experiments.NewRunner and
// DefaultOptions read; the harness removes them so a developer's shell
// cannot change what is measured.
var scrubbedEnv = []string{"REPRO_CACHE", "REPRO_JOBS", "REPRO_SHARDS", "REPRO_FULL", "REPRO_CORES"}

func scrubEnv() {
	for _, k := range scrubbedEnv {
		os.Unsetenv(k)
	}
}

// sizes are the workload geometries. dry shrinks every machine to 16
// cores so bench_test.go can drive each workload in well under a second;
// it is a switch of the harness, never of the program under test.
type sizes struct {
	paperCores, midCores, smallCores int
	paperReps, coronaReps            int
	shardReps, synthReps             int
	campaignReps, warmPasses         int
	campaignApps                     []string
	synthMeasure                     uint64
	coldOps, tracedColdOps, warmOps  int
	probeScale                       int // divides micro-probe iteration counts
}

func sizesFor(dry bool) sizes {
	if dry {
		return sizes{
			paperCores: 16, midCores: 16, smallCores: 16,
			paperReps: 2, coronaReps: 2, shardReps: 2, synthReps: 2,
			campaignReps: 1, warmPasses: 3, campaignApps: []string{"radix", "lu_contig"},
			synthMeasure: 2000, coldOps: 2, tracedColdOps: 2, warmOps: 50, probeScale: 50,
		}
	}
	return sizes{
		paperCores: 1024, midCores: 256, smallCores: 64,
		paperReps: 3, coronaReps: 3, shardReps: 3, synthReps: 3,
		campaignReps: 3, warmPasses: 100, campaignApps: []string{"radix", "ocean_contig", "lu_contig"},
		synthMeasure: 20000, coldOps: 8, tracedColdOps: 4, warmOps: 20000, probeScale: 1,
	}
}

// harness carries one run's state: sizes, seed, scratch directory, the
// span recorder (nil when untraced) and the tally of ops and failures.
type harness struct {
	sz     sizes
	seed   int64
	out    string // scratch root inside the checkout
	tr     *tracer
	traced bool

	attempted int
	failures  []string
	layer     values // per-layer readings gathered along the way (traced runs)
}

// attempt counts one op or check; a non-empty why marks it failed.
func (h *harness) attempt(why string) {
	h.attempted++
	if why != "" {
		h.failures = append(h.failures, why)
		fmt.Fprintln(os.Stderr, "bench: FAIL:", why)
	}
}

func (h *harness) check(ok bool, format string, args ...any) {
	if ok {
		h.attempt("")
		return
	}
	h.attempt(fmt.Sprintf(format, args...))
}

// tempDir makes a fresh directory under the harness scratch root, so every
// cache, journal and ledger lives inside the checkout.
func (h *harness) tempDir(prefix string) (string, error) {
	root := filepath.Join(h.out, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix+"-")
}

// opStats is what one measured op simulated: the modelled design's
// numbers, summed over the op's simulations, plus a digest of every
// Result so reps and engines can be compared exactly.
type opStats struct {
	cycles uint64
	flits  uint64
	instr  uint64
	edp    float64
	coh    coherence.Stats
	net    noc.Stats
	digest [sha256.Size]byte
}

// add folds one simulation's result in. The digest chains, so it covers
// the results in the order they were added.
func (s *opStats) add(m energy.Models, res system.Result) error {
	blob, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("marshal result: %w", err)
	}
	sum := sha256.Sum256(append(s.digest[:], blob...))
	s.digest = sum
	s.cycles += uint64(res.Cycles)
	s.flits += res.Net.InjectedFlits
	s.instr += res.Instructions
	s.edp += energy.EDP(m, res)
	s.coh.MergeFrom(&res.Coh)
	s.net.MergeFrom(&res.Net)
	return nil
}

// digest48 is the first 48 bits of the digest: exact in a float64.
func (s *opStats) digest48() float64 {
	return float64(binary.BigEndian.Uint64(s.digest[:8]) >> 16)
}

// resultErr says why a simulation result does not count, or nil.
func resultErr(res system.Result, err error) error {
	if err == nil && !res.Finished {
		err = fmt.Errorf("%s on %v did not finish", res.Benchmark, res.Cfg.Network.Kind)
	}
	return err
}

// modelsFor builds the energy models for cfg; energy.Build only fails on
// a configuration Validate already rejected.
func modelsFor(cfg config.Config) (energy.Models, error) {
	m, err := energy.Build(cfg)
	if err != nil {
		return m, fmt.Errorf("energy.Build: %w", err)
	}
	return m, nil
}

// ---- host-side measurement ----

// cpuTime returns the process's user and system CPU time so far.
func cpuTime() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// timed runs fn and returns its wall and CPU (user, sys) cost.
func timed(fn func()) (wall, user, sys time.Duration) {
	u0, s0 := cpuTime()
	t0 := time.Now()
	fn()
	wall = time.Since(t0)
	u1, s1 := cpuTime()
	return wall, u1 - u0, s1 - s0
}

// statusMB reads one "<key>: <n> kB" line of /proc/self/status in MB.
func statusMB(key string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), key+":")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return 0
		}
		kb, _ := strconv.ParseFloat(fields[0], 64)
		return kb / 1024
	}
	return 0
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// opWalls and opCPUs list the ops' wall and CPU (user+sys) seconds.
func opWalls(ops []opRecord) []float64 {
	out := make([]float64, len(ops))
	for i, r := range ops {
		out[i] = r.wall.Seconds()
	}
	return out
}

func opCPUs(ops []opRecord) []float64 {
	out := make([]float64, len(ops))
	for i, r := range ops {
		out[i] = (r.user + r.sys).Seconds()
	}
	return out
}

// quantile is the nearest-rank-with-interpolation quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// perCall times n calls of fn and returns the median cost of one, taken
// over batches so a single slow call cannot set it.
func perCall(n, batches int, fn func()) time.Duration {
	if n < 1 {
		n = 1
	}
	if batches < 1 {
		batches = 1
	}
	costs := make([]float64, batches)
	for b := range costs {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		costs[b] = float64(time.Since(t0)) / float64(n)
	}
	return time.Duration(median(costs))
}

// mallocsDuring runs fn and returns the heap objects it allocated.
func mallocsDuring(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// ---- spans ----

// span is one timed call the harness made into a layer.
type span struct {
	name       string
	start, end time.Duration // since tracer start
	parent     int           // index into tracer.spans, -1 for a root
	op         int           // id of the op it belongs to, -1 for set-up
}

// tracer records spans in memory; a nil tracer records nothing, so
// untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, op: t.op})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	// Spans close innermost first; tolerate a hook that ends out of order.
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == id {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
}

// within records fn as a span.
func (t *tracer) within(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// chromeEvent is one Chrome trace_event "complete" event — the same JSON
// Array Format internal/metrics writes, so Perfetto loads both.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`  // microseconds
	Dur   float64        `json:"dur"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// write stores the spans as Chrome trace_event JSON. Each event carries
// its op id, its parent's name and its self time (span minus children).
func (t *tracer) write(path, proc string) error {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end > 0 {
			child[s.parent] += s.end - s.start
		}
	}
	events := []chromeEvent{{Name: "process_name", Phase: "M",
		Args: map[string]any{"name": proc}}}
	for i, s := range t.spans {
		if s.end == 0 {
			continue
		}
		dur := s.end - s.start
		args := map[string]any{"op": s.op, "self_us": float64(dur-child[i]) / 1e3}
		if s.parent >= 0 {
			args["parent"] = t.spans[s.parent].name
		}
		cat, _, _ := strings.Cut(s.name, ".")
		events = append(events, chromeEvent{Name: s.name, Cat: cat, Phase: "X",
			TS: float64(s.start) / 1e3, Dur: float64(dur) / 1e3, Args: args})
	}
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
