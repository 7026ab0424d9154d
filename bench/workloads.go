package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/workload"
)

// instance is one set-up workload: op runs the i-th measured op and
// reports what it simulated; close releases directories and listeners.
type instance interface {
	op(i int) (opStats, error)
	close()
}

// opRecord is one measured op as the harness saw it.
type opRecord struct {
	stats           opStats
	wall, user, sys time.Duration
}

// workloadDef names one benchmark workload. The why strings are the
// one-line reasons BENCHMARK.json carries.
type workloadDef struct {
	name, why string
	reps      func(sz sizes) int
	// distinct marks a workload whose ops are different inputs (a
	// never-seen spec each): its sim_* sum over the ops and there is no
	// rep-to-rep determinism check.
	distinct bool
	setup    func(h *harness) (instance, error)
	// after runs once the measured ops are done: the workload's own
	// correctness checks and, on a traced run, its per-layer readings.
	after func(h *harness, inst instance, untraced []opRecord)
}

const benchApp = "radix"

var workloads = []workloadDef{
	{
		name: "paper-1024",
		why:  "one 1024-core ATAC+ radix run on the serial engine, the paper's geometry: cpu, coherence, noc/atac and sim.Kernel do the work, experiments and serve none",
		reps: func(sz sizes) int { return sz.paperReps },
		setup: func(h *harness) (instance, error) {
			return setupSim(h, "atac+", h.sz.paperCores, 1)
		},
	},
	{
		name: "corona-256",
		why:  "one 256-core Corona radix run, serial: the only workload whose traffic rides noc/crossbar.go, so a Corona-only change moves this and nothing else",
		reps: func(sz sizes) int { return sz.coronaReps },
		setup: func(h *harness) (instance, error) {
			return setupSim(h, "corona", h.sz.midCores, 1)
		},
	},
	{
		name: "shards2-256",
		why:  "one 256-core ATAC+ radix run on the 2-shard PDES engine, digest checked against serial: the only workload on sim.Sharded (window barrier, Post staging)",
		reps: func(sz sizes) int { return sz.shardReps },
		setup: func(h *harness) (instance, error) {
			return setupSim(h, "atac+", h.sz.midCores, 2)
		},
		after: afterShards,
	},
	{
		name: "synth-mesh-256",
		why:  "the netsweep path on a 256-core EMesh-BCast at three loads: open-loop injection, no cores, no coherence, so a mesh flit-path gain shows here and a cpu/coherence gain must not",
		reps: func(sz sizes) int { return sz.synthReps },
		setup: func(h *harness) (instance, error) {
			return setupSynth(h)
		},
	},
	{
		name: "campaign-64",
		why:  "a cold figures -only xtopo campaign at 64 cores through cache, journal and renderer (Jobs=1), then warm passes that must be byte-identical: every fabric app-driven plus the campaign engine",
		reps: func(sz sizes) int { return sz.campaignReps },
		setup: func(h *harness) (instance, error) {
			return setupCampaign(h)
		},
		after: afterCampaign,
	},
	{
		name:     "serve-rtt",
		why:      "atacctl submit -wait of never-seen 64-core specs against an in-process atacd on loopback, one closed-loop client: the only workload through serve, the ledger, SSE and the chunked kernel path",
		reps:     func(sz sizes) int { return sz.coldOps },
		distinct: true,
		setup: func(h *harness) (instance, error) {
			return setupServe(h)
		},
		after: afterServe,
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ---- paper-1024, corona-256, shards2-256: one application run ----

type simInst struct {
	h      *harness
	cfg    config.Config
	models energy.Models
	shards int
	// effShards is the shard count the engine actually used last run.
	effShards int
}

// buildConfig is the front ends' config path: BuildConfig, then Validate
// as atacsim does after applying its flags.
func buildConfig(tr *tracer, g experiments.Geometry) (cfg config.Config, err error) {
	tr.within("config.build", func() {
		if cfg, err = experiments.BuildConfig(g); err == nil {
			err = cfg.Validate()
		}
	})
	return cfg, err
}

func buildModels(tr *tracer, cfg config.Config) (m energy.Models, err error) {
	tr.within("energy.build", func() { m, err = modelsFor(cfg) })
	return m, err
}

// simulate is system.RunBenchmark spelled out so each step is a span:
// resolve the workload, build the machine (partitioned when shards > 1),
// run it to completion.
func simulate(tr *tracer, cfg config.Config, shards int) (res system.Result, eff int, err error) {
	var spec workload.Spec
	tr.within("workload.build", func() {
		spec, err = workload.ByName(benchApp, cfg.Cores, cfg.Seed, 1)
	})
	if err != nil {
		return res, 0, err
	}
	var sys *system.System
	tr.within("system.new", func() {
		if shards > 1 {
			sys, err = system.NewSharded(cfg, shards)
		} else {
			sys, err = system.New(cfg)
		}
	})
	if err != nil {
		return res, 0, err
	}
	tr.within("system.run", func() { res, err = sys.Run(spec, 0) })
	return res, sys.Shards, resultErr(res, err)
}

func setupSim(h *harness, net string, cores, shards int) (instance, error) {
	cfg, err := buildConfig(h.tr, experiments.Geometry{Net: net, Cores: cores, Seed: h.seed})
	if err != nil {
		return nil, err
	}
	m, err := buildModels(h.tr, cfg)
	if err != nil {
		return nil, err
	}
	// Warm-up: the same entry point on the small geometry.
	warm, err := experiments.BuildConfig(experiments.Geometry{Net: net, Cores: h.sz.smallCores, Seed: h.seed})
	if err != nil {
		return nil, err
	}
	h.tr.within("warmup", func() { _, _, err = simulate(h.tr, warm, shards) })
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return &simInst{h: h, cfg: cfg, models: m, shards: shards}, nil
}

// sink keeps energy.Combine's result alive so the call is not elided.
var sink float64

func (s *simInst) op(int) (opStats, error) {
	var st opStats
	res, eff, err := simulate(s.h.tr, s.cfg, s.shards)
	if err != nil {
		return st, err
	}
	s.effShards = eff
	s.h.tr.within("energy.combine", func() {
		sink = energy.Combine(s.models, res).Total() + energy.EDP(s.models, res)
	})
	return st, st.add(s.models, res)
}

func (s *simInst) close() {}

// afterShards runs the serial reference once: the sharded digest must
// equal it, and the pair gives the speed-up and CPU ratio of the engine.
func afterShards(h *harness, inst instance, untraced []opRecord) {
	s := inst.(*simInst)
	h.check(s.effShards == 2, "shards2: engine used %d shards, want 2", s.effShards)
	var ref opStats
	var err error
	wall, user, sys := timed(func() {
		var res system.Result
		if res, _, err = simulate(nil, s.cfg, 1); err == nil {
			err = ref.add(s.models, res)
		}
	})
	if err != nil {
		h.attempt("shards2: serial reference: " + err.Error())
		return
	}
	h.check(ref.digest == untraced[0].stats.digest, "shards2: sharded result digest differs from the serial one")
	if h.traced {
		h.layer["sim.shards2_speedup"] = wall.Seconds() / median(opWalls(untraced))
		h.layer["sim.shards2_cpu_ratio"] = median(opCPUs(untraced)) / (user + sys).Seconds()
	}
}

// ---- synth-mesh-256: the netsweep path ----

var synthLoads = []float64{0.02, 0.05, 0.08}

type synthInst struct {
	h      *harness
	opt    experiments.Options
	models energy.Models
}

func synthSpec(load float64, measure uint64) experiments.SynthSpec {
	return experiments.SynthSpec{Pattern: "uniform", Load: load, BcastFrac: 0.005,
		Warmup: 2000, Measure: sim.Time(measure)}
}

// sweep drives the loads through a fresh Runner, as cmd/netsweep does
// without a cache directory.
func (s *synthInst) sweep(opt experiments.Options, loads []float64) (opStats, error) {
	var st opStats
	r := experiments.NewRunner(opt)
	r.Jobs = 1
	cfg := opt.Config(config.EMeshBCast)
	for _, load := range loads {
		var res system.Result
		var err error
		s.h.tr.within("runner.run_synthetic", func() {
			res, err = r.RunSynthetic(cfg, synthSpec(load, s.h.sz.synthMeasure))
		})
		if err := resultErr(res, err); err != nil {
			return st, err
		}
		if res.Synth == nil || res.Synth.Delivered < res.Synth.Injected {
			return st, fmt.Errorf("synthetic load %g: delivered fewer messages than injected", load)
		}
		if err := st.add(s.models, res); err != nil {
			return st, err
		}
	}
	return st, nil
}

func setupSynth(h *harness) (instance, error) {
	s := &synthInst{h: h, opt: experiments.Options{Cores: h.sz.midCores, Scale: 1, Seed: h.seed}}
	var cfg config.Config
	var err error
	h.tr.within("config.build", func() {
		cfg = s.opt.Config(config.EMeshBCast)
		err = cfg.Validate()
	})
	if err != nil {
		return nil, err
	}
	if s.models, err = buildModels(h.tr, cfg); err != nil {
		return nil, err
	}
	warm := s.opt
	warm.Cores = h.sz.smallCores
	h.tr.within("warmup", func() { _, err = s.sweep(warm, synthLoads[1:2]) })
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s *synthInst) op(int) (opStats, error) { return s.sweep(s.opt, synthLoads) }
func (s *synthInst) close()                  {}

// ---- campaign-64: cmd/figures -only xtopo, cold then warm ----

type campaignInst struct {
	h    *harness
	opt  experiments.Options
	dirs []string

	coldDir string // the last cold pass's cache directory
	coldOut []byte
	ledger  []experiments.RunRecord
}

// pass is one figures -only xtopo invocation against cache directory dir:
// open cache and journal, prefetch the figure's run-set, render it.
func (c *campaignInst) pass(tr *tracer, dir string, opt experiments.Options, jobs int) (*experiments.Runner, []byte, error) {
	var cache *experiments.Cache
	var journal *experiments.Journal
	var err error
	tr.within("cache.open", func() { cache, err = experiments.OpenCache(dir) })
	if err != nil {
		return nil, nil, err
	}
	tr.within("journal.open", func() { journal, err = experiments.OpenJournal(cache.JournalPath()) })
	if err != nil {
		return nil, nil, err
	}
	r := experiments.NewRunner(opt)
	r.Apps = c.h.sz.campaignApps
	r.Jobs = jobs
	r.Cache = cache
	r.Journal = journal
	r.Retries = 2
	r.Partial = true
	r.RecallFailures = true
	if tr != nil && jobs == 1 {
		// Per-run spans from the public lifecycle hook. With Jobs=1 the
		// hook fires on this goroutine, so the span stack stays nested.
		open := map[string]int{}
		r.Events = func(ev experiments.RunEvent) {
			switch ev.Phase {
			case experiments.PhaseStart:
				open[ev.Hash] = tr.begin("run." + ev.Benchmark + "@" + ev.Config)
			case experiments.PhaseCached:
				tr.end(tr.begin("cached." + ev.Benchmark + "@" + ev.Config))
			case experiments.PhaseDone, experiments.PhaseFailed, experiments.PhaseInterrupted:
				if id, ok := open[ev.Hash]; ok {
					tr.end(id)
					delete(open, ev.Hash)
				}
			}
		}
	}
	tr.within("runner.prefetch", func() { r.Prefetch(r.CampaignRuns([]string{"xtopo"})) })
	var out bytes.Buffer
	tr.within("figure.render", func() {
		var t *experiments.Table
		if t, err = r.Xtopo(); err != nil {
			return
		}
		if t.Degraded {
			err = errors.New("xtopo rendered degraded")
			return
		}
		err = report.Write(&out, t, report.Text)
	})
	if cerr := journal.Close(); err == nil {
		err = cerr
	}
	if err == nil && len(r.FailedRuns()) > 0 {
		err = fmt.Errorf("%d run(s) failed: %s", len(r.FailedRuns()), r.FailedRuns()[0].Error)
	}
	return r, out.Bytes(), err
}

// simulated folds the pass's results, in the figure's own run order.
func (c *campaignInst) simulated(r *experiments.Runner) (opStats, error) {
	var st opStats
	for _, spec := range r.FigureRuns("xtopo") {
		res, err := r.Run(spec.Cfg, spec.Bench) // memo hit
		if err := resultErr(res, err); err != nil {
			return st, err
		}
		m, err := modelsFor(spec.Cfg) // microseconds; each fabric has its own
		if err != nil {
			return st, err
		}
		if err := st.add(m, res); err != nil {
			return st, err
		}
	}
	return st, nil
}

func (c *campaignInst) freshDir() (string, error) {
	dir, err := c.h.tempDir("campaign")
	if err == nil {
		c.dirs = append(c.dirs, dir)
	}
	return dir, err
}

func setupCampaign(h *harness) (instance, error) {
	c := &campaignInst{h: h, opt: experiments.Options{Cores: h.sz.smallCores, Scale: 1, Seed: h.seed}}
	var err error
	h.tr.within("config.build", func() {
		for _, k := range experiments.DefaultTopologies() {
			cfg := c.opt.Config(k)
			if err = cfg.Validate(); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	dir, err := c.freshDir()
	if err != nil {
		return nil, err
	}
	// Warm-up: one radix run through the same Runner, cache and journal.
	h.tr.within("warmup", func() {
		var cache *experiments.Cache
		var journal *experiments.Journal
		if cache, err = experiments.OpenCache(dir); err != nil {
			return
		}
		if journal, err = experiments.OpenJournal(cache.JournalPath()); err != nil {
			return
		}
		r := experiments.NewRunner(c.opt)
		r.Jobs, r.Cache, r.Journal = 1, cache, journal
		res, rerr := r.Run(c.opt.Config(config.ATACPlus), benchApp)
		err = resultErr(res, rerr)
		if cerr := journal.Close(); err == nil {
			err = cerr
		}
	})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return c, nil
}

func (c *campaignInst) op(int) (opStats, error) {
	dir, err := c.freshDir()
	if err != nil {
		return opStats{}, err
	}
	r, out, err := c.pass(c.h.tr, dir, c.opt, 1)
	if err != nil {
		return opStats{}, err
	}
	c.coldDir, c.coldOut, c.ledger = dir, out, r.Ledger()
	return c.simulated(r)
}

func (c *campaignInst) close() {
	for _, d := range c.dirs {
		os.RemoveAll(d)
	}
}

// afterCampaign re-renders the figure from the populated cache: every
// warm pass must reproduce the cold bytes without simulating.
func afterCampaign(h *harness, inst instance, untraced []opRecord) {
	c := inst.(*campaignInst)
	if c.coldDir == "" {
		return
	}
	var passMS []float64
	var fresh uint64
	for p := 0; p < h.sz.warmPasses; p++ {
		t0 := time.Now()
		r, out, err := c.pass(nil, c.coldDir, c.opt, 1)
		passMS = append(passMS, float64(time.Since(t0))/1e6)
		switch {
		case err != nil:
			h.attempt("warm pass: " + err.Error())
		case r.FreshRuns() != 0:
			fresh += r.FreshRuns()
			h.attempt(fmt.Sprintf("warm pass simulated %d run(s)", r.FreshRuns()))
		case !bytes.Equal(out, c.coldOut):
			h.attempt("warm pass output differs from the cold output")
		default:
			h.attempt("")
		}
	}
	if !h.traced {
		return
	}
	h.layer["experiments.warm_pass_ms"] = median(passMS)
	h.layer["experiments.warm_pass_p90_ms"] = quantile(passMS, 0.9)
	h.layer["experiments.warm_fresh_runs"] = float64(fresh)

	last := untraced[len(untraced)-1]
	var simMS float64
	for _, rec := range c.ledger {
		simMS += rec.WallMS
	}
	h.layer["experiments.run_overhead_frac"] = (last.wall.Seconds() - simMS/1e3) / last.wall.Seconds()
	h.layer["system.run_s"] = simMS / 1e3

	// One extra cold pass on both vCPUs: the speed-up is a per-layer
	// number because it does not repeat on a shared 2-vCPU host.
	dir, err := c.freshDir()
	if err != nil {
		h.attempt("jobs2 pass: " + err.Error())
		return
	}
	t0 := time.Now()
	_, out, err := c.pass(nil, dir, c.opt, 2)
	jobs2 := time.Since(t0)
	switch {
	case err != nil:
		h.attempt("jobs2 pass: " + err.Error())
	case !bytes.Equal(out, c.coldOut):
		h.attempt("jobs2 pass output differs from the Jobs=1 output")
	default:
		h.attempt("")
		h.layer["experiments.jobs2_speedup"] = median(opWalls(untraced)) / jobs2.Seconds()
	}
}

// ---- serve-rtt: atacctl submit -wait against an in-process atacd ----

func discardLog(string, ...any) {}

// daemon is an in-process atacd on a loopback listener, wired as
// cmd/atacd wires it: cache, journal, durable job ledger, epoch events.
type daemon struct {
	dir       string
	runner    *experiments.Runner
	journal   *experiments.Journal
	store     *serve.JobStore
	srv       *serve.Server
	hs        *http.Server
	served    chan error
	transport *http.Transport
	client    *serve.Client
	base      string
}

// startDaemon serves on ln. A non-nil ring joins the daemon to that peer
// ring under its own listener address.
func startDaemon(tr *tracer, dir string, opt experiments.Options, ring *cluster.Ring, ln net.Listener) (*daemon, error) {
	d := &daemon{dir: dir, base: "http://" + ln.Addr().String()}
	cache, err := experiments.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	if d.journal, err = experiments.OpenJournal(cache.JournalPath()); err != nil {
		return nil, err
	}
	tr.within("ledger.open", func() {
		d.store, err = serve.OpenJobStore(filepath.Join(dir, serve.StoreFileName))
	})
	if err != nil {
		d.journal.Close()
		return nil, err
	}
	r := experiments.NewRunner(opt)
	r.Jobs = 1
	r.Cache = cache
	r.Journal = d.journal
	r.Retries = 2
	r.RecallFailures = true
	r.EpochCycles = 10000
	d.runner = r
	var member *serve.ClusterConfig
	if ring != nil {
		member = &serve.ClusterConfig{Self: d.base, Ring: ring}
	}
	d.srv = serve.New(r, serve.Options{QueueDepth: 64, Workers: 1, Store: d.store, Cluster: member}, discardLog)
	d.hs = &http.Server{Handler: d.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	d.transport = &http.Transport{}
	d.client = &serve.Client{Base: d.base, HTTP: &http.Client{Transport: d.transport}}
	return d, nil
}

// stop drains the daemon, closes its listener and waits for the serving
// goroutine, so nothing of it outlives the call.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
	d.hs.Shutdown(ctx)
	<-d.served
	d.transport.CloseIdleConnections()
	d.store.Close()
	d.journal.Close()
	os.RemoveAll(d.dir)
}

type serveInst struct {
	h      *harness
	d      *daemon
	models energy.Models

	specs    []serve.JobSpec
	served   []system.Result
	sseFirst []float64 // ms from opening the event stream to its first event
}

func (s *serveInst) spec(seed int64) serve.JobSpec {
	return serve.JobSpec{Bench: benchApp,
		Geometry: experiments.Geometry{Net: "atac+", Cores: s.h.sz.smallCores, Seed: seed}}
}

// firstWrite notes when the SSE stream produced its first event line.
type firstWrite struct{ at time.Time }

func (f *firstWrite) Write(p []byte) (int, error) {
	if f.at.IsZero() {
		f.at = time.Now()
	}
	return len(p), nil
}

// submitWait is atacctl submit -wait: submit, follow the event stream to
// the terminal state, fetch the result.
func (s *serveInst) submitWait(spec serve.JobSpec) (res system.Result, err error) {
	tr := s.h.tr
	var st serve.JobStatus
	tr.within("http.submit", func() { st, err = s.d.client.Submit(spec) })
	if err != nil {
		return res, err
	}
	var state string
	var fw firstWrite
	t0 := time.Now()
	tr.within("sse.watch", func() { state, err = s.d.client.Watch(st.ID, &fw) })
	if err != nil {
		return res, err
	}
	if state != serve.StateDone {
		return res, fmt.Errorf("job %s ended %s", st.ID, state)
	}
	if !fw.at.IsZero() {
		s.sseFirst = append(s.sseFirst, float64(fw.at.Sub(t0))/1e6)
	}
	var body []byte
	tr.within("http.result", func() { body, err = s.d.client.Result(st.ID, false) })
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return res, fmt.Errorf("result body: %w", err)
	}
	return res, nil
}

func setupServe(h *harness) (instance, error) {
	s := &serveInst{h: h}
	cfg, err := buildConfig(h.tr, s.spec(h.seed).Geometry)
	if err != nil {
		return nil, err
	}
	if s.models, err = buildModels(h.tr, cfg); err != nil {
		return nil, err
	}
	dir, err := h.tempDir("serve")
	if err != nil {
		return nil, err
	}
	h.tr.within("daemon.start", func() {
		var ln net.Listener
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return
		}
		opt := experiments.Options{Cores: h.sz.smallCores, Scale: 1, Seed: h.seed}
		if s.d, err = startDaemon(h.tr, dir, opt, nil, ln); err != nil {
			ln.Close()
		}
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	// Warm-up: one spec outside the measured seed range, end to end.
	h.tr.within("warmup", func() { _, err = s.submitWait(s.spec(h.seed + 1000)) })
	if err != nil {
		s.d.stop()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	s.sseFirst = nil
	return s, nil
}

func (s *serveInst) op(i int) (opStats, error) {
	var st opStats
	spec := s.spec(s.h.seed + 1 + int64(i))
	res, err := s.submitWait(spec)
	if err := resultErr(res, err); err != nil {
		return st, err
	}
	s.specs = append(s.specs, spec)
	s.served = append(s.served, res)
	return st, st.add(s.models, res)
}

func (s *serveInst) close() { s.d.stop() }

// afterServe checks every served result against a direct run of the same
// spec and that the daemon never shed load; a traced run then takes the
// serving tier's per-layer readings (see probes.go).
func afterServe(h *harness, inst instance, untraced []opRecord) {
	s := inst.(*serveInst)
	var direct []float64
	for i, spec := range s.specs {
		cfg, err := experiments.BuildConfig(spec.Geometry)
		if err != nil {
			h.attempt("direct run: " + err.Error())
			continue
		}
		var want opStats
		t0 := time.Now()
		res, err := system.RunBenchmark(cfg, spec.Bench, 1, 0)
		direct = append(direct, time.Since(t0).Seconds())
		if err := resultErr(res, err); err != nil {
			h.attempt("direct run: " + err.Error())
			continue
		}
		var got opStats
		if err := errors.Join(want.add(s.models, res), got.add(s.models, s.served[i])); err != nil {
			h.attempt("direct run: " + err.Error())
			continue
		}
		h.check(got.digest == want.digest, "served result for seed %d differs from the direct run", spec.Seed)
	}
	counters, err := scrapeCounters(s.d.client.HTTP, s.d.base)
	if err != nil {
		h.attempt("scrape /metrics: " + err.Error())
		return
	}
	h.check(counters["atacd_jobs_rejected_total"] == 0, "daemon rejected %v submit(s) with 429", counters["atacd_jobs_rejected_total"])
	if !h.traced {
		return
	}
	h.layer["serve.cold_overhead_ms"] = (median(opWalls(untraced)) - median(direct)) * 1e3
	h.layer["system.run_s"] = median(direct)
	h.layer["serve.sse_first_event_ms"] = median(s.sseFirst)
	serveProbes(h, s)
}

// scrapeCounters reads the daemon's Prometheus exposition into a map of
// unlabelled series.
func scrapeCounters(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range bytes.Split(body, []byte("\n")) {
		var name string
		var v float64
		if n, _ := fmt.Sscanf(string(line), "%s %g", &name, &v); n == 2 && name != "#" {
			out[name] = v
		}
	}
	return out, nil
}
