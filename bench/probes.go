package main

// Micro-probes: each times one layer through its public functions, from
// outside, on a small fixed input. They run on traced runs only and feed
// the per-layer table; none of them is gated.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/noc"
	"repro/internal/photonics"
	"repro/internal/resultstore"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/traffic"
	"repro/internal/version"
	"repro/internal/workload"
)

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// layerProbes takes the workload-independent per-layer readings. A probe
// that cannot run records a failure and leaves its metrics at 0.
func layerProbes(h *harness) {
	id := h.tr.begin("probes")
	defer h.tr.end(id)
	for _, p := range []struct {
		name string
		run  func(*harness) error
	}{
		{"build", probeBuild},
		{"cpu+coherence", probeCores},
		{"noc", probeNoc},
		{"sim", probeKernel},
		{"fault", probeFault},
		{"energy", probeEnergy},
		{"experiments", probeStorage},
		{"cluster", probeRing},
	} {
		sid := h.tr.begin("probe." + p.name)
		err := p.run(h)
		h.tr.end(sid)
		if err != nil {
			h.attempt(fmt.Sprintf("probe %s: %v", p.name, err))
		}
	}
}

func (h *harness) scaled(n int) int {
	if n /= h.sz.probeScale; n < 1 {
		return 1
	}
	return n
}

// probeBuild times the constructors a paper-scale run goes through
// before its first event.
func probeBuild(h *harness) error {
	g := experiments.Geometry{Net: "atac+", Cores: h.sz.paperCores, Seed: h.seed}
	cfg, err := experiments.BuildConfig(g)
	if err != nil {
		return err
	}
	h.layer["config.build_us"] = us(perCall(h.scaled(50), 5, func() {
		if c, err := experiments.BuildConfig(g); err == nil {
			err = c.Validate()
		}
	}))
	h.layer["workload.build_ms"] = ms(perCall(1, 3, func() {
		_, err = workload.ByName(benchApp, cfg.Cores, cfg.Seed, 1)
	}))
	if err != nil {
		return err
	}
	h.layer["system.new_ms"] = ms(perCall(1, 3, func() { _, err = system.New(cfg) }))
	if err != nil {
		return err
	}
	g.Cores = h.sz.midCores
	mid, err := experiments.BuildConfig(g)
	if err != nil {
		return err
	}
	h.layer["system.new_sharded_ms"] = ms(perCall(1, 3, func() { _, err = system.NewSharded(mid, 2) }))
	return err
}

// runProgram runs prog on every core of a small ATAC+ machine and
// returns the host time of the run alone.
func runProgram(h *harness, prog cpu.Program) (time.Duration, error) {
	cfg, err := experiments.BuildConfig(experiments.Geometry{Net: "atac+", Cores: h.sz.smallCores, Seed: h.seed})
	if err != nil {
		return 0, err
	}
	sys, err := system.New(cfg)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	res, err := sys.Run(workload.Spec{Name: "probe", Program: prog}, 0)
	wall := time.Since(t0)
	if err := resultErr(res, err); err != nil {
		return 0, err
	}
	return wall, nil
}

// probeCores times the workload<->core handshake and the two ends of the
// coherence path with hand-written cpu.Programs.
func probeCores(h *harness) error {
	cores := h.sz.smallCores
	n := h.scaled(4000)
	// Compute(1): the goroutine handshake plus one kernel event, nothing else.
	wall, err := runProgram(h, func(p *cpu.Proc) {
		for i := 0; i < n; i++ {
			p.Compute(1)
		}
	})
	if err != nil {
		return err
	}
	h.layer["cpu.compute_op_ns"] = float64(wall) / float64(n*cores)

	// Loads to a line only this core touches: one cold miss, then L1 hits.
	const base, stride = 1 << 24, 4096
	wall, err = runProgram(h, func(p *cpu.Proc) {
		addr := uint64(base + p.ID()*stride)
		for i := 0; i < n; i++ {
			p.Load(addr)
		}
	})
	if err != nil {
		return err
	}
	h.layer["coherence.l1hit_op_ns"] = float64(wall) / float64(n*cores)

	// Two cores storing to one line: every store takes the directory and
	// the network to pull the line back from the other core.
	m := h.scaled(2000)
	wall, err = runProgram(h, func(p *cpu.Proc) {
		if p.ID() > 1 {
			return
		}
		for i := 0; i < m; i++ {
			p.Store(base, uint64(i))
		}
	})
	if err != nil {
		return err
	}
	h.layer["coherence.miss_op_ns"] = float64(wall) / float64(2*m)
	return nil
}

// driveFabric pushes uniform traffic through a bare fabric with
// traffic.Drive (no cores, no coherence) and returns the host time, the
// heap objects allocated, and the fabric's counters.
func driveFabric(h *harness, kind config.NetworkKind, bcast float64) (time.Duration, uint64, noc.Stats, error) {
	cfg := experiments.Options{Cores: h.sz.smallCores, Scale: 1, Seed: h.seed}.Config(kind)
	if err := cfg.Validate(); err != nil {
		return 0, 0, noc.Stats{}, err
	}
	p, err := traffic.ByName("uniform", cfg.MeshDim(), bcast)
	if err != nil {
		return 0, 0, noc.Stats{}, err
	}
	var k sim.Kernel
	var net noc.Network
	n := &cfg.Network
	switch kind {
	case config.EMeshPure, config.EMeshBCast:
		net = noc.NewMesh(&k, cfg.MeshDim(), n.FlitBits, n.BufFlits, n.RouterDelay, n.LinkDelay, kind == config.EMeshBCast)
	case config.ATACPlus:
		net = noc.NewAtac(&k, &cfg)
	case config.Corona:
		net = noc.NewCrossbar(&k, &cfg)
	case config.HybridMesh:
		net = noc.NewHybrid(&k, &cfg)
	default:
		return 0, 0, noc.Stats{}, fmt.Errorf("no fabric probe for %v", kind)
	}
	var wall time.Duration
	measure := sim.Time(h.scaled(20000))
	mallocs := mallocsDuring(func() {
		t0 := time.Now()
		traffic.Drive(&k, net, cfg.Cores, p, 0.05, n.FlitBits, 0, measure, 20000, h.seed)
		wall = time.Since(t0)
	})
	return wall, mallocs, *net.Stats(), nil
}

func probeNoc(h *harness) error {
	wall, _, st, err := driveFabric(h, config.EMeshPure, 0)
	if err != nil {
		return err
	}
	if st.MeshLinkFlits > 0 {
		h.layer["noc.mesh_ns_per_flit_hop"] = float64(wall) / float64(st.MeshLinkFlits)
	}
	for _, f := range []struct {
		kind   config.NetworkKind
		ns     string
		allocs string
	}{
		{config.EMeshBCast, "noc.mesh_bcast_ns_per_msg", ""},
		{config.ATACPlus, "noc.atac_ns_per_msg", "noc.atac_allocs_per_msg"},
		{config.Corona, "noc.corona_ns_per_msg", "noc.corona_allocs_per_msg"},
		{config.HybridMesh, "noc.hybrid_ns_per_msg", ""},
	} {
		wall, mallocs, st, err := driveFabric(h, f.kind, 0.005)
		if err != nil {
			return err
		}
		msgs := float64(st.UnicastSent + st.BroadcastSent)
		if msgs == 0 {
			return fmt.Errorf("%v carried no messages", f.kind)
		}
		h.layer[f.ns] = float64(wall) / msgs
		if f.allocs != "" {
			h.layer[f.allocs] = float64(mallocs) / msgs
		}
		switch f.kind {
		case config.Corona:
			if st.TokensGranted > 0 {
				h.layer["noc.corona_token_wait_per_grant"] = float64(st.TokenWaitCycles) / float64(st.TokensGranted)
			}
		case config.HybridMesh:
			h.layer["noc.hybrid_express_frac"] = float64(st.ExpressPkts) / msgs
		}
	}
	return nil
}

// probeKernel times the event wheel, the far heap and the 2-shard window
// barrier on bare engines.
func probeKernel(h *harness) error {
	chain := func(delay sim.Time, events int) time.Duration {
		var k sim.Kernel
		left := events
		var fn func()
		fn = func() {
			if left--; left > 0 {
				k.Schedule(delay, fn)
			}
		}
		k.Schedule(delay, fn)
		t0 := time.Now()
		k.RunAll()
		return time.Since(t0)
	}
	n := h.scaled(1000000)
	h.layer["sim.kernel_ns_per_event"] = float64(chain(1, n)) / float64(n)
	n = h.scaled(200000)
	h.layer["sim.kernel_far_ns_per_event"] = float64(chain(5000, n)) / float64(n) // beyond the 4096-cycle wheel

	// Two shards, one event and one cross-shard Post each per cycle: every
	// window is busy, so wall / windows is the cost of one barrier round.
	windows := h.scaled(100000)
	sh := sim.NewSharded(2, 1)
	defer sh.Close()
	for i := 0; i < 2; i++ {
		i, k := i, sh.Shard(i)
		var fn func()
		fn = func() {
			sh.Post(i, 1-i, func() {})
			k.Schedule(1, fn)
		}
		k.Schedule(1, fn)
	}
	t0 := time.Now()
	sh.Run(sim.Time(windows))
	h.layer["sim.sharded2_ns_per_window"] = float64(time.Since(t0)) / float64(windows)
	return nil
}

// probeFault runs the retransmit path no end-to-end workload exercises.
func probeFault(h *harness) error {
	cfg, err := experiments.BuildConfig(experiments.Geometry{Net: "atac+", Cores: h.sz.smallCores, Seed: h.seed})
	if err != nil {
		return err
	}
	cfg.Fault.Enabled = true
	cfg.Fault.OpticalBER = 1e-6
	if err := cfg.Validate(); err != nil {
		return err
	}
	t0 := time.Now()
	res, err := system.RunBenchmark(cfg, benchApp, 1, 0)
	if err := resultErr(res, err); err != nil {
		return err
	}
	h.layer["fault.ber_run_s"] = time.Since(t0).Seconds()
	h.layer["fault.retx_flits"] = float64(res.Net.OpticalRetxFlits)
	return nil
}

func probeEnergy(h *harness) error {
	cfg, err := experiments.BuildConfig(experiments.Geometry{Net: "atac+", Cores: h.sz.paperCores, Seed: h.seed})
	if err != nil {
		return err
	}
	var m energy.Models
	h.layer["energy.build_us"] = us(perCall(h.scaled(20), 5, func() { m, err = energy.Build(cfg) }))
	if err != nil {
		return err
	}
	_, pp, err := energy.Scenario(cfg)
	if err != nil {
		return err
	}
	geo := photonics.NewGeometry(cfg.Clusters(), cfg.Network.FlitBits)
	h.layer["energy.photonics_solve_us"] = us(perCall(h.scaled(200), 5, func() { _, err = photonics.Solve(pp, geo) }))
	if err != nil {
		return err
	}
	res := system.Result{Benchmark: benchApp, Cfg: cfg, Cycles: 1000000, Instructions: 1 << 30, Finished: true}
	h.layer["energy.combine_ns"] = float64(perCall(h.scaled(2000), 5, func() {
		sink = energy.Combine(m, res).Total()
	}))
	return nil
}

// probeStorage times the campaign engine's persistence: cache entries of
// paper-scale size, journal appends and replay, the in-process memo, and
// the tiered store's local and loopback-peer paths.
func probeStorage(h *harness) error {
	dir, err := h.tempDir("probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := experiments.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	cfg, err := experiments.BuildConfig(experiments.Geometry{Net: "atac+", Cores: h.sz.paperCores, Seed: h.seed})
	if err != nil {
		return err
	}
	res := system.Result{Benchmark: benchApp, Cfg: cfg, Cycles: 2890396, Instructions: 1 << 30, Finished: true}
	const key = "bench-probe|radix|atac+|c1024"
	h.layer["experiments.cache_put_us"] = us(perCall(h.scaled(20), 5, func() { err = cache.Put(key, res) }))
	if err != nil {
		return err
	}
	ok := true
	h.layer["experiments.cache_get_us"] = us(perCall(h.scaled(200), 5, func() {
		if _, hit := cache.Get(key); !hit {
			ok = false
		}
	}))
	if !ok {
		return fmt.Errorf("cache.Get missed an entry just written")
	}

	jpath := filepath.Join(dir, "journal", experiments.JournalFileName)
	j, err := experiments.OpenJournal(jpath)
	if err != nil {
		return err
	}
	seq := 0
	appendOne := func() {
		seq++
		j.Done(resultstore.Hash(fmt.Sprint("probe", seq)), "probe", 1, time.Millisecond)
	}
	h.layer["experiments.journal_append_us"] = us(perCall(h.scaled(200), 5, appendOne))
	for j.Len() < h.scaled(1000) {
		appendOne()
	}
	if err := j.Close(); err != nil {
		return err
	}
	h.layer["experiments.journal_open_ms"] = ms(perCall(1, 5, func() {
		var jj *experiments.Journal
		if jj, err = experiments.OpenJournal(jpath); err == nil {
			err = jj.Close()
		}
	}))
	if err != nil {
		return err
	}

	// Memo: the second Run of a key never leaves the Runner's map.
	opt := experiments.Options{Cores: 16, Scale: 1, Seed: h.seed}
	r := experiments.NewRunner(opt)
	r.Jobs = 1
	small := opt.Config(config.ATACPlus)
	if _, err := r.Run(small, benchApp); err != nil {
		return err
	}
	h.layer["experiments.memo_hit_ns"] = float64(perCall(h.scaled(20000), 5, func() { _, err = r.Run(small, benchApp) }))
	if err != nil {
		return err
	}

	// Tiered store over a loopback peer that serves its own cache through
	// the daemon's /v1/cache routes.
	peerCache, err := experiments.OpenCache(filepath.Join(dir, "peer"))
	if err != nil {
		return err
	}
	pr := experiments.NewRunner(opt)
	pr.Cache = peerCache
	psrv := serve.New(pr, serve.Options{Workers: 1}, discardLog)
	ts := httptest.NewServer(psrv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		psrv.Shutdown(ctx)
	}()
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	peers := &resultstore.Peers{
		Pick:   func(string) []string { return []string{ts.URL} },
		Schema: version.CacheSchema,
		HTTP:   &http.Client{Transport: transport, Timeout: 2 * time.Second},
	}
	tiered := &resultstore.Tiered{Local: cache, Remote: peers}
	h.layer["resultstore.tiered_local_get_us"] = us(perCall(h.scaled(200), 5, func() {
		if _, hit := tiered.Get(key); !hit {
			ok = false
		}
	}))
	h.layer["resultstore.peer_put_us"] = us(perCall(h.scaled(50), 5, func() { err = peers.Put(key, res) }))
	if err != nil {
		return err
	}
	h.layer["resultstore.peer_get_us"] = us(perCall(h.scaled(200), 5, func() {
		if _, hit := peers.Get(key); !hit {
			ok = false
		}
	}))
	if !ok || peers.PushErrors() > 0 {
		return fmt.Errorf("loopback peer store missed or refused an entry")
	}
	return nil
}

func probeRing(h *harness) error {
	ring := cluster.NewRing([]string{"http://n1:1", "http://n2:1", "http://n3:1", "http://n4:1", "http://n5:1"})
	hash := resultstore.Hash("bench-probe")
	var owner string
	h.layer["cluster.ring_owner_ns"] = float64(perCall(h.scaled(20000), 5, func() { owner = ring.Owner(hash) }))
	if owner == "" {
		return fmt.Errorf("ring has no owner for a hash")
	}
	return nil
}

// ---- serve-rtt's own per-layer readings ----

// serveProbes runs against the workload's live daemon: warm resubmits of
// a finished spec, the handlers without a socket, the polling result
// path, the ledger, the collector's cost, and a two-node forward.
func serveProbes(h *harness, s *serveInst) {
	id := h.tr.begin("probe.serve")
	defer h.tr.end(id)
	if err := probeWarm(h, s); err != nil {
		h.attempt("probe serve warm: " + err.Error())
	}
	if err := probeHandlers(h, s); err != nil {
		h.attempt("probe serve handlers: " + err.Error())
	}
	if err := probeEpochs(h); err != nil {
		h.attempt("probe metrics epochs: " + err.Error())
	}
	if err := probeForward(h); err != nil {
		h.attempt("probe cluster forward: " + err.Error())
	}
}

func probeWarm(h *harness, s *serveInst) error {
	if len(s.specs) == 0 {
		return fmt.Errorf("no finished spec to resubmit")
	}
	spec := s.specs[0]
	before, err := scrapeCounters(s.d.client.HTTP, s.d.base)
	if err != nil {
		return err
	}
	n := h.sz.warmOps
	rtts := make([]float64, 0, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		st, err := s.d.client.Submit(spec)
		if err != nil {
			return err
		}
		if st.State != serve.StateDone {
			return fmt.Errorf("resubmit of a finished spec answered %q", st.State)
		}
		rtts = append(rtts, us(time.Since(t)))
	}
	total := time.Since(t0)
	h.layer["serve.warm_rtt_p50_us"] = median(rtts)
	h.layer["serve.warm_rtt_p99_us"] = quantile(rtts, 0.99)
	h.layer["serve.warm_ops_per_s"] = float64(n) / total.Seconds()
	after, err := scrapeCounters(s.d.client.HTTP, s.d.base)
	if err != nil {
		return err
	}
	coalesced := after["atacd_jobs_coalesced_total"] - before["atacd_jobs_coalesced_total"]
	h.layer["serve.coalesced"] = coalesced
	h.layer["serve.rejected_429"] = after["atacd_jobs_rejected_total"]
	h.check(coalesced == float64(n), "daemon coalesced %v of %d resubmits", coalesced, n)

	// The polling client path: a cold op through Result(id, wait=true)
	// pays the 200 ms poll quantum.
	cold := s.spec(h.seed + 2000)
	t := time.Now()
	st, err := s.d.client.Submit(cold)
	if err != nil {
		return err
	}
	if _, err := s.d.client.Result(st.ID, true); err != nil {
		return err
	}
	h.layer["serve.poll_wait_rtt_ms"] = ms(time.Since(t))
	return nil
}

func probeHandlers(h *harness, s *serveInst) error {
	handler := s.d.srv.Handler()
	body := []byte(fmt.Sprintf(`{"bench":%q,"net":"atac+","cores":%d,"seed":%d}`,
		benchApp, s.specs[0].Cores, s.specs[0].Seed))
	var id string
	code := 0
	h.layer["serve.handler_submit_us"] = us(perCall(h.scaled(2000), 5, func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		handler.ServeHTTP(rec, req)
		code = rec.Code
		if id == "" {
			var st serve.JobStatus
			if json.Unmarshal(rec.Body.Bytes(), &st) == nil {
				id = st.ID
			}
		}
	}))
	if code != http.StatusOK || id == "" {
		return fmt.Errorf("in-process submit answered %d", code)
	}
	h.layer["serve.handler_result_us"] = us(perCall(h.scaled(2000), 5, func() {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/result", nil))
		code = rec.Code
	}))
	if code != http.StatusOK {
		return fmt.Errorf("in-process result answered %d", code)
	}

	dir, err := h.tempDir("ledger")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := serve.OpenJobStore(filepath.Join(dir, serve.StoreFileName))
	if err != nil {
		return err
	}
	seq := 0
	h.layer["serve.ledger_accept_us"] = us(perCall(h.scaled(200), 5, func() {
		seq++
		hash := resultstore.Hash(fmt.Sprint("ledger", seq))
		err = store.Accept(hash[:16], hash, s.specs[0])
	}))
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	return err
}

// probeEpochs compares a run with a collector attached at atacd's epoch
// length against the same run without one, interleaved.
func probeEpochs(h *harness) error {
	cfg, err := experiments.BuildConfig(experiments.Geometry{Net: "atac+", Cores: h.sz.smallCores, Seed: h.seed})
	if err != nil {
		return err
	}
	run := func(observed bool) (time.Duration, error) {
		spec, err := workload.ByName(benchApp, cfg.Cores, cfg.Seed, 1)
		if err != nil {
			return 0, err
		}
		sys, err := system.New(cfg)
		if err != nil {
			return 0, err
		}
		if observed {
			sys.AttachMetrics(metrics.New(sys.Clock(), 10000))
		}
		t0 := time.Now()
		res, err := sys.Run(spec, 0)
		if err := resultErr(res, err); err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	}
	var with, without []float64
	for i := 0; i < 3; i++ {
		a, err := run(true)
		if err != nil {
			return err
		}
		b, err := run(false)
		if err != nil {
			return err
		}
		with, without = append(with, a.Seconds()), append(without, b.Seconds())
	}
	h.layer["metrics.epoch_overhead_frac"] = median(with)/median(without) - 1
	return nil
}

// probeForward brings up two daemons on one ring and resubmits a
// finished spec to the node that does not own it.
func probeForward(h *harness) error {
	// Listener addresses must exist before the ring, the ring before the
	// daemons. A daemon owns its listener once started; on an early return
	// the rest are closed here.
	var lns []net.Listener
	var nodes []*daemon
	defer func() {
		for _, d := range nodes {
			d.stop()
		}
		for _, ln := range lns[len(nodes):] {
			ln.Close()
		}
	}()
	var urls []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	ring := cluster.NewRing(urls)
	opt := experiments.Options{Cores: 16, Scale: 1, Seed: h.seed}
	for _, ln := range lns {
		dir, err := h.tempDir("node")
		if err != nil {
			return err
		}
		d, err := startDaemon(nil, dir, opt, ring, ln)
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		nodes = append(nodes, d)
	}
	spec := serve.JobSpec{Bench: benchApp, Geometry: experiments.Geometry{Net: "atac+", Cores: 16, Seed: h.seed + 1}}
	first, err := nodes[0].client.Submit(spec)
	if err != nil {
		return err
	}
	via := nodes[0]
	if ring.Owner(first.Hash) == nodes[0].base {
		via = nodes[1]
	}
	owner := &serve.Client{Base: ring.Owner(first.Hash), HTTP: via.client.HTTP}
	if _, err := owner.Result(first.ID, true); err != nil {
		return err
	}
	h.layer["cluster.forward_warm_rtt_us"] = us(perCall(h.scaled(200), 5, func() {
		var st serve.JobStatus
		if st, err = via.client.Submit(spec); err == nil && st.State != serve.StateDone {
			err = fmt.Errorf("forwarded resubmit answered %q", st.State)
		}
	}))
	return err
}
