// Package serve turns the campaign engine into a simulation-as-a-service
// daemon: an HTTP/JSON API over experiments.Runner that inherits its
// worker pool, singleflight dedup, persistent cache, journal, retries and
// deadlines, and adds what a long-lived service needs — a bounded job
// queue with admission control, cross-request coalescing on the run hash,
// live progress streaming (Server-Sent Events fed by the epoch metrics
// layer), Prometheus-style /metrics, and graceful drain on SIGTERM via
// the campaign's two-stage shutdown machinery.
//
// The daemon is crash-only (store.go): accepted jobs are persisted to a
// JSONL ledger before the 202 response, startup replays the ledger and
// re-enqueues everything unsettled, and the campaign cache + journal
// guarantee the replay costs zero duplicate simulations. HTTP handlers
// are panic-isolated and (except the SSE stream) bounded by a per-request
// timeout, and SSE subscribers are evicted rather than ever back-pressuring
// the simulation's event path.
//
// API:
//
//	POST /v1/jobs              submit a JobSpec; 202 new, 200 coalesced,
//	                           429+Retry-After queue full, 503 draining
//	                           or job store unwritable
//	GET  /v1/jobs              list job statuses, oldest first
//	GET  /v1/jobs/{id}         one job's status
//	GET  /v1/jobs/{id}/result  the completed system.Result (202 while
//	                           pending, 500 if the run failed)
//	GET  /v1/jobs/{id}/events  SSE: replayed + live RunEvents, with ids;
//	                           honors Last-Event-ID on reconnect
//	GET  /healthz              daemon health, version, cache schema,
//	                           job-store state (503 when unwritable)
//	GET  /metrics              Prometheus text exposition
package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/system"
	"repro/internal/version"
	"repro/internal/workload"
)

// retryAfter is the hint returned with 429 responses.
const retryAfter = 5 * time.Second

// Options sizes the daemon.
type Options struct {
	// QueueDepth bounds how many submitted jobs may wait for a worker;
	// beyond it submissions are rejected with 429. Zero means 64.
	QueueDepth int
	// Workers is how many jobs execute concurrently. Zero means the
	// Runner's job default (REPRO_JOBS env, else GOMAXPROCS).
	Workers int
	// RequestTimeout bounds every non-streaming HTTP request. Zero means
	// 15s; negative disables the bound (tests).
	RequestTimeout time.Duration
	// Store, if non-nil, is the durable job ledger: accepted jobs are
	// persisted before the 202 response and replayed (re-enqueued) on
	// startup, making the daemon survivable under SIGKILL. Nil serves
	// non-durably.
	Store *JobStore
	// Cluster, if non-nil, joins this daemon to a peer ring: submits for
	// hashes owned by other nodes are forwarded (with local failover),
	// and the local result cache is served to peers. Nil is single-node.
	Cluster *ClusterConfig
}

// Server is the daemon: a job registry and bounded queue in front of one
// experiments.Runner. Create with New, serve Handler(), stop with Drain
// then Shutdown.
type Server struct {
	runner *experiments.Runner
	opt    Options
	logf   func(format string, args ...any)

	mu     sync.Mutex
	jobs   map[string]*Job // by short ID
	byHash map[string]*Job // same jobs, by full run hash
	queue  chan *Job
	closed bool // queue closed (Shutdown)

	draining atomic.Bool
	drainCh  chan struct{}
	workers  sync.WaitGroup
	resumer  sync.WaitGroup
	baseCtx  context.Context

	met metricsState

	// execute is the simulation seam: Runner.RunContext in production,
	// a stub in queue/admission/chaos tests.
	execute func(ctx context.Context, cfg config.Config, bench string) (system.Result, error)

	// benches is the set of valid application benchmark names, resolved
	// once; synth: pseudo-benchmarks are parsed and SynthSpec.Validate'd
	// instead.
	benches map[string]bool
}

// New builds a Server on the Runner, wires the Runner's Events hook to
// the per-job fan-out, and — when Options.Store is set — replays the job
// ledger, re-enqueueing every job the previous process owed an answer
// for. The Runner should already carry its cache, journal and retry
// policy; New additionally sets Events (and leaves EpochCycles to the
// caller — atacd sets it so fresh runs stream epoch progress).
func New(r *experiments.Runner, opt Options, logf func(format string, args ...any)) *Server {
	s := newServer(r, opt, logf)
	s.resume()
	return s
}

// newServer is New without the ledger replay (chaos tests stub execute
// between construction and resume).
func newServer(r *experiments.Runner, opt Options, logf func(format string, args ...any)) *Server {
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = 64
	}
	if opt.Workers <= 0 {
		opt.Workers = experiments.DefaultJobs()
	}
	if opt.RequestTimeout == 0 {
		opt.RequestTimeout = 15 * time.Second
	}
	if logf == nil {
		logf = log.Printf
	}
	s := &Server{
		runner:  r,
		opt:     opt,
		logf:    logf,
		jobs:    make(map[string]*Job),
		byHash:  make(map[string]*Job),
		queue:   make(chan *Job, opt.QueueDepth),
		drainCh: make(chan struct{}),
		baseCtx: context.Background(),
		benches: make(map[string]bool),
	}
	s.execute = r.RunContext
	r.Events = s.routeEvent
	for _, name := range workload.Names() {
		s.benches[name] = true
	}
	for i := 0; i < opt.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// SetBaseContext sets the context under which jobs execute (atacd passes
// the campaign's hard-cancellation context so a second SIGTERM aborts
// in-flight simulations at the kernel's next poll).
func (s *Server) SetBaseContext(ctx context.Context) { s.baseCtx = ctx }

// resume replays the durable job ledger: every job that is not terminally
// settled — and every settled one whose result a lingering client may
// still ask for — is re-registered and re-enqueued. Re-running settled
// work is free: done runs answer from the persistent cache and failed
// runs are recalled from the campaign journal, so a SIGKILL at any
// instant converges to the same bytes with zero duplicate simulations.
//
// Registration is synchronous (a client reconnecting the moment the
// listener opens must find its job), but enqueueing happens on a
// background goroutine with blocking sends: a ledger larger than the
// queue simply feeds the workers as they drain. Jobs whose stored spec no
// longer resolves to its stored identity — a schema bump or changed
// campaign options — are orphaned: settled terminally in the ledger and
// registered as failed so clients get an answer instead of a 404.
func (s *Server) resume() {
	if s.opt.Store == nil {
		return
	}
	var pending []*Job
	for _, e := range s.opt.Store.Entries() {
		if e.Status == StoreOrphaned || e.Status == StoreRejected {
			continue
		}
		cfg, hash, spec, err := s.resolve(e.Spec)
		if err != nil || hash != e.Hash {
			if err == nil {
				err = fmt.Errorf("stored identity %s resolves to %s (schema or campaign options changed)",
					shortID(e.Hash), shortID(hash))
			}
			s.met.orphaned.Add(1)
			s.opt.Store.Settle(e.ID, e.Hash, StoreOrphaned, err.Error())
			j := &Job{ID: e.ID, Hash: e.Hash, Spec: e.Spec, state: StateFailed,
				resumed: true, errText: "orphaned: " + err.Error(),
				created: time.Now(), finished: time.Now()}
			j.onEvict = s.noteEvicted
			s.mu.Lock()
			s.jobs[j.ID] = j
			s.byHash[j.Hash] = j
			s.mu.Unlock()
			s.logf("resume: orphaned job %s (%s): %v", e.ID, e.Spec.Bench, err)
			continue
		}
		j := &Job{ID: e.ID, Hash: hash, Spec: spec, Cfg: cfg, Peer: s.self(),
			state: StateQueued, resumed: true, created: time.Now()}
		j.onEvict = s.noteEvicted
		s.mu.Lock()
		s.jobs[j.ID] = j
		s.byHash[hash] = j
		s.mu.Unlock()
		s.met.resumed.Add(1)
		pending = append(pending, j)
	}
	if len(pending) == 0 {
		return
	}
	s.logf("resume: re-enqueueing %d job(s) from %s", len(pending), s.opt.Store.Path())
	s.resumer.Add(1)
	go func() {
		defer s.resumer.Done()
		for _, j := range pending {
			select {
			case s.queue <- j:
			case <-s.drainCh:
				// Draining: the job stays accepted in the ledger and the
				// next startup resumes it. Crash-only means never racing a
				// shutdown to finish bookkeeping.
				return
			}
		}
	}()
}

// noteEvicted counts SSE subscribers evicted for stalling (called from
// Job.deliver under the job's mutex).
func (s *Server) noteEvicted(n int) { s.met.sseEvicted.Add(uint64(n)) }

// routeEvent delivers a Runner event to the job owning its run hash.
// Events for runs not submitted through the API (none, in practice) are
// dropped.
func (s *Server) routeEvent(ev experiments.RunEvent) {
	s.mu.Lock()
	j := s.byHash[ev.Hash]
	s.mu.Unlock()
	if j != nil {
		j.deliver(ev)
	}
}

// worker executes queued jobs until the queue is closed by Shutdown.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.met.inflight.Add(1)
		j.start()
		start := time.Now()
		res, err := s.execute(s.baseCtx, j.Cfg, j.Spec.Bench)
		s.met.observe(time.Since(start))
		j.finish(res, err)
		if err != nil {
			s.met.failed.Add(1)
			s.opt.Store.Settle(j.ID, j.Hash, StoreFailed, err.Error())
			s.logf("job %s (%s): %v", j.ID, j.Spec.Bench, err)
		} else {
			s.met.done.Add(1)
			s.opt.Store.Settle(j.ID, j.Hash, StoreDone, "")
		}
		s.met.inflight.Add(^uint64(0))
	}
}

// Drain stops admitting new jobs: submissions return 503 and /healthz
// flips to draining. Idempotent; already-queued jobs still run (under a
// quiesced Runner, queued fresh work fails fast with ErrInterrupted while
// in-flight simulations complete and journal normally).
func (s *Server) Drain() {
	if s.draining.CompareAndSwap(false, true) {
		close(s.drainCh)
	}
}

// Draining returns a channel closed when Drain is called.
func (s *Server) Draining() <-chan struct{} { return s.drainCh }

// Shutdown drains (if not already draining), closes the queue, and waits
// for workers to finish the jobs they hold — or for ctx, whichever first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Drain()
	s.resumer.Wait() // unblocked by drainCh; must not race the queue close
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Handler returns the daemon's HTTP routes, each panic-isolated and —
// except the long-lived SSE stream — bounded by the per-request timeout.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/jobs", s.timed(s.handleSubmit))
	mux.Handle("GET /v1/jobs", s.timed(s.handleList))
	mux.Handle("GET /v1/jobs/{id}", s.timed(s.handleStatus))
	mux.Handle("GET /v1/jobs/{id}/result", s.timed(s.handleResult))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.Handle("GET /v1/cache/{hash}", s.timed(s.handleCacheGet))
	mux.Handle("PUT /v1/cache/{hash}", s.timed(s.handleCachePut))
	mux.Handle("GET /healthz", s.timed(s.handleHealthz))
	mux.Handle("GET /metrics", s.timed(s.handleMetrics))
	return s.recovered(mux)
}

// timed bounds one JSON endpoint with the per-request timeout. The
// standard TimeoutHandler both cancels the request context and guards the
// ResponseWriter after expiry, which is exactly the protection a
// misbehaving (slow-reading) peer calls for.
func (s *Server) timed(h http.HandlerFunc) http.Handler {
	if s.opt.RequestTimeout < 0 {
		return h
	}
	return http.TimeoutHandler(h, s.opt.RequestTimeout, `{"error":"request timed out"}`)
}

// recovered panic-isolates the HTTP surface, mirroring the campaign's
// worker isolation: a panicking handler logs its stack, counts on
// /metrics, and answers 500 — it never takes the daemon down with it.
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler { // deliberate aborts pass through
				panic(p)
			}
			s.met.panics.Add(1)
			s.logf("panic in %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			// Best effort: if the handler already wrote, this is a no-op
			// beyond a log line from net/http.
			writeJSON(w, http.StatusInternalServerError, apiError{"internal error"})
		}()
		next.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

// shortID abbreviates a run hash to the API's job-ID length.
func shortID(hash string) string {
	if len(hash) > 16 {
		return hash[:16]
	}
	return hash
}

// resolve validates a JobSpec and derives its config and run identity,
// returning the *resolved* spec — unspecified geometry fields replaced by
// the daemon's defaults (-cores, -seed) before hashing, so "whatever the
// daemon defaults to" and the explicit equivalent are the same job, and
// so the job store persists an identity that survives a restart with
// different defaults.
func (s *Server) resolve(spec JobSpec) (config.Config, string, JobSpec, error) {
	if spec.Bench == "" {
		return config.Config{}, "", spec, errors.New("missing bench")
	}
	if sp, ok := experiments.ParseSynthBench(spec.Bench); ok {
		if err := sp.Validate(); err != nil {
			return config.Config{}, "", spec, err
		}
	} else if !s.benches[spec.Bench] {
		return config.Config{}, "", spec, fmt.Errorf("unknown benchmark %q", spec.Bench)
	}
	if spec.Cores == 0 {
		spec.Cores = s.runner.Opt.Cores
	}
	if spec.Seed == 0 {
		spec.Seed = s.runner.Opt.Seed
	}
	cfg, err := experiments.BuildConfig(spec.Geometry)
	if err != nil {
		return config.Config{}, "", spec, err
	}
	return cfg, s.runner.RunHash(cfg, spec.Bench), spec, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{"bad request body: " + err.Error()})
		return
	}
	cfg, hash, spec, err := s.resolve(spec)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	s.met.submitted.Add(1)

	// Cluster routing: a submit for a hash another node owns is forwarded
	// there — unless this request already hopped once (loop guard), the
	// job is already known locally (coalescing is cheaper and correct), or
	// the owner is down (execute locally; the hash keeps it idempotent).
	if r.Header.Get(ForwardHeader) != "" {
		s.met.receivedForwards.Add(1)
	} else if owner, forward := s.forwardTarget(hash); forward {
		s.mu.Lock()
		_, known := s.byHash[hash]
		s.mu.Unlock()
		if !known && s.forwardSubmit(w, owner, spec) {
			return
		}
	}

	s.mu.Lock()
	if j, ok := s.byHash[hash]; ok {
		// Identical spec already known — whatever its state, this request
		// coalesces onto it and never costs a second simulation. This is
		// also what makes client re-submits after a transport error (or a
		// daemon restart) idempotent: the run hash is the request identity.
		j.mu.Lock()
		j.coalesced++
		j.mu.Unlock()
		s.mu.Unlock()
		s.met.coalesced.Add(1)
		writeJSON(w, http.StatusOK, j.Status())
		return
	}
	if s.draining.Load() || s.closed {
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, apiError{"draining: not admitting new jobs"})
		return
	}
	j := &Job{
		ID:      shortID(hash),
		Hash:    hash,
		Spec:    spec,
		Cfg:     cfg,
		Peer:    s.self(),
		state:   StateQueued,
		created: time.Now(),
		onEvict: s.noteEvicted,
	}
	// Durability before admission: the job must be on disk before any
	// response promises it. An unwritable ledger refuses work — /healthz
	// flips 503 in parallel so load balancers stop routing here.
	if err := s.opt.Store.Accept(j.ID, hash, spec); err != nil {
		s.mu.Unlock()
		s.met.storeErrors.Add(1)
		s.logf("job store: %v", err)
		writeJSON(w, http.StatusServiceUnavailable, apiError{"job store unwritable: " + err.Error()})
		return
	}
	// Register before enqueueing: a worker may start the job the moment
	// it hits the queue, and routeEvent must already find it by hash.
	s.jobs[j.ID] = j
	s.byHash[hash] = j
	select {
	case s.queue <- j:
	default:
		delete(s.jobs, j.ID)
		delete(s.byHash, hash)
		s.mu.Unlock()
		s.opt.Store.Settle(j.ID, hash, StoreRejected, "queue full")
		s.met.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
		writeJSON(w, http.StatusTooManyRequests,
			apiError{fmt.Sprintf("queue full (%d jobs waiting); retry later", s.opt.QueueDepth)})
		return
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// handleList lists every job in submission order, ties broken by ID, so
// the listing does not depend on map iteration.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	slices.SortFunc(jobs, func(a, b *Job) int {
		return cmp.Or(a.created.Compare(b.created), cmp.Compare(a.ID, b.ID))
	})
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, apiError{"no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, apiError{"no such job"})
		return
	}
	if res, ok := j.Result(); ok {
		writeJSON(w, http.StatusOK, res)
		return
	}
	if j.State() == StateFailed {
		writeJSON(w, http.StatusInternalServerError, j.Status())
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

// handleEvents streams the job's RunEvents as Server-Sent Events: the
// log so far is replayed, then live events follow until the job reaches a
// terminal state (or the client goes away, or it stalls long enough to be
// evicted). Every event carries an SSE id — its index in the job's event
// log — and the handler honors the standard Last-Event-ID header, so a
// reconnecting client (atacctl watch after a daemon restart) resumes
// exactly where its previous connection tore.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, apiError{"no such job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, apiError{"streaming unsupported"})
		return
	}
	offset := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if last, err := strconv.Atoi(v); err == nil && last >= 0 {
			offset = last + 1
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	replay, live, cancel := j.subscribe(offset)
	defer cancel()
	s.met.sseSubs.Add(1)
	defer s.met.sseSubs.Add(^uint64(0))

	emit := func(se seqEvent) {
		data, _ := json.Marshal(se.Ev)
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", se.Seq, se.Ev.Phase, data)
		fl.Flush()
	}
	for _, se := range replay {
		emit(se)
	}
	if live == nil { // already terminal: replay was the whole story
		fmt.Fprintf(w, "event: end\ndata: {\"state\":%q}\n\n", j.State())
		fl.Flush()
		return
	}
	for {
		select {
		case se, ok := <-live:
			if !ok {
				if st := j.State(); st == StateDone || st == StateFailed {
					fmt.Fprintf(w, "event: end\ndata: {\"state\":%q}\n\n", st)
				} else {
					// Evicted for stalling: tell the client to reconnect
					// (with Last-Event-ID) rather than pretending the job
					// ended.
					fmt.Fprint(w, "event: evicted\ndata: {}\n\n")
				}
				fl.Flush()
				return
			}
			emit(se)
		case <-r.Context().Done():
			return
		}
	}
}

// Health is the /healthz body.
type Health struct {
	Status      string         `json:"status"` // ok | draining | store-unwritable
	Version     string         `json:"version"`
	CacheSchema int            `json:"cache_schema"`
	Jobs        int            `json:"jobs"`
	QueueDepth  int            `json:"queue_depth"`
	QueueCap    int            `json:"queue_capacity"`
	Store       *StoreHealth   `json:"store,omitempty"`
	Cluster     *ClusterHealth `json:"cluster,omitempty"`
}

// StoreHealth is the job ledger's slice of /healthz: where it lives,
// whether it can take an append right now, and the resume bookkeeping a
// fleet operator watches after rolling restarts.
type StoreHealth struct {
	Path     string `json:"path"`
	Writable bool   `json:"writable"`
	Pending  int    `json:"pending"`  // accepted, not yet terminally settled
	Resumed  int    `json:"resumed"`  // re-enqueued from the ledger at startup
	Orphaned int    `json:"orphaned"` // stored identity no longer resolves
	LastErr  string `json:"last_error,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.jobs)
	depth := len(s.queue)
	s.mu.Unlock()
	h := Health{
		Status:      "ok",
		Version:     version.String(),
		CacheSchema: version.CacheSchema,
		Jobs:        n,
		QueueDepth:  depth,
		QueueCap:    s.opt.QueueDepth,
		Cluster:     s.clusterHealth(),
	}
	code := http.StatusOK
	if st := s.opt.Store; st != nil {
		sh := &StoreHealth{
			Path:     st.Path(),
			Writable: st.Writable(),
			Pending:  st.Pending(),
			Resumed:  int(s.met.resumed.Load()),
			Orphaned: int(s.met.orphaned.Load()),
		}
		if err := st.LastErr(); err != nil {
			sh.LastErr = err.Error()
		}
		h.Store = sh
		if !sh.Writable {
			// A daemon that cannot persist work must not be routed new
			// work: accepting a job it could lose breaks the crash-only
			// contract.
			h.Status = "store-unwritable"
			code = http.StatusServiceUnavailable
		}
	}
	if s.draining.Load() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.write(w, s.runner, s.opt.Store, len(s.queue), s.opt.QueueDepth, s.opt.Cluster)
}
