// Chaos tests: the crash-only contract, exercised in-process. The shell
// half (real SIGKILL against a real atacd) lives in scripts/chaos_smoke.sh;
// these tests cover the same guarantees where Go can assert precisely —
// restart-resume round trips with zero duplicate simulations, orphan
// detection, slow-consumer SSE eviction, unwritable-store health, panic
// isolation, and request timeouts.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/system"
)

// durableRunner builds a Runner wired to a persistent cache + journal in
// dir, the way atacd wires one.
func durableRunner(t *testing.T, dir string) *experiments.Runner {
	t.Helper()
	r := experiments.NewRunner(experiments.Options{Cores: 16, Scale: 1, Seed: 1})
	c, err := experiments.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	r.Cache = c
	j, err := experiments.OpenJournal(c.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	r.Journal = j
	return r
}

// TestRestartResume is the tentpole round trip: submit jobs, "SIGKILL"
// the daemon with one job done and two mid-flight, start a second daemon
// on the same ledger and cache, and require that (1) every job ID still
// answers, (2) the finished job is served from cache — zero duplicate
// simulations — and (3) results are byte-identical across the two lives.
func TestRestartResume(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, StoreFileName)
	specA, specB, specC := testSpec(0.11), testSpec(0.12), testSpec(0.13)

	// ---- Life 1: one job completes, two are killed mid-run. ----
	store1, err := OpenJobStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	r1 := durableRunner(t, dir)
	s1 := newServer(r1, Options{QueueDepth: 8, Workers: 2, Store: store1}, t.Logf)
	started := make(chan string, 4)
	release := make(chan struct{})
	s1.execute = func(ctx context.Context, cfg config.Config, bench string) (system.Result, error) {
		if bench == specA.Bench {
			return r1.RunContext(ctx, cfg, bench) // real run: caches + journals
		}
		started <- bench
		<-release
		return system.Result{}, errors.New("killed mid-run")
	}
	t.Cleanup(func() {
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s1.Shutdown(ctx)
	})
	ts1 := httptest.NewServer(s1.Handler())

	_, stA := submit(t, ts1.URL, specA)
	_, stB := submit(t, ts1.URL, specB)
	_, stC := submit(t, ts1.URL, specC)
	waitDone(t, ts1.URL, stA.ID)
	resultA1 := fetchResult(t, ts1.URL, stA.ID)
	for i := 0; i < 2; i++ { // both B and C must be mid-flight at the kill
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("jobs B/C never started")
		}
	}
	// The "SIGKILL": stop routing requests and abandon the server — no
	// Shutdown, no store Close, workers frozen mid-job. The ledger now
	// holds A settled done, B and C merely accepted.
	ts1.Close()

	// ---- Life 2: a fresh daemon on the same ledger and cache. ----
	store2, err := OpenJobStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if got := store2.Pending(); got != 2 {
		t.Errorf("pending after crash = %d, want 2 (B and C)", got)
	}
	r2 := durableRunner(t, dir)
	s2 := New(r2, Options{QueueDepth: 8, Workers: 2, Store: store2}, t.Logf)
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
		ts2.Close()
		store2.Close()
	})

	// Every job the dead daemon owed an answer for resolves — including
	// the already-done one a lingering client may still poll.
	for _, id := range []string{stA.ID, stB.ID, stC.ID} {
		waitDone(t, ts2.URL, id)
	}
	var stA2 JobStatus
	resp, err := http.Get(ts2.URL + "/v1/jobs/" + stA.ID)
	if err != nil {
		t.Fatal(err)
	}
	_ = json.NewDecoder(resp.Body).Decode(&stA2)
	resp.Body.Close()
	if !stA2.Resumed {
		t.Error("resumed job must report resumed=true")
	}

	// Zero duplicate simulations: A answers from the cache; only the two
	// killed jobs simulate.
	if fresh := r2.FreshRuns(); fresh != 2 {
		t.Errorf("FreshRuns after resume = %d, want 2 (B and C only)", fresh)
	}
	if hits := r2.CacheHits(); hits != 1 {
		t.Errorf("CacheHits after resume = %d, want 1 (A recalled)", hits)
	}

	// Byte parity across daemon lives.
	resultA2 := fetchResult(t, ts2.URL, stA.ID)
	if !bytes.Equal(resultA1, resultA2) {
		t.Error("job A's result differs across the restart")
	}

	// Parity with a direct (daemon-less) run: the killed-and-resumed job
	// produces the same result a fresh atacsim of the same spec would.
	var gotB system.Result
	if err := json.Unmarshal(fetchResult(t, ts2.URL, stB.ID), &gotB); err != nil {
		t.Fatal(err)
	}
	r3 := experiments.NewRunner(experiments.Options{Cores: 16, Scale: 1, Seed: 1})
	cfgB, err := experiments.BuildConfig(specB.Geometry)
	if err != nil {
		t.Fatal(err)
	}
	directB, err := r3.RunContext(context.Background(), cfgB, specB.Bench)
	if err != nil {
		t.Fatal(err)
	}
	gj, _ := json.Marshal(gotB)
	dj, _ := json.Marshal(directB)
	if !bytes.Equal(gj, dj) {
		t.Error("resumed result differs from a direct run of the same spec")
	}

	// The ledger settles back down: nothing left pending.
	if got := store2.Pending(); got != 0 {
		t.Errorf("pending after resume = %d, want 0", got)
	}
}

// TestResumeOrphans: a ledger entry whose spec no longer resolves to its
// stored identity (schema bump, changed campaign options) is orphaned —
// terminally settled, registered failed so clients get an answer, and
// counted on /healthz — rather than silently re-run under a stale ID.
func TestResumeOrphans(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, StoreFileName)
	st, err := OpenJobStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Accept("job-stale", "not-the-real-hash", testSpec(0.21)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	store, err := OpenJobStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	r := experiments.NewRunner(experiments.Options{Cores: 16, Scale: 1, Seed: 1})
	s := New(r, Options{QueueDepth: 4, Workers: 1, Store: store}, t.Logf)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
		store.Close()
	})

	resp, err := http.Get(ts.URL + "/v1/jobs/job-stale")
	if err != nil {
		t.Fatal(err)
	}
	var js JobStatus
	_ = json.NewDecoder(resp.Body).Decode(&js)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("orphaned job must still answer, got %s", resp.Status)
	}
	if js.State != StateFailed || !strings.Contains(js.Error, "orphaned") {
		t.Errorf("orphaned job state=%q error=%q, want failed/orphaned", js.State, js.Error)
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	_ = json.NewDecoder(hr.Body).Decode(&h)
	hr.Body.Close()
	if h.Store == nil || h.Store.Orphaned != 1 || h.Store.Resumed != 0 {
		t.Errorf("healthz store = %+v, want orphaned=1 resumed=0", h.Store)
	}

	// Terminal in the ledger too: a third daemon life would not see it.
	for _, e := range store.Entries() {
		if e.ID == "job-stale" && e.Status != StoreOrphaned {
			t.Errorf("ledger status = %q, want orphaned", e.Status)
		}
	}
}

// TestSlowSubscriberNeverBlocksDeliver is the satellite regression test:
// a stalled SSE subscriber must cost the event path nothing — deliveries
// stay non-blocking (drop-oldest into the bounded buffer) and a
// subscriber that never drains is evicted, while healthy subscribers and
// the job's event log are unaffected.
func TestSlowSubscriberNeverBlocksDeliver(t *testing.T) {
	var evicted int
	j := &Job{ID: "x", Hash: "x", state: StateRunning, onEvict: func(n int) { evicted += n }}
	_, stalled, cancelStalled := j.subscribe(0)
	defer cancelStalled()
	if stalled == nil {
		t.Fatal("expected a live channel")
	}

	// Enough deliveries to overflow the buffer and trip eviction, with a
	// wall-clock guard: if deliver ever blocks on the stalled consumer,
	// this loop hangs and the deadline catches it.
	const n = subBuffer + subEvictDrops + 64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			j.deliver(experiments.RunEvent{Phase: "epoch", Hash: "x"})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("deliver blocked on a stalled subscriber")
	}

	if evicted != 1 {
		t.Errorf("evicted = %d, want 1", evicted)
	}
	// The evicted subscriber's channel is closed after its buffered
	// backlog; the backlog is at most the buffer size.
	got := 0
	for range stalled {
		got++
	}
	if got > subBuffer {
		t.Errorf("stalled subscriber held %d events, want <= %d", got, subBuffer)
	}
	// The job's own log is complete: drops apply per subscriber, never to
	// the record (which is what Last-Event-ID replays from).
	j.mu.Lock()
	logged := len(j.events)
	j.mu.Unlock()
	if logged != n {
		t.Errorf("event log has %d events, want %d", logged, n)
	}

	// A fresh (healthy) subscriber replays the full log.
	replay, live, cancel := j.subscribe(0)
	defer cancel()
	if len(replay) != n {
		t.Errorf("replay = %d events, want %d", len(replay), n)
	}
	if live == nil {
		t.Error("job is still running; want a live channel")
	}
}

// TestServerCountsEvictedSubscribers: a stalled subscriber on a job the
// server admitted is evicted through the server's own event path, and
// /metrics counts the eviction.
func TestServerCountsEvictedSubscribers(t *testing.T) {
	s, _, ts := newTestServer(t, Options{QueueDepth: 4, Workers: 1})
	release := make(chan struct{})
	s.execute = func(ctx context.Context, cfg config.Config, bench string) (system.Result, error) {
		<-release
		return system.Result{Benchmark: bench, Finished: true}, nil
	}
	defer close(release)

	resp, st := submit(t, ts.URL, testSpec(0.08))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	_, stalled, cancel := j.subscribe(0)
	defer cancel()
	if stalled == nil {
		t.Fatal("expected a live channel")
	}
	for i := 0; i < subBuffer+subEvictDrops+64; i++ {
		s.routeEvent(experiments.RunEvent{Phase: "epoch", Hash: j.Hash})
	}
	// The eviction closes the channel after its buffered backlog.
	deadline := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case _, open = <-stalled:
		case <-deadline:
			t.Fatal("stalled subscriber was not evicted")
		}
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if text := readAll(t, mr); !strings.Contains(text, "\natacd_sse_evicted_total 1\n") {
		t.Errorf("/metrics does not count one eviction:\n%s", text)
	}
}

// TestHealthzStoreUnwritable: when the ledger cannot take an append the
// daemon reports store-unwritable (503) and refuses new work, then
// recovers without a restart once the path is fixed.
func TestHealthzStoreUnwritable(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, StoreFileName)
	store, err := OpenJobStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	r := experiments.NewRunner(experiments.Options{Cores: 16, Scale: 1, Seed: 1})
	s := New(r, Options{QueueDepth: 4, Workers: 1, Store: store}, t.Logf)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	})

	health := func() (Health, int) {
		t.Helper()
		hr, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		var h Health
		_ = json.NewDecoder(hr.Body).Decode(&h)
		return h, hr.StatusCode
	}
	if h, code := health(); code != http.StatusOK || h.Store == nil || !h.Store.Writable {
		t.Fatalf("healthy daemon: code=%d store=%+v", code, h.Store)
	}

	// Break the ledger path (a directory defeats O_APPEND even for root)
	// and drop the held handle, simulating the state after a failed
	// append on a dead disk.
	breakStore(t, store)
	if h, code := health(); code != http.StatusServiceUnavailable || h.Status != "store-unwritable" {
		t.Errorf("broken store: code=%d status=%q, want 503/store-unwritable", code, h.Status)
	} else if h.Store.LastErr == "" {
		t.Error("store-unwritable health must carry the error")
	}
	// New work is refused: accepting a job the daemon could lose would
	// break the durability promise behind the 202.
	if resp, _ := submit(t, ts.URL, testSpec(0.31)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit with unwritable store: %s, want 503", resp.Status)
	}

	fixStore(t, store)
	if h, code := health(); code != http.StatusOK || h.Status != "ok" {
		t.Errorf("fixed store: code=%d status=%q, want 200/ok", code, h.Status)
	}
	if resp, _ := submit(t, ts.URL, testSpec(0.31)); resp.StatusCode != http.StatusAccepted {
		t.Errorf("submit after fix: %s, want 202", resp.Status)
	}
}

func breakStore(t *testing.T, store *JobStore) {
	t.Helper()
	store.log.Close() // drops the handle; the next append reopens the path
	if err := os.Remove(store.Path()); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(store.Path(), 0o755); err != nil {
		t.Fatal(err)
	}
}

func fixStore(t *testing.T, store *JobStore) {
	t.Helper()
	if err := os.Remove(store.Path()); err != nil {
		t.Fatal(err)
	}
}

// TestHandlerPanicIsolated: a panicking handler answers 500 and counts on
// /metrics; the daemon survives.
func TestHandlerPanicIsolated(t *testing.T) {
	r := experiments.NewRunner(experiments.Options{Cores: 16, Scale: 1, Seed: 1})
	s := New(r, Options{QueueDepth: 4, Workers: 1}, t.Logf)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	h := s.recovered(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("panicking handler: %d, want 500", rec.Code)
	}
	if got := s.met.panics.Load(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
}

// TestRequestTimeout: JSON endpoints are bounded; a handler that stalls
// longer than the per-request deadline answers 503 with the timeout body
// instead of holding the connection forever.
func TestRequestTimeout(t *testing.T) {
	r := experiments.NewRunner(experiments.Options{Cores: 16, Scale: 1, Seed: 1})
	s := New(r, Options{QueueDepth: 4, Workers: 1, RequestTimeout: 30 * time.Millisecond}, t.Logf)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	stall := s.timed(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done(): // TimeoutHandler cancels us
		case <-time.After(5 * time.Second):
		}
	})
	ts := httptest.NewServer(stall)
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("stalled handler: %s, want 503", resp.Status)
	}
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("timeout body must be the JSON error payload: %v %+v", err, e)
	}
}
