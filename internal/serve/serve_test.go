package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/system"
)

// testSpec is a fast network-only run: a bare 16-core fabric driven for
// 600 cycles, so the whole suite stays in the tens of milliseconds.
func testSpec(load float64) JobSpec {
	sp := experiments.SynthSpec{Pattern: "uniform", Load: load, BcastFrac: 0.001, Warmup: 200, Measure: 400}
	return JobSpec{Bench: sp.Bench(), Geometry: experiments.Geometry{Cores: 16, Seed: 1}}
}

func newTestServer(t *testing.T, opt Options) (*Server, *experiments.Runner, *httptest.Server) {
	t.Helper()
	r := experiments.NewRunner(experiments.Options{Cores: 16, Scale: 1, Seed: 1})
	s := New(r, opt, t.Logf)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	})
	return s, r, ts
}

func submit(t *testing.T, url string, spec JobSpec) (*http.Response, JobStatus) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var st JobStatus
	_ = json.Unmarshal(raw, &st)
	return resp, st
}

func waitDone(t *testing.T, url, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		_ = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		switch st.State {
		case StateDone:
			return
		case StateFailed:
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
}

func fetchResult(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: %s: %s", id, resp.Status, body)
	}
	return body
}

// TestCoalescing is the tentpole's core guarantee: two concurrent
// identical submissions produce one job, one fresh simulation (visible
// on /metrics), and byte-identical result bodies.
func TestCoalescing(t *testing.T) {
	_, r, ts := newTestServer(t, Options{QueueDepth: 8, Workers: 2})
	spec := testSpec(0.05)

	const clients = 4
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, st := submit(t, ts.URL, spec)
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: %s", i, resp.Status)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("client %d got job %s, want %s", i, ids[i], ids[0])
		}
	}
	waitDone(t, ts.URL, ids[0])

	if got := r.FreshRuns(); got != 1 {
		t.Errorf("FreshRuns = %d, want 1", got)
	}
	a := fetchResult(t, ts.URL, ids[0])
	b := fetchResult(t, ts.URL, ids[0])
	if !bytes.Equal(a, b) {
		t.Error("result bodies differ between fetches")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"atacd_runner_fresh_runs_total 1",
		fmt.Sprintf("atacd_jobs_coalesced_total %d", clients-1),
		"atacd_jobs_done_total 1",
	} {
		if !strings.Contains(string(met), want) {
			t.Errorf("/metrics missing %q:\n%s", want, met)
		}
	}

	// A resubmission after completion coalesces too (200, same job).
	resp2, st := submit(t, ts.URL, spec)
	if resp2.StatusCode != http.StatusOK || st.ID != ids[0] || st.State != StateDone {
		t.Errorf("resubmit: %s id=%s state=%s", resp2.Status, st.ID, st.State)
	}
	if got := r.FreshRuns(); got != 1 {
		t.Errorf("FreshRuns after resubmit = %d, want 1", got)
	}
}

// TestQueueFullRejects: with one stalled worker and a depth-1 queue, the
// third distinct submission is rejected 429 with a Retry-After hint.
func TestQueueFullRejects(t *testing.T) {
	s, _, ts := newTestServer(t, Options{QueueDepth: 1, Workers: 1})
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s.execute = func(ctx context.Context, cfg config.Config, bench string) (system.Result, error) {
		started <- struct{}{}
		<-release
		return system.Result{Benchmark: bench, Finished: true}, nil
	}
	defer close(release)

	if resp, _ := submit(t, ts.URL, testSpec(0.01)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: %s", resp.Status)
	}
	<-started // worker holds job 1; the queue is empty again
	if resp, _ := submit(t, ts.URL, testSpec(0.02)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: %s", resp.Status)
	}
	resp, _ := submit(t, ts.URL, testSpec(0.03))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit 3: %s, want 429", resp.Status)
	}
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Errorf("Retry-After = %q, want \"5\"", got)
	}
	// An identical resubmission still coalesces even while the queue is
	// full: admission control never rejects work it already owns.
	if resp, _ := submit(t, ts.URL, testSpec(0.02)); resp.StatusCode != http.StatusOK {
		t.Errorf("coalescing submit while full: %s, want 200", resp.Status)
	}
}

// TestBaseContextStopsJobs: jobs execute under the context SetBaseContext
// installs, so once it is cancelled a submitted job fails as interrupted
// without simulating.
func TestBaseContextStopsJobs(t *testing.T) {
	s, r, ts := newTestServer(t, Options{QueueDepth: 4, Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.SetBaseContext(ctx)
	_, st := submit(t, ts.URL, testSpec(0.05))
	deadline := time.Now().Add(10 * time.Second)
	for st.State != StateFailed && st.State != StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", st.ID, st.State)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		_ = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
	}
	if st.State != StateFailed || !strings.Contains(st.Error, experiments.ErrInterrupted.Error()) {
		t.Errorf("job under a cancelled base context: state %s, error %q; want failed, interrupted", st.State, st.Error)
	}
	if got := r.FreshRuns(); got != 0 {
		t.Errorf("FreshRuns = %d, want 0", got)
	}
}

// TestDrainRejectsNewWork: after Drain, submissions get 503 and /healthz
// flips to draining, but status/result of existing jobs keep serving.
func TestDrainRejectsNewWork(t *testing.T) {
	s, _, ts := newTestServer(t, Options{QueueDepth: 4, Workers: 1})
	_, st := submit(t, ts.URL, testSpec(0.04))
	waitDone(t, ts.URL, st.ID)

	s.Drain()
	resp, _ := submit(t, ts.URL, testSpec(0.06))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %s, want 503", resp.Status)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	_ = json.NewDecoder(hr.Body).Decode(&h)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Errorf("healthz while draining: %s %q", hr.Status, h.Status)
	}
	if h.Version == "" || h.CacheSchema == 0 {
		t.Errorf("healthz missing provenance: %+v", h)
	}
	// Completed jobs still serve.
	fetchResult(t, ts.URL, st.ID)
}

// TestEventStream: the SSE feed replays the run lifecycle and ends when
// the job is terminal — a late subscriber still sees the whole story.
func TestEventStream(t *testing.T) {
	_, _, ts := newTestServer(t, Options{QueueDepth: 4, Workers: 1})
	_, st := submit(t, ts.URL, testSpec(0.07))
	waitDone(t, ts.URL, st.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	phases := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			phases[name] = true
		}
	}
	for _, want := range []string{experiments.PhaseStart, experiments.PhaseDone, "end"} {
		if !phases[want] {
			t.Errorf("stream missing %q phase (saw %v)", want, phases)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, _, ts := newTestServer(t, Options{QueueDepth: 4, Workers: 1})
	cases := []JobSpec{
		{},                           // no bench
		{Bench: "no-such-benchmark"}, // unknown name
		{Bench: "fft"},               // outside the paper's eight
		{Bench: "water"},
		{Bench: "synth:uniform:load=x:bcast=0:warmup=1:measure=1"}, // bad synth encoding
		// Well-encoded synth specs no run can honour (SynthSpec.Validate).
		{Bench: "synth:uniform:load=NaN:bcast=0:warmup=1:measure=1"},
		{Bench: "synth:uniform:load=+Inf:bcast=0:warmup=1:measure=1"},
		{Bench: "synth:uniform:load=0.1:bcast=-3:warmup=1:measure=1"},
		{Bench: "synth:nosuch:load=0.1:bcast=0:warmup=1:measure=1"},
		{Bench: "radix", Geometry: experiments.Geometry{Net: "hypercube"}},
		{Bench: "radix", Geometry: experiments.Geometry{Cores: 63}},
	}
	for i, spec := range cases {
		if resp, _ := submit(t, ts.URL, spec); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: %s, want 400", i, resp.Status)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %s, want 404", resp.Status)
	}
}

// TestListJobs: GET /v1/jobs, what atacctl status prints without -id,
// lists every job in submission order however the job map iterates, and a
// non-2xx answer reaches the caller as an error.
func TestListJobs(t *testing.T) {
	_, _, ts := newTestServer(t, Options{QueueDepth: 8, Workers: 1})
	var want []string
	for _, load := range []float64{0.03, 0.01, 0.02, 0.04} {
		_, st := submit(t, ts.URL, testSpec(load))
		want = append(want, st.ID)
	}
	c := &Client{Base: ts.URL}
	for i := 0; i < 4; i++ {
		all, err := c.List()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, st := range all {
			got = append(got, st.ID)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("listing %d: jobs %v, want submission order %v", i, got, want)
		}
	}

	teapot := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "short and stout", http.StatusTeapot)
	}))
	defer teapot.Close()
	if all, err := (&Client{Base: teapot.URL}).List(); err == nil || !strings.Contains(err.Error(), "418") {
		t.Errorf("List against a 418: %v, %v; want an error naming the status", all, err)
	}
}
