package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
)

// sleepRecorder captures a Client's backoff pauses instead of sleeping.
type sleepRecorder struct {
	mu     sync.Mutex
	pauses []time.Duration
}

func (sr *sleepRecorder) sleep(d time.Duration) {
	sr.mu.Lock()
	sr.pauses = append(sr.pauses, d)
	sr.mu.Unlock()
}

func (sr *sleepRecorder) all() []time.Duration {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return append([]time.Duration(nil), sr.pauses...)
}

func testClient(base string, sr *sleepRecorder, retries int) *Client {
	return &Client{
		Base:        base,
		Retries:     retries,
		BackoffBase: 10 * time.Millisecond,
		BackoffCap:  100 * time.Millisecond,
		// Pinned salt: production clients draw a random one to decorrelate
		// fleet retry schedules; tests pin it so schedules are assertable.
		BackoffSalt: "test",
		sleep:       sr.sleep,
	}
}

// TestClientBackoffDeterminism injects transport faults (connections
// killed before a response) and checks the retry pauses follow
// experiments.RetryBackoff exactly — and therefore that two runs of the
// same failing request produce identical schedules.
func TestClientBackoffDeterminism(t *testing.T) {
	run := func() []time.Duration {
		var n int32
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if atomic.AddInt32(&n, 1) <= 2 {
				// Kill the connection mid-request: the client sees EOF, a
				// transport-level transient failure.
				conn, _, err := w.(http.Hijacker).Hijack()
				if err != nil {
					t.Error(err)
					return
				}
				conn.Close()
				return
			}
			fmt.Fprint(w, `{"id":"x","state":"done"}`)
		}))
		defer ts.Close()
		sr := &sleepRecorder{}
		c := testClient(ts.URL, sr, 4)
		st, err := c.Status("x")
		if err != nil {
			t.Fatalf("Status after faults: %v", err)
		}
		if st.State != StateDone {
			t.Fatalf("state = %q", st.State)
		}
		return sr.all()
	}

	got := run()
	if len(got) != 2 {
		t.Fatalf("recorded %d pauses, want 2: %v", len(got), got)
	}
	// The schedule is the engine's: RetryBackoff keyed on the client's
	// salt plus the request, so two clients with the same pinned salt
	// sleep identically and differently salted clients do not.
	for i, d := range got {
		want := experiments.RetryBackoff("test|GET /v1/jobs/x", i+1, 10*time.Millisecond, 100*time.Millisecond)
		if d != want {
			t.Errorf("pause %d = %v, want %v", i, d, want)
		}
	}
	// Determinism: a second client against a second server sleeps the
	// exact same schedule.
	if again := run(); fmt.Sprint(again) != fmt.Sprint(got) {
		t.Errorf("backoff schedule not deterministic: %v vs %v", got, again)
	}
}

// TestClientRetriesExhausted: a persistently dead endpoint surfaces a
// transient-classified error after exactly Retries pauses.
func TestClientRetriesExhausted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"draining"}`)
	}))
	defer ts.Close()
	sr := &sleepRecorder{}
	c := testClient(ts.URL, sr, 3)
	if _, err := c.Status("x"); err == nil {
		t.Fatal("want error from a 503-only server")
	} else if !IsTransient(err) {
		t.Errorf("503 exhaustion should classify transient, got %v", err)
	}
	if n := len(sr.all()); n != 3 {
		t.Errorf("paused %d times, want 3", n)
	}
}

// TestClientHealthDraining: a draining daemon's 503 /healthz is its
// answer, so Health returns its status and code at once, without a pause.
func TestClientHealthDraining(t *testing.T) {
	s, _, ts := newTestServer(t, Options{QueueDepth: 1, Workers: 1})
	s.Drain()
	select {
	case <-s.Draining():
	default:
		t.Fatal("Draining still open after Drain")
	}
	sr := &sleepRecorder{}
	h, code, err := testClient(ts.URL, sr, 8).Health()
	if err != nil || code != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Errorf("Health = %q, %d, %v; want \"draining\", 503, nil", h.Status, code, err)
	}
	if n := len(sr.all()); n != 0 {
		t.Errorf("paused %d times, want 0", n)
	}
}

// TestClientSubmitRetryAfter: 429 responses honor the server's
// Retry-After hint (clamped to at least 1s), and the submit succeeds
// once the queue opens up.
func TestClientSubmitRetryAfter(t *testing.T) {
	var n int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&n, 1) == 1 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"queue full"}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"x","state":"queued"}`)
	}))
	defer ts.Close()
	sr := &sleepRecorder{}
	c := testClient(ts.URL, sr, 4)
	st, err := c.Submit(testSpec(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "x" {
		t.Errorf("id = %q", st.ID)
	}
	pauses := sr.all()
	if len(pauses) != 1 || pauses[0] != 7*time.Second {
		t.Errorf("pauses = %v, want exactly the 7s Retry-After hint", pauses)
	}
}

// TestClientQueueFullExhausted: a queue that never opens surfaces
// ErrQueueFull (the shed-load exit code), distinct from transport errors
// and from job failure.
func TestClientQueueFullExhausted(t *testing.T) {
	var n int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&n, 1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"queue full"}`)
	}))
	defer ts.Close()
	sr := &sleepRecorder{}
	c := testClient(ts.URL, sr, 2)
	_, err := c.Submit(testSpec(0.01))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if IsTransient(err) {
		t.Error("queue-full must not classify as transport-transient")
	}
	if got := atomic.LoadInt32(&n); got != 3 {
		t.Errorf("attempted %d submits, want 3 (1 + 2 retries)", got)
	}
}

// TestClientResultJobFailed: a terminally failed job maps to ErrJobFailed
// so atacctl can exit 3 ("the job failed") rather than 1 ("the transport
// failed").
func TestClientResultJobFailed(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, `{"id":"x","state":"failed","error":"boom"}`)
	}))
	defer ts.Close()
	c := testClient(ts.URL, &sleepRecorder{}, 1)
	_, err := c.Result("x", false)
	if !errors.Is(err, ErrJobFailed) {
		t.Fatalf("err = %v, want ErrJobFailed", err)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Errorf("error should carry the job's message: %v", err)
	}
}

// sseHandler scripts an SSE endpoint across reconnections, recording the
// Last-Event-ID header each connection presents.
type sseHandler struct {
	mu      sync.Mutex
	lastIDs []string
	scripts []string // one response body per connection; last repeats
}

func (h *sseHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	h.lastIDs = append(h.lastIDs, r.Header.Get("Last-Event-ID"))
	i := len(h.lastIDs) - 1
	if i >= len(h.scripts) {
		i = len(h.scripts) - 1
	}
	body := h.scripts[i]
	h.mu.Unlock()
	w.Header().Set("Content-Type", "text/event-stream")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, body)
	w.(http.Flusher).Flush()
}

func (h *sseHandler) seen() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.lastIDs...)
}

// TestClientWatchReconnect: a stream torn mid-job (daemon SIGKILLed and
// restarted) reconnects with Last-Event-ID and rides to the terminal
// event; the caller sees one continuous stream.
func TestClientWatchReconnect(t *testing.T) {
	h := &sseHandler{scripts: []string{
		// Connection 1: two events, then the stream tears (no "end").
		"id: 0\nevent: epoch\ndata: {\"n\":0}\n\n" +
			"id: 1\nevent: epoch\ndata: {\"n\":1}\n\n",
		// Connection 2 (the restarted daemon): the rest, then the end.
		"id: 2\nevent: epoch\ndata: {\"n\":2}\n\n" +
			"event: end\ndata: {\"state\":\"done\"}\n\n",
	}}
	ts := httptest.NewServer(h)
	defer ts.Close()
	sr := &sleepRecorder{}
	c := testClient(ts.URL, sr, 4)
	var buf bytes.Buffer
	state, err := c.Watch("x", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if state != StateDone {
		t.Errorf("final state = %q, want done", state)
	}
	seen := h.seen()
	if len(seen) != 2 {
		t.Fatalf("connections = %d, want 2 (%v)", len(seen), seen)
	}
	if seen[0] != "" || seen[1] != "1" {
		t.Errorf("Last-Event-ID per connection = %v, want [\"\", \"1\"]", seen)
	}
	for _, n := range []string{`{"n":0}`, `{"n":1}`, `{"n":2}`} {
		if !strings.Contains(buf.String(), n) {
			t.Errorf("watch output missing %s:\n%s", n, buf.String())
		}
	}
}

// TestClientWatchEvicted: a server-side slow-consumer eviction is an
// instruction to reconnect (with replay), not an error.
func TestClientWatchEvicted(t *testing.T) {
	h := &sseHandler{scripts: []string{
		"id: 0\nevent: epoch\ndata: {\"n\":0}\n\nevent: evicted\ndata: {}\n\n",
		"id: 1\nevent: epoch\ndata: {\"n\":1}\n\nevent: end\ndata: {\"state\":\"done\"}\n\n",
	}}
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := testClient(ts.URL, &sleepRecorder{}, 4)
	var buf bytes.Buffer
	state, err := c.Watch("x", &buf)
	if err != nil || state != StateDone {
		t.Fatalf("state=%q err=%v, want done/nil", state, err)
	}
	if seen := h.seen(); len(seen) != 2 || seen[1] != "0" {
		t.Errorf("eviction must reconnect with Last-Event-ID 0: %v", seen)
	}
}
