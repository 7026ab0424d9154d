// Multi-endpoint client behavior: hedged reads, ErrJobLost, Retry-After
// HTTP-date parsing, and SSE watch rotation across cluster peers.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// notFoundServer answers 404 to everything, like a peer that never saw
// the job.
func notFoundServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"no such job"}`)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestClientHedgedStatus: a 404 from the first endpoint advances to the
// peer that holds the job, within the same attempt round — no backoff.
func TestClientHedgedStatus(t *testing.T) {
	miss := notFoundServer(t)
	hit := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":"x","state":"done"}`)
	}))
	defer hit.Close()

	sr := &sleepRecorder{}
	c := testClient(miss.URL, sr, 2)
	c.Endpoints = []string{hit.URL}
	st, err := c.Status("x")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Errorf("state = %q", st.State)
	}
	if n := len(sr.all()); n != 0 {
		t.Errorf("hedged read paused %d times; a 404 hop must be free", n)
	}
}

// TestClientStatusJobLost: every endpoint disowning the job surfaces
// ErrJobLost (the resubmit signal), not a bare 404 error.
func TestClientStatusJobLost(t *testing.T) {
	a, b := notFoundServer(t), notFoundServer(t)
	c := testClient(a.URL, &sleepRecorder{}, 2)
	c.Endpoints = []string{b.URL}
	if _, err := c.Status("x"); !errors.Is(err, ErrJobLost) {
		t.Fatalf("err = %v, want ErrJobLost", err)
	}
	if _, err := c.Result("x", false); !errors.Is(err, ErrJobLost) {
		t.Fatalf("Result err = %v, want ErrJobLost", err)
	}
	// Single-endpoint clients keep the plain 404: there is no peer set to
	// exhaust, so "lost" is not knowable.
	solo := testClient(a.URL, &sleepRecorder{}, 2)
	if _, err := solo.Status("x"); errors.Is(err, ErrJobLost) {
		t.Error("single-endpoint 404 must not claim the job is lost")
	}
}

// TestClientHedgedDeadPeer: an unreachable endpoint costs one connection
// attempt inside the round, and the live peer answers.
func TestClientHedgedDeadPeer(t *testing.T) {
	hit := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":"x","state":"done"}`)
	}))
	defer hit.Close()
	sr := &sleepRecorder{}
	c := testClient("http://127.0.0.1:1", sr, 2) // reserved port: refuses instantly
	c.Endpoints = []string{hit.URL}
	st, err := c.Status("x")
	if err != nil || st.State != StateDone {
		t.Fatalf("st=%+v err=%v", st, err)
	}
	if n := len(sr.all()); n != 0 {
		t.Errorf("dead-peer hop paused %d times, want 0", n)
	}
}

// TestClientJobLostWithDeadPeer: one peer answers 404 and the other is
// gone entirely — the canonical "its executor was SIGKILLed" state. The
// read must still converge to ErrJobLost after the retry budget (the
// dead node might have come back), not surface a bare transport error:
// ErrJobLost is what triggers the caller's resubmit recovery.
func TestClientJobLostWithDeadPeer(t *testing.T) {
	miss := notFoundServer(t)
	sr := &sleepRecorder{}
	c := testClient(miss.URL, sr, 2)
	c.Endpoints = []string{"http://127.0.0.1:1"}
	if _, err := c.Status("x"); !errors.Is(err, ErrJobLost) {
		t.Fatalf("err = %v, want ErrJobLost", err)
	}
	// It did burn the retries first (the dead node could have rejoined).
	if n := len(sr.all()); n != 2 {
		t.Errorf("paused %d times, want 2", n)
	}
	// Watch converges the same way: the dead peer must not keep resetting
	// the survivors' 404 tally.
	if _, err := c.Watch("x", &bytes.Buffer{}); !errors.Is(err, ErrJobLost) {
		t.Fatalf("Watch err = %v, want ErrJobLost", err)
	}
}

// TestClientRetryAfterHTTPDate: RFC 9110 allows Retry-After as an
// HTTP-date; the client parses it, converts to a delta, and clamps to
// [1s, 30s].
func TestClientRetryAfterHTTPDate(t *testing.T) {
	cases := []struct {
		name   string
		header func() string
		check  func(d time.Duration) bool
	}{
		{"near-future date", func() string {
			return time.Now().Add(5 * time.Second).UTC().Format(http.TimeFormat)
		}, func(d time.Duration) bool { return d > 3*time.Second && d <= 5*time.Second }},
		{"past date clamps up", func() string {
			return time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
		}, func(d time.Duration) bool { return d == time.Second }},
		{"far future clamps down", func() string {
			return time.Now().Add(time.Hour).UTC().Format(http.TimeFormat)
		}, func(d time.Duration) bool { return d == 30*time.Second }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sr := &sleepRecorder{}
			c := testClient("", sr, 1)
			c.waitRetryAfter(tc.header(), 1)
			got := sr.all()
			if len(got) != 1 || !tc.check(got[0]) {
				t.Errorf("pauses = %v", got)
			}
		})
	}
	// Unparsable hints fall back to the deterministic backoff schedule.
	sr := &sleepRecorder{}
	c := testClient("", sr, 1)
	c.waitRetryAfter("soon-ish", 1)
	want := experiments.RetryBackoff("test|retry-after", 1, 0, 0)
	if got := sr.all(); len(got) != 1 || got[0] != want {
		t.Errorf("unparsable hint slept %v, want backoff %v", got, want)
	}
}

// TestClientWatchRotation: a watch attached through a peer that does not
// hold the job rotates to the one that does; the stream completes as if
// single-node.
func TestClientWatchRotation(t *testing.T) {
	miss := notFoundServer(t)
	h := &sseHandler{scripts: []string{
		"id: 0\nevent: epoch\ndata: {\"n\":0}\n\nevent: end\ndata: {\"state\":\"done\"}\n\n",
	}}
	hold := httptest.NewServer(h)
	defer hold.Close()

	c := testClient(miss.URL, &sleepRecorder{}, 4)
	c.Endpoints = []string{hold.URL}
	var buf bytes.Buffer
	state, err := c.Watch("x", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if state != StateDone {
		t.Errorf("state = %q", state)
	}
	if !strings.Contains(buf.String(), `{"n":0}`) {
		t.Errorf("watch output missing the event: %q", buf.String())
	}
}

// TestClientWatchJobLost: every endpoint 404ing the stream is ErrJobLost.
func TestClientWatchJobLost(t *testing.T) {
	a, b := notFoundServer(t), notFoundServer(t)
	c := testClient(a.URL, &sleepRecorder{}, 4)
	c.Endpoints = []string{b.URL}
	if _, err := c.Watch("x", &bytes.Buffer{}); !errors.Is(err, ErrJobLost) {
		t.Fatalf("err = %v, want ErrJobLost", err)
	}
}

// TestClientSaltDecorrelation: two clients with different salts sleep
// different schedules for the same failing operation; same salt, same
// schedule. This is the anti-thundering-herd property.
func TestClientSaltDecorrelation(t *testing.T) {
	schedule := func(salt string) []time.Duration {
		var out []time.Duration
		for i := 1; i <= 4; i++ {
			out = append(out, experiments.RetryBackoff(salt+"|GET /v1/jobs/x", i, 100*time.Millisecond, 5*time.Second))
		}
		return out
	}
	a, b := schedule("client-a"), schedule("client-b")
	if fmt.Sprint(a) == fmt.Sprint(b) {
		t.Errorf("differently salted clients share a retry schedule: %v", a)
	}
	if fmt.Sprint(schedule("client-a")) != fmt.Sprint(a) {
		t.Error("same salt must reproduce the same schedule")
	}
	// An unsalted client draws a random salt once and sticks to it.
	c := &Client{}
	if s := c.jitterSalt(); s == "" || s != c.jitterSalt() {
		t.Errorf("random salt unstable or empty: %q", s)
	}
	if (&Client{}).jitterSalt() == c.jitterSalt() {
		t.Error("two unsalted clients drew the same random salt")
	}
}
