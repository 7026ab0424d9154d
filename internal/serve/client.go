// Resilient client for the atacd daemon — the library behind atacctl.
//
// The serving stack is crash-only: the daemon may be SIGKILLed and
// restarted at any instant, and the client's job is to make that
// invisible. Three properties do the work:
//
//   - every request retries transient transport failures (connection
//     refused/reset, 502/503/504) with capped exponential backoff and
//     deterministic jitter — the same experiments.RetryBackoff policy the
//     campaign engine uses, keyed on the request so retry schedules are
//     reproducible yet uncorrelated across concurrent clients;
//   - submission is idempotent by construction: the run hash is the job
//     identity, so re-POSTing the same spec after a torn response (or
//     into a freshly restarted daemon) coalesces onto the same job;
//   - the SSE watch tracks event ids and reconnects with Last-Event-ID,
//     so a stream torn by a daemon restart resumes where it left off.
//
// 429 (queue full) is not a transport failure: the client honors the
// server's Retry-After hint and, if the queue never opens up, surfaces
// the distinct ErrQueueFull so callers (atacctl) can exit with a code
// that means "shed load", not "investigate".
package serve

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
)

// Sentinel errors callers branch on (atacctl maps them to distinct exit
// codes).
var (
	// ErrQueueFull means the daemon's admission queue stayed full through
	// every allowed retry.
	ErrQueueFull = errors.New("queue full after retries")
	// ErrJobFailed means the job itself terminally failed — the transport
	// worked fine.
	ErrJobFailed = errors.New("job failed")
	// ErrJobLost means no configured endpoint knows the job — typically
	// the node that was executing it died before finishing. Jobs are
	// identified by their spec's run hash, so the recovery is mechanical:
	// resubmit the same spec anywhere (atacctl does this automatically)
	// and the surviving nodes either serve the cached result or rerun it.
	ErrJobLost = errors.New("job lost: no endpoint knows it")
)

// transientError wraps failures a retry could plausibly fix: connection
// trouble and 5xx responses from a daemon that is draining, restarting,
// or briefly unable to persist.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// IsTransient reports whether err is a transport-level failure the client
// classifies as retryable.
func IsTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// Client talks to an atacd daemon — or a cluster of them — with
// retries, backoff, and SSE reconnection. The zero value plus Base is
// usable. With Endpoints set, reads hedge across nodes (a job lives only
// on the node executing it, so a 404 from one peer means "ask the
// next"), writes try each node in turn before backing off, and an
// exhaustive miss surfaces ErrJobLost so the caller can resubmit.
type Client struct {
	// Base is the primary daemon base URL, e.g. "http://localhost:8347".
	Base string
	// Endpoints lists additional daemon base URLs (cluster peers), tried
	// after Base in order. Duplicates of Base are ignored.
	Endpoints []string
	// HTTP is the underlying client; nil means http.DefaultClient.
	HTTP *http.Client
	// Retries caps transient-failure re-attempts per operation. Zero
	// means 8; negative disables retrying.
	Retries int
	// BackoffBase and BackoffCap shape the retry pauses (see
	// experiments.RetryBackoff). Zero takes the campaign defaults
	// (100ms doubling to a 5s cap).
	BackoffBase, BackoffCap time.Duration
	// BackoffSalt decorrelates this client's deterministic retry jitter
	// from every other client retrying the same operation: RetryBackoff
	// keys on the operation string, so without a salt a fleet of watchers
	// reconnecting to a restarted daemon would all sleep identical
	// schedules and arrive as one synchronized thundering herd. Empty
	// draws a random salt once per Client; tests pin it for reproducible
	// schedules.
	BackoffSalt string
	// Logf, if non-nil, narrates retries and reconnections.
	Logf func(format string, args ...any)

	// sleep is the test seam for pauses; nil means time.Sleep.
	sleep func(time.Duration)

	saltOnce sync.Once
	saltVal  string
}

// endpoints returns the deduplicated base-URL list, Base first. A client
// with neither Base nor Endpoints gets the empty base (requests then
// fail with an obvious URL error).
func (c *Client) endpoints() []string {
	seen := make(map[string]bool)
	var eps []string
	add := func(s string) {
		s = strings.TrimRight(strings.TrimSpace(s), "/")
		if s == "" || seen[s] {
			return
		}
		seen[s] = true
		eps = append(eps, s)
	}
	add(c.Base)
	for _, e := range c.Endpoints {
		add(e)
	}
	if len(eps) == 0 {
		eps = []string{""}
	}
	return eps
}

// salt resolves the backoff salt: the pinned BackoffSalt, else eight
// random bytes drawn once for this Client's lifetime.
func (c *Client) salt() string {
	c.saltOnce.Do(func() {
		if c.BackoffSalt != "" {
			c.saltVal = c.BackoffSalt
			return
		}
		var b [8]byte
		if _, err := rand.Read(b[:]); err == nil {
			c.saltVal = hex.EncodeToString(b[:])
		}
	})
	return c.saltVal
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) retries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	if c.Retries < 0 {
		return 0
	}
	return 8
}

func (c *Client) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

func (c *Client) doSleep(d time.Duration) {
	if c.sleep != nil {
		c.sleep(d)
		return
	}
	time.Sleep(d)
}

// pause sleeps the deterministic backoff for one retry of the keyed
// operation. The schedule is capped-exponential with jitter seeded by
// (salt, key, attempt): reproducible within one client, decorrelated
// across a fleet.
func (c *Client) pause(key string, attempt int) {
	d := experiments.RetryBackoff(c.salt()+"|"+key, attempt, c.BackoffBase, c.BackoffCap)
	c.logf("retrying %s in %v (attempt %d)", key, d.Round(time.Millisecond), attempt+1)
	c.doSleep(d)
}

// apiErr extracts the server's error message from a non-2xx response.
func apiErr(status string, body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", status, e.Error)
	}
	return fmt.Errorf("%s: %s", status, strings.TrimSpace(string(body)))
}

// transientStatus reports whether an HTTP status signals a condition a
// retry could outlast: a proxy hiccup, a draining daemon about to be
// replaced, or a daemon that briefly cannot persist work.
func transientStatus(code int) bool {
	switch code {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// get performs one GET with transient-failure retries, returning the
// final response body and status code; a status for which retry reports
// true is retried like a connection failure. With multiple endpoints the
// read hedges: a job lives only on the node executing it, so a 404 from one
// peer advances to the next, and only every endpoint agreeing on 404
// makes the 404 final. Transient failures likewise advance — a dead
// node costs one connection attempt within the same attempt round, not
// a backoff pause.
func (c *Client) get(path string, retry func(code int) bool) (int, []byte, error) {
	eps := c.endpoints()
	var lastErr error
	for attempt := 0; ; attempt++ {
		notFound := 0
		var nfBody []byte
		for _, base := range eps {
			resp, err := c.http().Get(base + path)
			if err != nil {
				lastErr = &transientError{err}
				continue
			}
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case rerr != nil:
				lastErr = &transientError{rerr}
			case resp.StatusCode == http.StatusNotFound && len(eps) > 1:
				notFound++
				nfBody = body
			case retry(resp.StatusCode):
				lastErr = &transientError{apiErr(resp.Status, body)}
			default:
				return resp.StatusCode, body, nil
			}
		}
		if notFound == len(eps) {
			// Unanimous: the job genuinely is nowhere.
			return http.StatusNotFound, nfBody, nil
		}
		if attempt >= c.retries() {
			if notFound > 0 {
				// Every endpoint that answered said 404; the rest stayed
				// unreachable through all retries. The job may live on a
				// node we cannot reach, but waiting longer won't tell us —
				// surface the 404 (ErrJobLost upstream) so the caller can
				// resubmit: idempotent, and the worst case of a healed
				// partition is one redundant cache hit.
				return http.StatusNotFound, nfBody, nil
			}
			return 0, nil, fmt.Errorf("GET %s: %w", path, lastErr)
		}
		c.pause("GET "+path, attempt+1)
	}
}

// getJSON is get plus a 2xx check and decode.
func (c *Client) getJSON(path string, out any) error {
	code, body, err := c.get(path, transientStatus)
	if err != nil {
		return err
	}
	if code >= 300 {
		return apiErr(fmt.Sprintf("%d %s", code, http.StatusText(code)), body)
	}
	return json.Unmarshal(body, out)
}

// Submit posts a job spec. Transient transport failures re-submit — safe
// because the run hash makes submission idempotent: a retry lands on the
// job the torn request created (202 the first time, 200 coalesced after).
// With multiple endpoints, an unreachable node advances to the next peer
// in the same attempt round (whichever node accepts will route the job
// to its owner itself). A full queue honors Retry-After and re-submits;
// if it never drains, the returned error wraps ErrQueueFull.
func (c *Client) Submit(spec JobSpec) (JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return JobStatus{}, err
	}
	eps := c.endpoints()
	var lastErr error
	for attempt := 0; ; attempt++ {
		retryAfter, queueFull := "", false
		for _, base := range eps {
			resp, err := c.http().Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				lastErr = &transientError{err}
				continue
			}
			raw, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case rerr != nil:
				lastErr = &transientError{rerr}
			case resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK:
				var st JobStatus
				if err := json.Unmarshal(raw, &st); err != nil {
					return JobStatus{}, err
				}
				return st, nil
			case resp.StatusCode == http.StatusTooManyRequests:
				lastErr = fmt.Errorf("%w: %v", ErrQueueFull, apiErr(resp.Status, raw))
				retryAfter, queueFull = resp.Header.Get("Retry-After"), true
			case transientStatus(resp.StatusCode):
				lastErr = &transientError{apiErr(resp.Status, raw)}
			default:
				return JobStatus{}, apiErr(resp.Status, raw) // 400s: final
			}
		}
		if attempt >= c.retries() {
			return JobStatus{}, fmt.Errorf("submit: %w", lastErr)
		}
		switch {
		case queueFull:
			c.waitRetryAfter(retryAfter, attempt+1)
		case IsTransient(lastErr):
			c.pause("POST /v1/jobs", attempt+1)
		}
	}
}

// waitRetryAfter sleeps the server's Retry-After hint — either delta
// seconds or an HTTP-date (both forms RFC 9110 allows) — clamped to
// [1s, 30s]; an unparsable hint falls back to the deterministic backoff
// schedule.
func (c *Client) waitRetryAfter(header string, attempt int) {
	header = strings.TrimSpace(header)
	var d time.Duration
	parsed := false
	if secs, err := strconv.Atoi(header); err == nil && secs >= 0 {
		d, parsed = time.Duration(secs)*time.Second, true
	} else if t, err := http.ParseTime(header); err == nil {
		d, parsed = time.Until(t), true
	}
	if !parsed {
		c.pause("retry-after", attempt)
		return
	}
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	c.logf("queue full; honoring Retry-After: sleeping %v (attempt %d)", d, attempt+1)
	c.doSleep(d)
}

// Status fetches one job's status, hedging across endpoints. In
// multi-endpoint mode a unanimous 404 wraps ErrJobLost.
func (c *Client) Status(id string) (JobStatus, error) {
	code, body, err := c.get("/v1/jobs/"+id, transientStatus)
	if err != nil {
		return JobStatus{}, err
	}
	if code == http.StatusNotFound && len(c.endpoints()) > 1 {
		return JobStatus{}, fmt.Errorf("%w: job %s", ErrJobLost, id)
	}
	if code >= 300 {
		return JobStatus{}, apiErr(fmt.Sprintf("%d %s", code, http.StatusText(code)), body)
	}
	var st JobStatus
	return st, json.Unmarshal(body, &st)
}

// List fetches every job's status.
func (c *Client) List() ([]JobStatus, error) {
	var all []JobStatus
	err := c.getJSON("/v1/jobs", &all)
	return all, err
}

// Health fetches /healthz. A draining or store-unwritable daemon answers
// 503 with a valid body; that is its answer, not a hiccup, so it is not
// retried, and the body and status code are both returned so callers can
// show it rather than erroring. Connection failures still retry.
func (c *Client) Health() (Health, int, error) {
	code, body, err := c.get("/healthz", func(code int) bool {
		return code != http.StatusServiceUnavailable && transientStatus(code)
	})
	if err != nil {
		return Health{}, 0, err
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		return Health{}, code, apiErr(fmt.Sprintf("%d %s", code, http.StatusText(code)), body)
	}
	return h, code, nil
}

// Result fetches the completed result JSON verbatim (so two clients
// fetching the same job can diff bytes). With wait, 202 responses poll
// until the job settles. A terminally failed job returns an error
// wrapping ErrJobFailed.
func (c *Client) Result(id string, wait bool) ([]byte, error) {
	path := "/v1/jobs/" + id + "/result"
	for {
		code, body, err := c.get(path, transientStatus)
		if err != nil {
			return nil, err
		}
		switch {
		case code == http.StatusOK:
			return body, nil
		case code == http.StatusNotFound && len(c.endpoints()) > 1:
			// Every endpoint disowned the job: its executor died. The
			// caller resubmits the spec (same hash, so nothing is wasted).
			return nil, fmt.Errorf("%w: job %s", ErrJobLost, id)
		case code == http.StatusAccepted && wait:
			c.doSleep(200 * time.Millisecond)
		case code == http.StatusInternalServerError:
			var st JobStatus
			if json.Unmarshal(body, &st) == nil && st.State == StateFailed {
				return nil, fmt.Errorf("%w: %s", ErrJobFailed, st.Error)
			}
			return nil, apiErr(fmt.Sprintf("%d %s", code, http.StatusText(code)), body)
		default:
			return nil, apiErr(fmt.Sprintf("%d %s", code, http.StatusText(code)), body)
		}
	}
}

// errWatchNotFound marks a 404 from one endpoint's event stream — in a
// cluster it means "this node doesn't hold the job", which is only final
// once every endpoint says it.
var errWatchNotFound = errors.New("no such job")

// Watch follows the job's SSE feed, writing one line per event to w,
// until the job reaches a terminal state; the final state is returned.
// A torn stream — daemon restart, slow-consumer eviction, proxy timeout —
// reconnects with Last-Event-ID, so the caller sees one continuous
// stream across any number of server lives; in a cluster, reconnects
// rotate across endpoints, so the watch survives the death of the node
// it first attached to (the run hash names the same job everywhere).
// Receiving events counts as progress and resets the retry budget; only
// consecutive dead connections exhaust it. Every endpoint answering 404
// wraps ErrJobLost.
func (c *Client) Watch(id string, w io.Writer) (string, error) {
	eps := c.endpoints()
	lastID := -1
	attempt, notFound := 0, 0
	for i := 0; ; i++ {
		base := eps[i%len(eps)]
		state, gotAny, err := c.streamOnce(base, id, &lastID, w)
		if state != "" {
			return state, nil
		}
		if errors.Is(err, errWatchNotFound) && len(eps) > 1 {
			notFound++
			if notFound >= len(eps) {
				return "", fmt.Errorf("watch %s: %w", id, ErrJobLost)
			}
			continue // ask the next peer immediately; no backoff for a 404
		}
		if err != nil && !IsTransient(err) {
			return "", err
		}
		// Only a live stream clears the 404 tally: an unreachable node must
		// not launder the survivors' unanimous "we don't hold this job"
		// back to zero, or a watch on a lost job would spin until the retry
		// budget dies instead of surfacing ErrJobLost.
		if gotAny {
			attempt, notFound = 0, 0
		}
		attempt++
		if attempt > c.retries() {
			return "", fmt.Errorf("watch %s: stream did not recover: %w", id, err)
		}
		c.pause("watch "+id, attempt)
	}
}

// streamOnce runs a single SSE connection. It updates *lastID as events
// arrive (ids restart after a daemon restart; the latest received id is
// authoritative) and reports whether any event arrived. A terminal "end"
// event returns the job's final state; everything else returns "" and an
// error describing the disconnect.
func (c *Client) streamOnce(base, id string, lastID *int, w io.Writer) (string, bool, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", false, err
	}
	if *lastID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(*lastID))
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return "", false, &transientError{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		body, _ := io.ReadAll(resp.Body)
		err := apiErr(resp.Status, body)
		if resp.StatusCode == http.StatusNotFound {
			return "", false, fmt.Errorf("%s: %w", base, errWatchNotFound)
		}
		if transientStatus(resp.StatusCode) {
			return "", false, &transientError{err}
		}
		return "", false, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var event string
	gotAny := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			if n, err := strconv.Atoi(strings.TrimPrefix(line, "id: ")); err == nil {
				*lastID = n
			}
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "end":
				var end struct {
					State string `json:"state"`
				}
				if json.Unmarshal([]byte(data), &end) == nil && end.State != "" {
					return end.State, true, nil
				}
				return StateDone, true, nil
			case "evicted":
				// The server cut us off for stalling; reconnect and let
				// Last-Event-ID replay what the bounded buffer dropped.
				return "", gotAny, &transientError{errors.New("evicted by server; reconnecting")}
			default:
				gotAny = true
				fmt.Fprintf(w, "%-12s %s\n", event, data)
			}
		}
	}
	err = sc.Err()
	if err == nil {
		err = errors.New("stream ended without a terminal event")
	}
	return "", gotAny, &transientError{err}
}
