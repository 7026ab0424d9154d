package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// scriptedProbe lets tests drive the prober synchronously: each peer has
// a queue of outcomes (nil = healthy) that Sweep consumes in order, and
// an exhausted queue repeats its last outcome.
type scriptedProbe struct {
	mu     sync.Mutex
	script map[string][]error
	calls  map[string]int
}

func newScriptedProbe() *scriptedProbe {
	return &scriptedProbe{script: map[string][]error{}, calls: map[string]int{}}
}

func (s *scriptedProbe) set(peer string, outcomes ...error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.script[peer] = outcomes
}

func (s *scriptedProbe) probe(_ context.Context, peer string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls[peer]++
	q := s.script[peer]
	if len(q) == 0 {
		return nil
	}
	out := q[0]
	if len(q) > 1 {
		s.script[peer] = q[1:]
	}
	return out
}

func (s *scriptedProbe) callCount(peer string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[peer]
}

// sweepOnce forces every peer due-now and runs one sweep, so tests step
// the damping state machine one probe-round at a time without waiting
// out real intervals.
func sweepOnce(p *Prober) {
	p.mu.Lock()
	for _, st := range p.st {
		st.nextProbe = time.Time{}
	}
	p.mu.Unlock()
	p.Sweep(context.Background())
}

func testProber(t *testing.T, sp *scriptedProbe, peers ...string) *Prober {
	t.Helper()
	return NewProber(peers, ProberOptions{
		Interval:  50 * time.Millisecond,
		FailAfter: 2,
		RiseAfter: 2,
		Probe:     sp.probe,
		Logf:      t.Logf,
	})
}

// TestProberFlapDamping: one failed probe must not demote a peer, and
// one good probe must not promote a down peer — FailAfter/RiseAfter
// consecutive outcomes are required, so a single dropped packet cannot
// trigger a cluster-wide failover wave.
func TestProberFlapDamping(t *testing.T) {
	boom := errors.New("connection refused")
	sp := newScriptedProbe()
	p := testProber(t, sp, "http://n2:1")

	if !p.Healthy("http://n2:1") {
		t.Fatal("peers must start healthy (optimistic bootstrap)")
	}

	// One failure: still healthy (damped).
	sp.set("http://n2:1", boom, nil)
	sweepOnce(p)
	if !p.Healthy("http://n2:1") {
		t.Fatal("single probe failure demoted the peer")
	}
	// The scripted success resets the streak.
	sweepOnce(p)

	// Two consecutive failures: down.
	sp.set("http://n2:1", boom)
	sweepOnce(p)
	sweepOnce(p)
	if p.Healthy("http://n2:1") {
		t.Fatal("peer still healthy after FailAfter consecutive failures")
	}

	// One success while down: still down (damped).
	sp.set("http://n2:1", nil, boom)
	sweepOnce(p)
	if p.Healthy("http://n2:1") {
		t.Fatal("single success promoted a down peer")
	}
	// The scripted failure resets the recovery streak.
	sweepOnce(p)

	// Two consecutive successes: up again.
	sp.set("http://n2:1")
	sweepOnce(p)
	sweepOnce(p)
	if !p.Healthy("http://n2:1") {
		t.Fatal("peer still down after RiseAfter consecutive successes")
	}
}

// TestProberDownBackoff: a down peer is reprobed on a growing schedule,
// not every sweep — the nextProbe gate must push beyond one interval as
// attempts accumulate.
func TestProberDownBackoff(t *testing.T) {
	boom := errors.New("refused")
	sp := newScriptedProbe()
	sp.set("http://n2:1", boom)
	p := testProber(t, sp, "http://n2:1")

	sweepOnce(p)
	sweepOnce(p) // peer is now down, attempt=1
	for i := 0; i < 4; i++ {
		sweepOnce(p) // grow the attempt counter
	}
	p.mu.Lock()
	st := p.st["http://n2:1"]
	gap := time.Until(st.nextProbe)
	attempt := st.attempt
	p.mu.Unlock()
	if attempt < 4 {
		t.Fatalf("attempt = %d after repeated down probes", attempt)
	}
	// Interval is 50ms, cap 8x = 400ms; by attempt >= 4 the backoff floor
	// (half the exponential) is well past one interval.
	if gap <= 50*time.Millisecond {
		t.Errorf("down peer reprobe gap %v; want > interval (backoff not applied)", gap)
	}
	if gap > 450*time.Millisecond {
		t.Errorf("down peer reprobe gap %v exceeds cap", gap)
	}
}

// TestProberSweepRespectsSchedule: Sweep without forcing due-times must
// not reprobe a peer whose nextProbe is in the future.
func TestProberSweepRespectsSchedule(t *testing.T) {
	sp := newScriptedProbe()
	p := testProber(t, sp, "http://n2:1")
	sweepOnce(p)
	before := sp.callCount("http://n2:1")
	p.Sweep(context.Background()) // nextProbe is ~interval away
	if got := sp.callCount("http://n2:1"); got != before {
		t.Fatalf("Sweep probed a not-yet-due peer (%d -> %d calls)", before, got)
	}
}

// TestProberSnapshotAndUntracked: Snapshot reports sorted, per-peer
// state, with Consecutive counting failures while healthy and successes
// while down; untracked peers (e.g. self) read healthy.
func TestProberSnapshotAndUntracked(t *testing.T) {
	boom := errors.New("refused")
	sp := newScriptedProbe()
	sp.set("http://n3:1", boom, boom, nil)
	sp.set("http://n2:1", nil, nil, boom)
	p := testProber(t, sp, "http://n3:1", "http://n2:1")
	sweepOnce(p)
	sweepOnce(p)

	snap := p.Snapshot()
	if len(snap) != 2 || snap[0].Peer != "http://n2:1" || snap[1].Peer != "http://n3:1" {
		t.Fatalf("snapshot order: %+v", snap)
	}
	if !snap[0].Healthy || snap[1].Healthy {
		t.Errorf("snapshot verdicts: %+v", snap)
	}
	if snap[1].LastErr == "" {
		t.Errorf("down peer snapshot lacks last error: %+v", snap[1])
	}
	// One more round: the down peer's first success and the healthy
	// peer's first failure are each a run of one, neither enough to flip.
	sweepOnce(p)
	snap = p.Snapshot()
	if !snap[0].Healthy || snap[0].Consecutive != 1 || snap[0].LastErr == "" {
		t.Errorf("healthy peer after one failure: %+v, want Consecutive 1 and the error", snap[0])
	}
	if snap[1].Healthy || snap[1].Consecutive != 1 {
		t.Errorf("down peer after one success: %+v, want Consecutive 1", snap[1])
	}
	if !p.Healthy("http://self:9") {
		t.Error("untracked peer must read healthy")
	}
}

// TestProberStartStop: the background loop primes verdicts and Stop is
// idempotent and returns.
func TestProberStartStop(t *testing.T) {
	sp := newScriptedProbe()
	p := testProber(t, sp, "http://n2:1")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Start(ctx)
	deadline := time.Now().Add(2 * time.Second)
	for sp.callCount("http://n2:1") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("Start never probed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.Stop()
	p.Stop() // idempotent
}

// TestProberTickFloor: the loop ticks at a quarter of the interval but
// never faster than every 10 ms, so a tiny -probe-interval cannot turn the
// prober into a busy loop. A healthy peer with a 1 ms interval is due every
// millisecond; over 100 ms the floored loop probes it about 11 times (the
// priming sweep plus one per tick), an unfloored 250 µs tick about 100.
func TestProberTickFloor(t *testing.T) {
	sp := newScriptedProbe()
	p := NewProber([]string{"http://n2:1"}, ProberOptions{Interval: time.Millisecond, Probe: sp.probe, Logf: t.Logf})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Start(ctx)
	time.Sleep(100 * time.Millisecond)
	p.Stop()
	// A late ticker drops ticks, never adds them: the bound holds on a
	// loaded machine too.
	if n := sp.callCount("http://n2:1"); n < 2 || n > 20 {
		t.Fatalf("%d probes in 100 ms at a 1 ms interval, want 2..20 (a 10 ms tick)", n)
	}
}

// TestHTTPProbe: 200 is healthy, anything else (a draining daemon's 503)
// is not, and connection failures are errors.
func TestHTTPProbe(t *testing.T) {
	var status int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			t.Errorf("probe hit %s", r.URL.Path)
		}
		w.WriteHeader(status)
		fmt.Fprint(w, "{}")
	}))
	defer srv.Close()

	probe := HTTPProbe(srv.Client())
	status = http.StatusOK
	if err := probe(context.Background(), srv.URL); err != nil {
		t.Errorf("200 probe: %v", err)
	}
	status = http.StatusServiceUnavailable
	if err := probe(context.Background(), srv.URL); err == nil {
		t.Error("503 probe reported healthy")
	}
	if err := probe(context.Background(), "http://127.0.0.1:1"); err == nil {
		t.Error("unreachable probe reported healthy")
	}
}

// TestProberZeroOptions: NewProber fills every zero option with its
// documented default, and the default probe is HTTPProbe with a client
// bounded by the probe timeout.
func TestProberZeroOptions(t *testing.T) {
	p := NewProber([]string{"http://n2:1"}, ProberOptions{})
	o := p.opt
	if o.Interval != 2*time.Second || o.Timeout != time.Second || o.FailAfter != 2 || o.RiseAfter != 2 || o.BackoffCap != 16*time.Second {
		t.Errorf("defaults: interval %v timeout %v failAfter %d riseAfter %d backoffCap %v, want 2s 1s 2 2 16s",
			o.Interval, o.Timeout, o.FailAfter, o.RiseAfter, o.BackoffCap)
	}
	if o.Probe == nil {
		t.Fatal("no default probe")
	}

	var status int
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/hang/healthz" {
			select { // held until the client gives up or the test ends
			case <-r.Context().Done():
			case <-release:
			}
			return
		}
		w.WriteHeader(status)
	}))
	defer srv.Close()
	defer close(release)

	status = http.StatusOK
	if err := o.Probe(context.Background(), srv.URL); err != nil {
		t.Errorf("default probe of a 200 peer: %v", err)
	}
	status = http.StatusServiceUnavailable
	if err := o.Probe(context.Background(), srv.URL); err == nil {
		t.Error("default probe reported a 503 peer healthy")
	}
	start := time.Now()
	if err := o.Probe(context.Background(), srv.URL+"/hang"); err == nil {
		t.Error("default probe reported a hung peer healthy")
	}
	if d := time.Since(start); d > 5*o.Timeout {
		t.Errorf("default probe of a hung peer took %v, want about the %v timeout", d, o.Timeout)
	}
}
