// Health prober: the failover trigger. Each node polls its peers'
// /healthz on a fixed cadence and keeps a damped up/down verdict per
// peer; the serving layer consults that verdict before forwarding a
// submit or asking a replica for a cached result.
//
// Two properties matter more than latency here:
//
//   - flap damping: a single dropped probe must not mark a peer down
//     (and trigger a wave of local failover executions), and a single
//     lucky probe must not mark a flapping peer up — state flips only
//     after FailAfter consecutive failures or RiseAfter consecutive
//     successes;
//   - polite reprobing: a down peer is reprobed on capped exponential
//     backoff with deterministic jitter (the engine's RetryBackoff,
//     keyed per peer), so a fleet of N nodes does not hammer a peer that
//     is just coming back — their schedules are decorrelated by key.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/experiments"
)

// ProbeFunc checks one peer, returning nil when it is healthy.
type ProbeFunc func(ctx context.Context, peer string) error

// HTTPProbe returns the standard probe: GET {peer}/healthz, healthy on
// 200. A draining or store-unwritable daemon answers 503 and therefore
// probes unhealthy — exactly the peers the cluster should stop routing
// work to. client must not be nil: it carries the probe's timeout
// (NewProber's default passes one with ProberOptions.Timeout).
func HTTPProbe(client *http.Client) ProbeFunc {
	return func(ctx context.Context, peer string) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("healthz: %s", resp.Status)
		}
		return nil
	}
}

// ProberOptions tunes the probe loop. The zero value is usable.
type ProberOptions struct {
	// Interval is the healthy-peer poll cadence. Zero means 2s.
	Interval time.Duration
	// Timeout bounds one probe. Zero means half the interval.
	Timeout time.Duration
	// FailAfter is how many consecutive probe failures mark a peer down.
	// Zero means 2.
	FailAfter int
	// RiseAfter is how many consecutive successes mark a down peer up
	// again. Zero means 2.
	RiseAfter int
	// BackoffCap bounds the reprobe pause for a down peer (the schedule
	// starts at Interval and doubles with deterministic per-peer jitter).
	// Zero means 8× the interval.
	BackoffCap time.Duration
	// Probe performs one check. Nil means HTTPProbe with a per-probe
	// timeout client.
	Probe ProbeFunc
	// Logf, if non-nil, narrates state flips.
	Logf func(format string, args ...any)
}

// PeerHealth is one peer's probed state, for /healthz and /metrics.
type PeerHealth struct {
	Peer    string `json:"peer"`
	Healthy bool   `json:"healthy"`
	// Consecutive is the current run length of same-outcome probes —
	// failures while healthy, successes while down (the damping
	// counters).
	Consecutive int    `json:"consecutive,omitempty"`
	LastErr     string `json:"last_error,omitempty"`
}

// peerState is the damped verdict machinery for one peer.
type peerState struct {
	healthy   bool
	fails     int // consecutive failures (while healthy)
	oks       int // consecutive successes (while down)
	attempt   int // backoff attempt counter while down
	nextProbe time.Time
	lastErr   error
}

// Prober polls a fixed peer set in the background. Create with
// NewProber, then Start; Healthy answers from the latest damped state
// and never blocks on the network.
type Prober struct {
	peers []string
	opt   ProberOptions

	mu sync.Mutex
	st map[string]*peerState

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewProber builds a prober over peers (this node's URL should not be in
// the list — a node does not probe itself). All peers start healthy:
// optimistic bootstrap means a cold cluster forwards normally, and a
// genuinely dead peer is demoted within FailAfter probes (the first
// forward to it just fails over locally in the meantime).
func NewProber(peers []string, opt ProberOptions) *Prober {
	if opt.Interval <= 0 {
		opt.Interval = 2 * time.Second
	}
	if opt.Timeout <= 0 {
		opt.Timeout = opt.Interval / 2
	}
	if opt.FailAfter <= 0 {
		opt.FailAfter = 2
	}
	if opt.RiseAfter <= 0 {
		opt.RiseAfter = 2
	}
	if opt.BackoffCap <= 0 {
		opt.BackoffCap = 8 * opt.Interval
	}
	if opt.Probe == nil {
		opt.Probe = HTTPProbe(&http.Client{Timeout: opt.Timeout})
	}
	p := &Prober{
		opt:  opt,
		st:   make(map[string]*peerState),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for _, peer := range peers {
		peer = NormalizePeer(peer)
		if peer == "" {
			continue
		}
		if _, ok := p.st[peer]; ok {
			continue
		}
		p.peers = append(p.peers, peer)
		p.st[peer] = &peerState{healthy: true}
	}
	sort.Strings(p.peers)
	return p
}

// Start launches the probe loop. Stop (or closing ctx) ends it.
func (p *Prober) Start(ctx context.Context) {
	go func() {
		defer close(p.done)
		tick := p.opt.Interval / 4
		if tick < 10*time.Millisecond {
			tick = 10 * time.Millisecond
		}
		t := time.NewTicker(tick)
		defer t.Stop()
		p.Sweep(ctx) // prime verdicts before the first interval elapses
		for {
			select {
			case <-t.C:
				p.Sweep(ctx)
			case <-p.stop:
				return
			case <-ctx.Done():
				return
			}
		}
	}()
}

// Stop ends the probe loop and waits for it to exit. Idempotent.
func (p *Prober) Stop() {
	p.once.Do(func() { close(p.stop) })
	<-p.done
}

// Sweep probes every peer whose next-probe time has arrived. Exported so
// tests (and a startup that wants primed verdicts) can drive the loop
// synchronously.
func (p *Prober) Sweep(ctx context.Context) {
	now := time.Now()
	for _, peer := range p.peers {
		p.mu.Lock()
		st := p.st[peer]
		due := !st.nextProbe.After(now)
		p.mu.Unlock()
		if !due {
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, p.opt.Timeout)
		err := p.opt.Probe(pctx, peer)
		cancel()
		p.observe(peer, err, time.Now())
	}
}

// observe folds one probe outcome into the peer's damped state and
// schedules its next probe: healthy peers on the fixed interval, down
// peers on capped exponential backoff with deterministic per-peer
// jitter.
func (p *Prober) observe(peer string, err error, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.st[peer]
	if st == nil {
		return
	}
	st.lastErr = err
	next := p.opt.Interval
	if err == nil {
		st.fails = 0
		if !st.healthy {
			st.oks++
			if st.oks >= p.opt.RiseAfter {
				st.healthy, st.oks, st.attempt = true, 0, 0
				p.logf("cluster: peer %s healthy again", peer)
			} else {
				// Still damping the recovery: reprobe promptly so RiseAfter
				// successes accumulate in ~RiseAfter intervals, not the
				// down-peer backoff schedule.
				next = p.opt.Interval
			}
		}
	} else {
		st.oks = 0
		if st.healthy {
			st.fails++
			if st.fails >= p.opt.FailAfter {
				st.healthy, st.fails, st.attempt = false, 0, 1
				p.logf("cluster: peer %s marked down: %v", peer, err)
			}
		} else {
			st.attempt++
		}
		if !st.healthy {
			next = experiments.RetryBackoff("probe "+peer, st.attempt, p.opt.Interval, p.opt.BackoffCap)
		}
	}
	st.nextProbe = now.Add(next)
}

// Healthy reports the damped verdict for peer. Peers the prober does not
// track (including this node itself) report healthy — the caller's
// forward attempt is the probe of last resort, and it falls back locally
// on failure anyway.
func (p *Prober) Healthy(peer string) bool {
	peer = NormalizePeer(peer)
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.st[peer]
	if !ok {
		return true
	}
	return st.healthy
}

// Snapshot returns every tracked peer's current health, sorted by peer
// (the /metrics and /healthz feed).
func (p *Prober) Snapshot() []PeerHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PeerHealth, 0, len(p.peers))
	for _, peer := range p.peers {
		st := p.st[peer]
		h := PeerHealth{Peer: peer, Healthy: st.healthy}
		if st.healthy {
			h.Consecutive = st.fails
		} else {
			h.Consecutive = st.oks
		}
		if st.lastErr != nil {
			h.LastErr = st.lastErr.Error()
		}
		out = append(out, h)
	}
	return out
}

func (p *Prober) logf(format string, args ...any) {
	if p.opt.Logf != nil {
		p.opt.Logf(format, args...)
	}
}
