// Job lifecycle and per-job event fan-out for the serving daemon.
package serve

import (
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/system"
)

// Job states, in lifecycle order.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Per-subscriber SSE bounds. Each subscriber owns a buffer of subBuffer
// events; when it overflows, the oldest buffered event is dropped (the
// client sees the gap in the SSE ids and can replay via Last-Event-ID).
// A subscriber that accumulates subEvictDrops drops without ever draining
// is evicted — its channel is closed and the connection torn down — so a
// stalled peer can never pin memory or block the simulation's event path.
const (
	subBuffer     = 64
	subEvictDrops = 256
)

// JobSpec is the request body of POST /v1/jobs: the benchmark (an
// application name, or a "synth:..." pseudo-benchmark for network-only
// runs) plus the machine geometry, resolved through the same
// experiments.BuildConfig every CLI front end uses — a daemon-served
// result is byte-comparable to an atacsim run of the same spec.
type JobSpec struct {
	Bench string `json:"bench"`
	experiments.Geometry
}

// seqEvent is one run event with its position in the job's event log —
// the SSE id, which lets a reconnecting client resume via Last-Event-ID.
type seqEvent struct {
	Seq int
	Ev  experiments.RunEvent
}

// subscriber is one live SSE consumer: a bounded buffer plus a drop
// count. Fields are guarded by the owning Job's mutex.
type subscriber struct {
	ch      chan seqEvent
	dropped int
}

// Job is one submitted simulation. Identity is the run hash — the same
// sha256 the cache and journal key on — so identical specs are the same
// job: resubmits coalesce onto it, whatever its state.
type Job struct {
	ID   string // short run hash, the API identifier
	Hash string // full run hash
	Spec JobSpec
	Cfg  config.Config
	Peer string // executing node's ring URL ("" single-node)

	mu        sync.Mutex
	state     string
	resumed   bool      // re-enqueued from the durable job store at startup
	onEvict   func(int) // server's eviction counter; called under mu
	events    []experiments.RunEvent
	subs      map[*subscriber]struct{}
	result    *system.Result
	errText   string
	coalesced uint64
	created   time.Time
	started   time.Time
	finished  time.Time
}

// JobStatus is the wire form of a job's current state.
type JobStatus struct {
	ID        string `json:"id"`
	Hash      string `json:"hash"`
	State     string `json:"state"`
	Bench     string `json:"bench"`
	Config    string `json:"config"`
	Peer      string `json:"peer,omitempty"`
	Resumed   bool   `json:"resumed,omitempty"`
	Coalesced uint64 `json:"coalesced"`
	Events    int    `json:"events"`
	Created   string `json:"created"`
	Started   string `json:"started,omitempty"`
	Finished  string `json:"finished,omitempty"`
	Error     string `json:"error,omitempty"`
	ResultURL string `json:"result_url,omitempty"`
}

func rfc3339(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		Hash:      j.Hash,
		State:     j.state,
		Bench:     j.Spec.Bench,
		Peer:      j.Peer,
		Resumed:   j.resumed,
		Coalesced: j.coalesced,
		Events:    len(j.events),
		Created:   rfc3339(j.created),
		Started:   rfc3339(j.started),
		Finished:  rfc3339(j.finished),
		Error:     j.errText,
	}
	st.Config = experiments.ConfigLabel(j.Cfg)
	if j.state == StateDone {
		st.ResultURL = "/v1/jobs/" + j.ID + "/result"
	}
	return st
}

// deliver appends one run event and fans it out to live subscribers.
// Every send is non-blocking: a full subscriber drops its oldest buffered
// event to make room (the SSE id sequence exposes the gap, and the client
// replays it via Last-Event-ID on reconnect), and a subscriber that keeps
// overflowing is evicted outright. A stalled consumer therefore costs the
// simulation goroutine nothing — routeEvent can never block here.
func (j *Job) deliver(ev experiments.RunEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	seq := len(j.events)
	j.events = append(j.events, ev)
	var evicted int
	for sub := range j.subs {
		select {
		case sub.ch <- seqEvent{seq, ev}:
			continue
		default:
		}
		// Buffer full: drop the oldest event, then retry once. The second
		// send can only fail if the consumer raced a drain in between, in
		// which case the event is simply dropped too.
		select {
		case <-sub.ch:
		default:
		}
		sub.dropped++
		select {
		case sub.ch <- seqEvent{seq, ev}:
		default:
			sub.dropped++
		}
		if sub.dropped >= subEvictDrops {
			delete(j.subs, sub)
			close(sub.ch)
			evicted++
		}
	}
	if evicted > 0 && j.onEvict != nil {
		j.onEvict(evicted)
	}
}

// subscribe returns the event log from offset onward plus a live channel
// for what follows. The channel is closed when the job reaches a terminal
// state (or the subscriber is evicted for stalling); cancel detaches
// early. An offset beyond the log yields an empty replay.
func (j *Job) subscribe(offset int) (replay []seqEvent, ch chan seqEvent, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if offset < 0 {
		offset = 0
	}
	if offset > len(j.events) {
		offset = len(j.events)
	}
	replay = make([]seqEvent, 0, len(j.events)-offset)
	for i := offset; i < len(j.events); i++ {
		replay = append(replay, seqEvent{i, j.events[i]})
	}
	if j.state == StateDone || j.state == StateFailed {
		return replay, nil, func() {}
	}
	sub := &subscriber{ch: make(chan seqEvent, subBuffer)}
	if j.subs == nil {
		j.subs = make(map[*subscriber]struct{})
	}
	j.subs[sub] = struct{}{}
	return replay, sub.ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[sub]; ok {
			delete(j.subs, sub)
			close(sub.ch)
		}
	}
}

// start marks the job running.
func (j *Job) start() {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// finish records the terminal disposition and closes every subscriber:
// all delivered events happen-before the Runner returns, so subscribers
// see the complete log.
func (j *Job) finish(res system.Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	if err != nil {
		j.state = StateFailed
		j.errText = err.Error()
	} else {
		j.state = StateDone
		j.result = &res
	}
	for sub := range j.subs {
		delete(j.subs, sub)
		close(sub.ch)
	}
}

// Result returns the completed result, if the job is done.
func (j *Job) Result() (system.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		return system.Result{}, false
	}
	return *j.result, true
}

// State returns the job's current lifecycle state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}
