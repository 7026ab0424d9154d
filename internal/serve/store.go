// Durable job store: the crash-only half of the serving daemon. Every
// accepted job is appended to a ledger (jobs.jsonl, next to the journal in
// the cache directory) *before* the 202 leaves the process; startup replays
// it and re-enqueues every job not terminally settled. That is free and
// byte-stable for a finished one (the cache answers done runs, the journal
// recalls terminal failures), so SIGKILL at any instant converges to the
// same bytes. The file mechanics are internal/recordlog's.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/recordlog"
)

// Job-store record states. Accepted is the only live state; everything
// else is terminal and never resumed.
const (
	StoreAccepted = "accepted" // persisted before the 202; owed an answer
	StoreDone     = "done"     // result delivered to the registry
	StoreFailed   = "failed"   // run terminally failed (journal recalls it)
	StoreOrphaned = "orphaned" // spec no longer resolves to the stored identity
	StoreRejected = "rejected" // bounced by admission control after persisting
)

// StoreFileName is the ledger's file name inside a cache directory.
const StoreFileName = "jobs.jsonl"

// StoreEntry is one job-state transition. Hash is the job's persistent
// identity (the cache's, journal's and API's); Spec is the *resolved* spec,
// so a daemon restarted with other defaults re-derives the same identity
// or detects an orphan, never runs another simulation under the old ID.
type StoreEntry struct {
	ID     string  `json:"id"`
	Hash   string  `json:"hash"`
	Status string  `json:"status"`
	Spec   JobSpec `json:"spec"`
	Error  string  `json:"error,omitempty"`
	At     string  `json:"at"` // RFC 3339, wall clock
}

// JobStore is the ledger of accepted jobs, keyed by run hash. Safe for
// concurrent use; a nil *JobStore is a valid no-op store, so the daemon
// runs (non-durably) without one.
type JobStore struct {
	log     *recordlog.Log[StoreEntry]
	mu      sync.Mutex // makes append's read-fold-write one step; guards lastErr
	lastErr error      // outcome of the last append, probe or compaction
}

// OpenJobStore opens (creating if needed), replays and compacts the ledger:
// recovery IS the normal startup path, and a crashed daemon's file, torn or
// long, is one clean record per job before any new append lands.
func OpenJobStore(path string) (*JobStore, error) {
	l, err := recordlog.Open(path, func(e StoreEntry) string { return e.Hash })
	if err != nil {
		return nil, fmt.Errorf("job store: %w", err)
	}
	if err := l.Compact(acceptOrder); err != nil {
		l.Close()
		return nil, fmt.Errorf("job store: %w", err)
	}
	return &JobStore{log: l}, nil
}

// acceptOrder is submission order: At, then hash for ties.
func acceptOrder(a, b StoreEntry) bool {
	return a.At < b.At || a.At == b.At && a.Hash < b.Hash
}

func (s *JobStore) Path() string {
	if s == nil {
		return ""
	}
	return s.log.Path()
}

// Accept persists a job before the daemon admits it. It MUST reach disk (it
// is the durability behind the 202): on an error the caller refuses the job.
func (s *JobStore) Accept(id, hash string, spec JobSpec) error {
	return s.append(StoreEntry{ID: id, Hash: hash, Status: StoreAccepted, Spec: spec})
}

// Settle records a job's terminal disposition, best effort: after a failed
// settle the next startup re-enqueues a job the cache answers for free.
func (s *JobStore) Settle(id, hash, status, errText string) {
	_ = s.append(StoreEntry{ID: id, Hash: hash, Status: status, Error: errText})
}

// do runs one file operation under mu and keeps its outcome for LastErr.
func (s *JobStore) do(op func() error) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastErr = op()
	return s.lastErr
}

// append stamps and writes one transition. A settle carries only the
// transition: it takes the accepted record's spec (resume must still
// resolve a settled job) and timestamp (resume order stays submission order).
func (s *JobStore) append(e StoreEntry) error {
	return s.do(func() error {
		e.At = time.Now().UTC().Format(time.RFC3339)
		if prev, ok := s.log.Get(e.Hash); ok {
			if e.Spec.Bench == "" {
				e.Spec = prev.Spec
			}
			if prev.At != "" {
				e.At = prev.At
			}
		}
		return s.log.Append(e)
	})
}

// Entries returns the last record of every job in acceptance order.
func (s *JobStore) Entries() []StoreEntry {
	if s == nil {
		return nil
	}
	return s.log.Snapshot(acceptOrder)
}

// Pending counts the jobs accepted but not terminally settled. It runs on
// every /healthz and /metrics scrape, so it counts an unsorted snapshot.
func (s *JobStore) Pending() (n int) {
	if s == nil {
		return 0
	}
	for _, e := range s.log.Snapshot(nil) {
		if e.Status == StoreAccepted {
			n++
		}
	}
	return n
}

// Writable re-probes whether the ledger can take an append right now: the
// /healthz signal that keeps submissions away from a daemon that cannot persist.
func (s *JobStore) Writable() bool {
	return s != nil && s.do(s.log.Writable) == nil
}

// LastErr returns why the ledger is unhealthy, if it is.
func (s *JobStore) LastErr() error {
	return s.do(func() error { return s.lastErr }) // do stores back what it read: a locked read
}

// Compact rewrites the ledger to one record per job, in acceptance order.
func (s *JobStore) Compact() error {
	return s.do(func() error { return s.log.Compact(acceptOrder) })
}

// Close compacts and closes the ledger; correctness never depends on it.
func (s *JobStore) Close() error {
	if s == nil {
		return nil
	}
	return errors.Join(s.Compact(), s.log.Close())
}
