// Write-ahead run journal: what makes a campaign resumable. One record is
// appended per run-state transition and replayed by the next invocation:
// "done" runs are expected in the persistent cache, terminal "failed" runs
// are recalled without re-simulating (simulations are deterministic), a
// "running" record with no successor was cut down by a crash and runs
// again. The file mechanics are internal/recordlog's.
package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/recordlog"
)

// Run states recorded in the journal.
const (
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// journalStatus is the run state the journal records for a RunEvent phase
// (Runner.record); the other phases leave the journal as it was.
var journalStatus = map[string]string{PhaseStart: StatusRunning, PhaseRetry: StatusRunning,
	PhaseDone: StatusDone, PhaseFailed: StatusFailed}

// JournalEntry is one run-state transition. Hash is the run's persistent
// identity (RunHash, the cache's file name); Key is a human-readable label
// (bench@ConfigLabel from the Runner).
type JournalEntry struct {
	Hash    string  `json:"hash"`
	Key     string  `json:"key"`
	Status  string  `json:"status"`
	Attempt int     `json:"attempt"`
	WallMS  float64 `json:"wall_ms,omitempty"`
	Error   string  `json:"error,omitempty"`
	At      string  `json:"at"` // RFC 3339, wall clock
}

// Journal is the append-only run ledger, keyed by run hash. Methods are
// safe for concurrent use; a nil *Journal records nothing.
type Journal struct{ log *recordlog.Log[JournalEntry] }

// JournalFileName is the journal's file name inside a cache directory.
const JournalFileName = "journal.jsonl"

// OpenJournal opens (creating if needed) and replays the journal at path.
func OpenJournal(path string) (*Journal, error) {
	l, err := recordlog.Open(path, func(e JournalEntry) string { return e.Hash })
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{l}, nil
}

// Lookup returns the last recorded state of the run with the given hash;
// Len reports how many distinct runs the journal knows about.
func (j *Journal) Lookup(hash string) (JournalEntry, bool) { return j.log.Get(hash) }
func (j *Journal) Len() int                                { return j.log.Len() }

// Done records a successful run.
func (j *Journal) Done(hash, key string, attempt int, wall time.Duration) {
	j.append(JournalEntry{Hash: hash, Key: key, Status: StatusDone, Attempt: attempt, WallMS: wallMS(wall)})
}

// wallMS is a wall time as the journal, the ledger and RunEvents carry it:
// milliseconds, to the microsecond.
func wallMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// append stamps and records one transition. Journal trouble never takes a
// campaign down: a failed append only costs that record's resumability.
func (j *Journal) append(e JournalEntry) {
	if j == nil {
		return
	}
	e.At = time.Now().UTC().Format(time.RFC3339)
	_ = j.log.Append(e)
}

// Compact rewrites the journal to one record per run in (key, hash) order.
// Key alone is not unique: runs that differ in anything but benchmark,
// network kind, coherence scheme and core count share a label.
func (j *Journal) Compact() error {
	if j == nil {
		return nil
	}
	return j.log.Compact(func(a, b JournalEntry) bool {
		return a.Key < b.Key || a.Key == b.Key && a.Hash < b.Hash
	})
}

// Close compacts and closes the journal.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	return errors.Join(j.Compact(), j.log.Close())
}
