// Package recordlog is the repository's one crash-safe record log; the run
// journal (experiments.Journal) and the job ledger (serve.JobStore) are
// typed wrappers holding policy only. A Log is a JSONL file of
// self-contained records plus, in memory, the last record of every key.
// Replay skips a line that does not parse or has no key (a tail torn by a
// crash mid-append, a foreign line, however long) instead of failing. An
// append is one Write of one line on an O_APPEND handle, so a crash tears
// at most the final line; a failed write drops the handle, the next append
// reopens it, and the in-memory state advances only when the write
// succeeded. (Before the merge the journal did neither; both logs now
// behave as the ledger always did.) See DESIGN.md.
package recordlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Log is an append-only log of E keyed by key, safe for concurrent use:
// appends serialize behind mu, so lines never interleave.
type Log[E any] struct {
	mu    sync.Mutex
	path  string
	key   func(E) string
	f     *os.File     // append handle; nil after a failed write or Close
	state map[string]E // last record per key, replayed + live
}

// Open replays the log at path, creating it and its directory if needed;
// an unwritable path fails here rather than at the first Append.
func Open[E any](path string, key func(E) string) (*Log[E], error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	l := &Log[E]{path: path, key: key, state: make(map[string]E)}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		var e E // blank, torn, foreign or keyless lines are skipped: every intact record is self-contained
		if json.Unmarshal(line, &e) == nil && key(e) != "" {
			l.state[key(e)] = e
		}
	}
	if err := l.reopen(); err != nil {
		return nil, err
	}
	return l, nil
}

// reopen replaces the append handle with a fresh one on the path; mu held.
func (l *Log[E]) reopen() (err error) {
	l.close()
	l.f, err = os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	return err
}

func (l *Log[E]) close() (err error) {
	if l.f != nil {
		err = l.f.Close()
		l.f = nil
	}
	return err
}

func (l *Log[E]) Path() string { return l.path }

// Get returns the last record appended or replayed under key.
func (l *Log[E]) Get(key string) (E, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.state[key]
	return e, ok
}

// Len reports how many distinct keys the log holds.
func (l *Log[E]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.state)
}

// Snapshot returns the last record of every key in less order, or in no
// particular order when less is nil.
func (l *Log[E]) Snapshot(less func(a, b E) bool) []E {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshot(less)
}

func (l *Log[E]) snapshot(less func(a, b E) bool) []E {
	out := make([]E, 0, len(l.state))
	for _, e := range l.state {
		out = append(out, e)
	}
	if less != nil {
		sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	}
	return out
}

// Append writes e as one line, then makes it the last record of its key.
func (l *Log[E]) Append(e E) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		if err := l.reopen(); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(append(data, '\n')); err != nil {
		l.close()
		return err
	}
	l.state[l.key(e)] = e
	return nil
}

// Compact atomically rewrites the file to one record per key in less order
// (a total order makes the bytes reproducible) and reopens the handle on it.
func (l *Log[E]) Compact(less func(a, b E) bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf) // Encode is Marshal plus the newline
	for _, e := range l.snapshot(less) {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	if err := AtomicWriteFile(l.path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return l.reopen()
}

// Writable reopens the path, not trusting the held handle: why an append would fail, if it would.
func (l *Log[E]) Writable() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reopen()
}

// Close closes the append handle. It does not compact.
func (l *Log[E]) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.close()
}

// AtomicWriteFile writes data at path via a sibling temp file, fsync and
// rename, so a reader (or a crash) never observes a torn file: the one
// write discipline of the result cache, log compaction and the manifest.
func AtomicWriteFile(path string, data []byte, perm os.FileMode) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	_ = tmp.Chmod(perm) // widen from CreateTemp's 0600 before publishing (best effort)
	if err = errors.Join(err, tmp.Sync(), tmp.Close()); err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
