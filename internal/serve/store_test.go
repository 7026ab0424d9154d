package serve

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func storeSpec(bench string) JobSpec {
	return JobSpec{Bench: bench, Geometry: experiments.Geometry{Cores: 16, Seed: 1}}
}

// TestStoreRoundTrip: accepted jobs survive a reopen; settled jobs are
// terminal; the ledger compacts to one record per job.
func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), StoreFileName)
	st, err := OpenJobStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Accept("id-a", "hash-a", storeSpec("radix")); err != nil {
		t.Fatal(err)
	}
	if err := st.Accept("id-b", "hash-b", storeSpec("fft")); err != nil {
		t.Fatal(err)
	}
	st.Settle("id-a", "hash-a", StoreDone, "")
	if got := st.Pending(); got != 1 {
		t.Errorf("Pending = %d, want 1", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenJobStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	entries := st2.Entries()
	if len(entries) != 2 {
		t.Fatalf("replayed %d entries, want 2: %+v", len(entries), entries)
	}
	byHash := map[string]StoreEntry{}
	for _, e := range entries {
		byHash[e.Hash] = e
	}
	if byHash["hash-a"].Status != StoreDone {
		t.Errorf("hash-a status = %q, want done", byHash["hash-a"].Status)
	}
	if e := byHash["hash-b"]; e.Status != StoreAccepted || e.Spec.Bench != "fft" {
		t.Errorf("hash-b = %+v, want accepted fft", e)
	}

	// Close compacted: exactly one line per job on disk.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 2 {
		t.Errorf("compacted ledger has %d lines, want 2:\n%s", n, data)
	}
}

// TestStoreTornTail: a ledger whose final line was torn by a crash
// mid-append replays every intact record and drops only the tail.
func TestStoreTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), StoreFileName)
	st, err := OpenJobStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Accept("id-a", "hash-a", storeSpec("radix")); err != nil {
		t.Fatal(err)
	}
	if err := st.Accept("id-b", "hash-b", storeSpec("fft")); err != nil {
		t.Fatal(err)
	}
	// Simulate SIGKILL mid-append: no Close, and a half-written record at
	// the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"id-c","hash":"hash-c","st`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := OpenJobStore(path)
	if err != nil {
		t.Fatalf("torn tail must not fail open: %v", err)
	}
	defer st2.Close()
	if got := len(st2.Entries()); got != 2 {
		t.Fatalf("replayed %d entries, want 2 (torn tail dropped)", got)
	}
	// Open compacts: the torn bytes are gone from disk.
	sc := bufio.NewScanner(mustOpen(t, path))
	for sc.Scan() {
		var e StoreEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Errorf("post-compaction line is not valid JSON: %q", sc.Text())
		}
	}
}

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestStoreUnwritable: when the ledger path stops being appendable the
// store reports it (Writable false, Accept errors) and recovers once the
// path is restored — no restart required.
func TestStoreUnwritable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, StoreFileName)
	st, err := OpenJobStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.Writable() {
		t.Fatal("fresh store must be writable")
	}
	// Replace the ledger file with a directory: opening it O_APPEND fails
	// even for root, unlike permission bits.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	// The held handle still points at the removed inode, so force the
	// store through a reopen by closing it via the failure path: the
	// probe must fail regardless.
	if st.Writable() {
		t.Error("Writable must be false while the path is a directory")
	}
	if st.LastErr() == nil {
		t.Error("LastErr must record the probe failure")
	}

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if !st.Writable() {
		t.Error("Writable must recover once the path is free again")
	}
	if st.LastErr() != nil {
		t.Errorf("LastErr must clear on recovery, got %v", st.LastErr())
	}
}

// TestStoreNil: a nil store is a valid no-op, so the daemon runs
// non-durably without one.
func TestStoreNil(t *testing.T) {
	var st *JobStore
	if err := st.Accept("id", "hash", JobSpec{}); err != nil {
		t.Errorf("nil Accept: %v", err)
	}
	st.Settle("id", "hash", StoreDone, "")
	if st.Pending() != 0 || st.Writable() || st.Entries() != nil || st.Path() != "" {
		t.Error("nil store must be inert")
	}
	if err := st.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

var atStamp = regexp.MustCompile(`"at":"[^"]*"`)

// TestStoreFormat pins jobs.jsonl byte for byte, the way TestJournalFormat
// pins the journal: one scripted Accept/Settle sequence compared raw, after
// Compact and after a reopen (which compacts), with the wall-clock stamp
// normalised; then a hand-written ledger holding a foreign line, a keyless
// record, superseded records, a blank line and a torn tail is opened.
func TestStoreFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), StoreFileName)
	check := func(when, want string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := atStamp.ReplaceAllString(string(data), `"at":"T"`); got != want {
			t.Errorf("%s:\n got:\n%swant:\n%s", when, got, want)
		}
	}
	st, err := OpenJobStore(path)
	if err != nil {
		t.Fatal(err)
	}
	check("opened", "")
	// Hashes ascend in acceptance order, so compaction's (at, hash) order
	// is the script's order even when the clock ticks mid-test.
	for _, a := range []struct{ id, hash, bench string }{{"id-a", "hash-a", "radix"}, {"id-b", "hash-b", "fft"}} {
		if err := st.Accept(a.id, a.hash, storeSpec(a.bench)); err != nil {
			t.Fatal(err)
		}
	}
	st.Settle("id-a", "hash-a", StoreDone, "")
	if err := st.Accept("id-c", "hash-c", storeSpec("water")); err != nil {
		t.Fatal(err)
	}
	st.Settle("id-c", "hash-c", StoreFailed, "boom")
	check("appended", `{"id":"id-a","hash":"hash-a","status":"accepted","spec":{"bench":"radix","cores":16,"seed":1},"at":"T"}
{"id":"id-b","hash":"hash-b","status":"accepted","spec":{"bench":"fft","cores":16,"seed":1},"at":"T"}
{"id":"id-a","hash":"hash-a","status":"done","spec":{"bench":"radix","cores":16,"seed":1},"at":"T"}
{"id":"id-c","hash":"hash-c","status":"accepted","spec":{"bench":"water","cores":16,"seed":1},"at":"T"}
{"id":"id-c","hash":"hash-c","status":"failed","spec":{"bench":"water","cores":16,"seed":1},"error":"boom","at":"T"}
`)
	const compacted = `{"id":"id-a","hash":"hash-a","status":"done","spec":{"bench":"radix","cores":16,"seed":1},"at":"T"}
{"id":"id-b","hash":"hash-b","status":"accepted","spec":{"bench":"fft","cores":16,"seed":1},"at":"T"}
{"id":"id-c","hash":"hash-c","status":"failed","spec":{"bench":"water","cores":16,"seed":1},"error":"boom","at":"T"}
`
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compacted", compacted)
	// SIGKILL: no Close. The next open replays and compacts.
	st2, err := OpenJobStore(path)
	if err != nil {
		t.Fatal(err)
	}
	check("reopened", compacted)
	if got := st2.Pending(); got != 1 {
		t.Errorf("Pending = %d, want 1", got)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	check("closed", compacted)

	// A settle keeps the acceptance stamp, so ledger order stays
	// submission order: hash-z was accepted first and sorts first.
	const fixture = `{"id":"z","hash":"hash-z","status":"accepted","spec":{"bench":"radix","cores":16},"at":"2024-05-01T10:00:00Z"}
not a ledger line

{"id":"k","status":"accepted","spec":{"bench":"fft"},"at":"2024-05-01T10:00:01Z"}
{"id":"y","hash":"hash-y","status":"accepted","spec":{"bench":"fft","cores":16},"at":"2024-05-01T10:00:02Z"}
{"id":"z","hash":"hash-z","status":"done","spec":{"bench":"radix","cores":16},"at":"2024-05-01T10:00:00Z"}
{"id":"x","hash":"hash-x","status":"accepted","spec":{"bench":"water","cores":16},"at":"2024-05-01T10:00:02Z"}
{"id":"w","hash":"hash-w","sta`
	if err := os.WriteFile(path, []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := OpenJobStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"id":"z","hash":"hash-z","status":"done","spec":{"bench":"radix","cores":16},"at":"2024-05-01T10:00:00Z"}
{"id":"x","hash":"hash-x","status":"accepted","spec":{"bench":"water","cores":16},"at":"2024-05-01T10:00:02Z"}
{"id":"y","hash":"hash-y","status":"accepted","spec":{"bench":"fft","cores":16},"at":"2024-05-01T10:00:02Z"}
`
	if string(data) != want {
		t.Errorf("fixture after open:\n got:\n%swant:\n%s", data, want)
	}
	var order []string
	for _, e := range st3.Entries() {
		order = append(order, e.ID+"="+e.Status)
	}
	if got := strings.Join(order, " "); got != "z=done x=accepted y=accepted" {
		t.Errorf("Entries = %s", got)
	}
	if got := st3.Pending(); got != 2 {
		t.Errorf("Pending = %d, want 2", got)
	}
}
