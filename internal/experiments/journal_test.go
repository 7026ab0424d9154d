package experiments

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// running is the record Runner.record appends when an attempt starts.
func running(hash, key string, attempt int) JournalEntry {
	return JournalEntry{Hash: hash, Key: key, Status: StatusRunning, Attempt: attempt}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalFileName)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.append(running("h1", "k1", 1))
	j.Done("h1", "k1", 1, 1500*time.Millisecond)
	j.append(running("h2", "k2", 1))
	j.append(JournalEntry{Hash: "h2", Key: "k2", Status: StatusFailed, Attempt: 2, WallMS: 1000, Error: "watchdog stall"})
	j.append(running("h3", "k3", 1)) // interrupted: no terminal record
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Len(); got != 3 {
		t.Fatalf("replayed %d runs, want 3", got)
	}
	e1, ok := j2.Lookup("h1")
	if !ok || e1.Status != StatusDone || e1.Attempt != 1 || e1.WallMS != 1500 {
		t.Fatalf("h1 = %+v", e1)
	}
	e2, ok := j2.Lookup("h2")
	if !ok || e2.Status != StatusFailed || e2.Attempt != 2 || !strings.Contains(e2.Error, "watchdog") {
		t.Fatalf("h2 = %+v", e2)
	}
	e3, ok := j2.Lookup("h3")
	if !ok || e3.Status != StatusRunning {
		t.Fatalf("h3 = %+v (an interrupted run must replay as running)", e3)
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalFileName)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Done("h1", "k1", 1, 0)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, unterminated JSON fragment.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"hash":"h2","key":"k2","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail broke replay: %v", err)
	}
	defer j2.Close()
	if got := j2.Len(); got != 1 {
		t.Fatalf("replayed %d runs, want 1 (torn record skipped)", got)
	}
	if _, ok := j2.Lookup("h2"); ok {
		t.Fatal("torn record replayed as a real entry")
	}
	// Appending after replay must still work and produce a parsable file.
	j2.Done("h3", "k3", 1, 0)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if _, ok := j3.Lookup("h3"); !ok || j3.Len() != 2 {
		t.Fatalf("post-tear append lost: len=%d", j3.Len())
	}
}

func TestJournalCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalFileName)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Three transitions for one run; compaction must fold them to one line.
	j.append(running("h1", "k1", 1))
	j.append(running("h1", "k1", 2))
	j.Done("h1", "k1", 2, 0)
	j.append(running("h2", "k2", 1))
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("compacted journal has %d lines, want 2:\n%s", len(lines), data)
	}
	// The append handle must survive compaction.
	j.Done("h2", "k2", 1, 0)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	e, ok := j2.Lookup("h2")
	if !ok || e.Status != StatusDone {
		t.Fatalf("h2 after compact+append = %+v", e)
	}
}

// normAt replaces every record's wall-clock stamp, the only bytes of a
// journal that differ between two runs of the same script.
func normAt(data []byte) string { return atStamp.ReplaceAllString(string(data), `"at":"T"`) }

var atStamp = regexp.MustCompile(`"at":"[^"]*"`)

// TestJournalFormat pins journal.jsonl byte for byte: old cache
// directories, the smokes' greps and the bench probes read this format.
// One scripted transition sequence is compared raw and after Compact, and
// a hand-written file holding every kind of line replay must survive — a
// foreign line, a keyless record, superseded records, a blank line and a
// torn tail — is replayed.
func TestJournalFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalFileName)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.append(running("h1", "k1", 1))
	j.Done("h1", "k1", 1, 1500*time.Millisecond)
	j.append(running("h2", "k2", 1))
	j.append(JournalEntry{Hash: "h2", Key: "k2", Status: StatusFailed, Attempt: 2, WallMS: 1000, Error: "watchdog stall"})
	j.append(running("h0", "k3", 1))
	const raw = `{"hash":"h1","key":"k1","status":"running","attempt":1,"at":"T"}
{"hash":"h1","key":"k1","status":"done","attempt":1,"wall_ms":1500,"at":"T"}
{"hash":"h2","key":"k2","status":"running","attempt":1,"at":"T"}
{"hash":"h2","key":"k2","status":"failed","attempt":2,"wall_ms":1000,"error":"watchdog stall","at":"T"}
{"hash":"h0","key":"k3","status":"running","attempt":1,"at":"T"}
`
	const compacted = `{"hash":"h1","key":"k1","status":"done","attempt":1,"wall_ms":1500,"at":"T"}
{"hash":"h2","key":"k2","status":"failed","attempt":2,"wall_ms":1000,"error":"watchdog stall","at":"T"}
{"hash":"h0","key":"k3","status":"running","attempt":1,"at":"T"}
`
	check := func(when, want string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := normAt(data); got != want {
			t.Errorf("%s:\n got:\n%swant:\n%s", when, got, want)
		}
	}
	check("appended", raw)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compacted", compacted)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	check("closed", compacted)

	const fixture = `{"hash":"h1","key":"k1","status":"running","attempt":1,"at":"2024-05-01T10:00:00Z"}
not a journal line

{"key":"nohash","status":"done","attempt":1,"at":"2024-05-01T10:00:01Z"}
{"hash":"h2","key":"k2","status":"running","attempt":1,"at":"2024-05-01T10:00:02Z"}
{"hash":"h1","key":"k1","status":"done","attempt":1,"wall_ms":12.5,"at":"2024-05-01T10:00:03Z"}
{"hash":"h2","key":"k2","status":"running","attempt":2,"at":"2024-05-01T10:00:04Z"}
{"hash":"h2","key":"k2","status":"failed","attempt":2,"wall_ms":3,"error":"boom","at":"2024-05-01T10:00:05Z"}
{"hash":"h3","key":"k3","sta`
	if err := os.WriteFile(path, []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 2 {
		t.Errorf("replayed %d runs, want 2", j2.Len())
	}
	want1 := JournalEntry{Hash: "h1", Key: "k1", Status: StatusDone, Attempt: 1, WallMS: 12.5, At: "2024-05-01T10:00:03Z"}
	want2 := JournalEntry{Hash: "h2", Key: "k2", Status: StatusFailed, Attempt: 2, WallMS: 3, Error: "boom", At: "2024-05-01T10:00:05Z"}
	if e, ok := j2.Lookup("h1"); !ok || e != want1 {
		t.Errorf("h1 = %+v, %v; want %+v", e, ok, want1)
	}
	if e, ok := j2.Lookup("h2"); !ok || e != want2 {
		t.Errorf("h2 = %+v, %v; want %+v", e, ok, want2)
	}
	if _, ok := j2.Lookup(""); ok {
		t.Error("the keyless record replayed")
	}
	// Opening does not rewrite the journal; closing compacts it.
	check("reopened", normAt([]byte(fixture)))
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	check("fixture compacted", `{"hash":"h1","key":"k1","status":"done","attempt":1,"wall_ms":12.5,"at":"T"}
{"hash":"h2","key":"k2","status":"failed","attempt":2,"wall_ms":3,"error":"boom","at":"T"}
`)
}

// TestJournalCompactTotalOrder: runs that share a key and differ in hash —
// one cache directory, several -scale or horizon values — compact in hash
// order, so the same state always compacts to the same bytes. (Compact
// used to sort on the key alone, leaving ties in map-iteration order.)
func TestJournalCompactTotalOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalFileName)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, h := range []string{"h7", "h2", "h5", "h0", "h6", "h1", "h4", "h3"} {
		j.Done(h, "radix/ATAC+", 1, 0)
	}
	j.Done("hz", "fft/ATAC+", 1, 0)
	var first string
	for i := 0; i < 4; i++ {
		if err := j.Compact(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = string(data)
		} else if string(data) != first {
			t.Fatalf("compaction %d differs from the first:\n%s\nvs\n%s", i, data, first)
		}
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(first), "\n") {
		got = append(got, line[len(`{"hash":"`):len(`{"hash":"h0`)])
	}
	if want := "hz h0 h1 h2 h3 h4 h5 h6 h7"; strings.Join(got, " ") != want {
		t.Errorf("compacted order %v, want %s", got, want)
	}
}
