package recordlog_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/recordlog"
	"repro/internal/serve"
)

type rec struct {
	K string `json:"k"`
	V int    `json:"v"`
}

func recKey(r rec) string { return r.K }
func byKey(a, b rec) bool { return a.K < b.K }
func read(t *testing.T, p string) string {
	t.Helper()
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestLongLineSkipped: a line longer than any scanner buffer, sitting
// between two intact records, costs that line only. Both wrappers used to
// fail the whole open with "bufio.Scanner: token too long" (the ledger's
// failure is fatal to atacd), although both promised to skip foreign lines.
func TestLongLineSkipped(t *testing.T) {
	long := strings.Repeat("x", 5<<20)
	for _, tc := range []struct {
		name, want    string
		first, second string
		open          func(path string) (got string, err error)
	}{
		{"journal", "2 done failed",
			`{"hash":"h1","key":"k1","status":"done","attempt":1,"at":"2024-05-01T10:00:00Z"}`,
			`{"hash":"h2","key":"k2","status":"failed","attempt":2,"error":"boom","at":"2024-05-01T10:00:01Z"}`,
			func(path string) (string, error) {
				j, err := experiments.OpenJournal(path)
				if err != nil {
					return "", err
				}
				defer j.Close()
				e1, _ := j.Lookup("h1")
				e2, _ := j.Lookup("h2")
				return fmt.Sprintf("%d %s %s", j.Len(), e1.Status, e2.Status), nil
			}},
		{"ledger", "2 done accepted",
			`{"id":"a","hash":"h1","status":"done","spec":{"bench":"radix"},"at":"2024-05-01T10:00:00Z"}`,
			`{"id":"b","hash":"h2","status":"accepted","spec":{"bench":"fft"},"at":"2024-05-01T10:00:01Z"}`,
			func(path string) (string, error) {
				s, err := serve.OpenJobStore(path)
				if err != nil {
					return "", err
				}
				defer s.Close()
				es := s.Entries()
				if len(es) != 2 {
					return fmt.Sprintf("%d entries", len(es)), nil
				}
				return fmt.Sprintf("%d %s %s", len(es), es[0].Status, es[1].Status), nil
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			body := tc.first + "\n" + long + "\n" + tc.second + "\n"
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := tc.open(path)
			if err != nil {
				t.Fatalf("a long line failed the open: %v", err)
			}
			if got != tc.want {
				t.Errorf("replayed %q, want %q", got, tc.want)
			}
		})
	}
}

// TestAppendFailureLeavesStateAlone: a write that did not reach the file is
// not in Get/Len/Snapshot either, and the log heals — handle reopened, next
// append lands — once the path is usable again, without a reopen by the
// caller. (The journal used to advance its map regardless and never
// reopened a lost handle.)
func TestAppendFailureLeavesStateAlone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := recordlog.Open(path, recKey)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(rec{"a", 1}); err != nil {
		t.Fatal(err)
	}
	// A directory at the path defeats O_APPEND even for root.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if l.Writable() == nil {
		t.Fatal("Writable with a directory at the path")
	}
	if err := l.Append(rec{"b", 2}); err == nil {
		t.Fatal("Append succeeded with a directory at the path")
	}
	if _, ok := l.Get("b"); ok || l.Len() != 1 {
		t.Errorf("failed append reached the state: len %d", l.Len())
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec{"c", 3}); err != nil {
		t.Fatalf("Append after the path came back: %v", err)
	}
	if got := read(t, path); got != `{"k":"c","v":3}`+"\n" {
		t.Errorf("file after recovery: %q", got)
	}
	if got := fmt.Sprint(l.Snapshot(byKey)); got != "[{a 1} {c 3}]" {
		t.Errorf("state after recovery: %s", got)
	}
}

// TestCompact: compaction keeps the last record per key in the given order,
// twice over the same state writes the same bytes, and appends continue on
// the new file.
func TestCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := recordlog.Open(path, recKey)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []rec{{"b", 1}, {"a", 1}, {"b", 2}, {"c", 1}, {"a", 2}} {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	const want = `{"k":"a","v":2}` + "\n" + `{"k":"b","v":2}` + "\n" + `{"k":"c","v":1}` + "\n"
	for i := 0; i < 2; i++ {
		if err := l.Compact(byKey); err != nil {
			t.Fatal(err)
		}
		if got := read(t, path); got != want {
			t.Errorf("compaction %d:\n%s", i, got)
		}
	}
	if err := l.Append(rec{"d", 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := read(t, path); got != want+`{"k":"d","v":1}`+"\n" {
		t.Errorf("append after compaction:\n%s", got)
	}
	l2, err := recordlog.Open(path, recKey)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := fmt.Sprint(l2.Snapshot(byKey)); got != "[{a 2} {b 2} {c 1} {d 1}]" {
		t.Errorf("replayed %s", got)
	}
}

// TestConcurrentAppends: lines from concurrent appenders never interleave,
// with compactions and probes in between (run under -race in CI).
func TestConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := recordlog.Open(path, recKey)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append(rec{fmt.Sprintf("w%d-%d", w, i), i}); err != nil {
					t.Error(err)
				}
				switch i % 10 {
				case 3:
					if err := l.Compact(byKey); err != nil {
						t.Error(err)
					}
				case 7:
					if err := l.Writable(); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := recordlog.Open(path, recKey)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l.Len() != writers*each || l2.Len() != writers*each {
		t.Errorf("%d records live, %d replayed, want %d", l.Len(), l2.Len(), writers*each)
	}
}

func TestAtomicWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := recordlog.AtomicWriteFile(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := recordlog.AtomicWriteFile(path, []byte("v2"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "v2" {
		t.Fatalf("data=%q err=%v", data, err)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want 1", len(entries))
	}
}
