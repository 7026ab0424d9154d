package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestNilRingNoops(t *testing.T) {
	var r *Ring
	r.Record(1, "x", "event %d", 1) // must not panic
	if r.Total() != 0 || r.Entries() != nil {
		t.Fatal("nil ring retained data")
	}
}

func TestRecordAndOrder(t *testing.T) {
	r := New(4)
	for i := 0; i < 3; i++ {
		r.Record(sim.Time(i), "a", "e%d", i)
	}
	es := r.Entries()
	if len(es) != 3 {
		t.Fatalf("entries %d", len(es))
	}
	for i, e := range es {
		if e.At != sim.Time(i) {
			t.Errorf("entry %d at %d", i, e.At)
		}
	}
}

func TestRingWrap(t *testing.T) {
	r := New(3)
	for i := 0; i < 7; i++ {
		r.Record(sim.Time(i), "a", "e%d", i)
	}
	es := r.Entries()
	if len(es) != 3 {
		t.Fatalf("entries %d", len(es))
	}
	// Most recent three, chronological: 4, 5, 6.
	for i, want := range []sim.Time{4, 5, 6} {
		if es[i].At != want {
			t.Errorf("entry %d at %d, want %d", i, es[i].At, want)
		}
	}
	if r.Total() != 7 {
		t.Errorf("Total = %d", r.Total())
	}
}

func TestDump(t *testing.T) {
	r := New(2)
	r.Record(42, "dir", "ShReq line=%#x", 0x1000)
	s := r.Dump()
	if !strings.Contains(s, "42") || !strings.Contains(s, "[dir]") || !strings.Contains(s, "0x1000") {
		t.Errorf("dump: %q", s)
	}
}

func TestNewMinimumCapacity(t *testing.T) {
	r := New(0)
	r.Record(1, "a", "x")
	r.Record(2, "a", "y")
	if len(r.Entries()) != 1 {
		t.Fatal("capacity floor broken")
	}
}
