package coherence

import (
	"encoding/binary"
	"testing"
)

// pageCount is how many pages v holds.
func (v *ValueStore) pageCount() int { return len(v.pages) }

// TestValueStoreAbsentRead: a word never written reads as 0 without
// allocating or creating a page, in and beside a written page.
func TestValueStoreAbsentRead(t *testing.T) {
	v := NewValueStore()
	if n := testing.AllocsPerRun(100, func() {
		if v.Read(0x12345678) != 0 {
			t.Fatal("absent word not zero")
		}
	}); n != 0 || v.pageCount() != 0 {
		t.Errorf("absent read made %v allocations, %d pages", n, v.pageCount())
	}
	v.Write(pageWords*8-8, 3) // last word of page 0
	if v.Read(pageWords*8) != 0 || v.Read(0) != 0 || v.pageCount() != 1 {
		t.Errorf("neighbours of a page edge: %d, %d in %d pages", v.Read(pageWords*8), v.Read(0), v.pageCount())
	}
}

// FuzzValueStore replays a Read/Write stream against a map oracle. Each op
// is 4 bytes: the kind (low bit: read or write; next two bits: a sparse
// address anywhere in 2^32 words, a dense one in four pages, or one at a
// page edge), a 16-bit address operand and a value byte.
func FuzzValueStore(f *testing.F) {
	f.Add([]byte{1, 0, 0, 7, 0, 0, 0, 0, 3, 255, 1, 9, 2, 255, 1, 0})
	f.Add([]byte{5, 4, 0, 1, 7, 4, 0, 2, 4, 4, 0, 0, 6, 4, 0, 0, 1, 1, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		v := NewValueStore()
		oracle := make(map[uint64]uint64)
		for b := data; len(b) >= 4; b = b[4:] {
			x := uint64(binary.LittleEndian.Uint16(b[1:]))
			var w uint64
			switch (b[0] >> 1) % 4 {
			case 0: // sparse
				w = x * 0x10001
			case 1: // dense
				w = x % (4 * pageWords)
			default: // page edge: a page's first or last word
				w = x/2*pageWords + x%2*(pageWords-1)
			}
			addr := w<<3 | uint64(b[3]%8) // any byte of the word
			if b[0]&1 == 0 {
				if got, want := v.Read(addr), oracle[w]; got != want {
					t.Fatalf("Read(%#x) = %d, want %d", addr, got, want)
				}
				continue
			}
			val := uint64(b[3])<<56 | x
			v.Write(addr, val)
			oracle[w] = val
		}
		for w, want := range oracle {
			if got := v.Read(w << 3); got != want {
				t.Fatalf("end: word %d = %d, want %d", w, got, want)
			}
		}
		pages := make(map[uint64]bool)
		for w := range oracle {
			pages[w/pageWords] = true
		}
		if v.pageCount() != len(pages) {
			t.Fatalf("%d pages for %d written pages", v.pageCount(), len(pages))
		}
	})
}
