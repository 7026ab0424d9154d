package coherence

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/config"
)

// denseArray is the reference tag store: every set's ways allocated up
// front in one set-major slice, with the same LRU, free-way order and
// victim choice cacheArray must reproduce. It exists only as an oracle,
// so its entries keep line, state and clock in separate fields.
type denseArray struct {
	sets    int
	assoc   int
	entries []denseEntry // sets*assoc, set-major
	clock   uint64       // LRU timestamp source
}

type denseEntry struct {
	line  uint64
	state State
	lru   uint64
}

func newDenseArray(sizeBytes, lineBytes, assoc int) *denseArray {
	lines := sizeBytes / lineBytes
	if lines < 1 {
		lines = 1
	}
	if assoc > lines {
		assoc = lines
	}
	sets := lines / assoc
	if sets < 1 {
		sets = 1
	}
	return &denseArray{
		sets:    sets,
		assoc:   assoc,
		entries: make([]denseEntry, sets*assoc),
	}
}

func (c *denseArray) setOf(line uint64) int { return int(line % uint64(c.sets)) }

func (c *denseArray) lookup(line uint64) State {
	base := c.setOf(line) * c.assoc
	for i := base; i < base+c.assoc; i++ {
		e := &c.entries[i]
		if e.state != Invalid && e.line == line {
			c.clock++
			e.lru = c.clock
			return e.state
		}
	}
	return Invalid
}

func (c *denseArray) peek(line uint64) State {
	base := c.setOf(line) * c.assoc
	for i := base; i < base+c.assoc; i++ {
		e := &c.entries[i]
		if e.state != Invalid && e.line == line {
			return e.state
		}
	}
	return Invalid
}

func (c *denseArray) setState(line uint64, s State) {
	base := c.setOf(line) * c.assoc
	for i := base; i < base+c.assoc; i++ {
		e := &c.entries[i]
		if e.state != Invalid && e.line == line {
			if s == Invalid {
				e.state = Invalid
				return
			}
			e.state = s
			return
		}
	}
}

func (c *denseArray) insert(line uint64, s State) (victimLine uint64, victimState State, evicted bool) {
	base := c.setOf(line) * c.assoc
	// Already present: state change only.
	for i := base; i < base+c.assoc; i++ {
		if e := &c.entries[i]; e.state != Invalid && e.line == line {
			e.state = s
			c.clock++
			e.lru = c.clock
			return 0, Invalid, false
		}
	}
	// Free way?
	for i := base; i < base+c.assoc; i++ {
		if e := &c.entries[i]; e.state == Invalid {
			c.clock++
			*e = denseEntry{line: line, state: s, lru: c.clock}
			return 0, Invalid, false
		}
	}
	// Evict LRU.
	v := base
	for i := base + 1; i < base+c.assoc; i++ {
		if c.entries[i].lru < c.entries[v].lru {
			v = i
		}
	}
	victimLine, victimState = c.entries[v].line, c.entries[v].state
	c.clock++
	c.entries[v] = denseEntry{line: line, state: s, lru: c.clock}
	return victimLine, victimState, true
}

func (c *denseArray) invalidate(line uint64) { c.setState(line, Invalid) }

// eachLine calls f for every valid line held in c's blocks.
func (c *cacheArray) eachLine(f func(line uint64, s State)) {
	for _, chunk := range c.chunks {
		for _, e := range chunk {
			if e.state() != Invalid {
				f(e.line(), e.state())
			}
		}
	}
}

// cacheOp is one tag-store operation of a replayed stream.
type cacheOp struct {
	kind  int // 0 lookup, 1 peek, 2 insert, 3 setState, 4 invalidate
	line  uint64
	state State
}

// replayCacheOps drives a cacheArray and the dense oracle of one geometry
// with the same op stream and fails at the first return value (victims
// included) that differs; at the end every line of the stream's line space
// must hold the same state in both, and each set's valid lines, read
// front to back, must be the dense set's valid lines by descending
// timestamp.
func replayCacheOps(t *testing.T, sizeBytes, lineBytes, assoc int, space uint64, ops []cacheOp) {
	t.Helper()
	c, d := newCacheArray(sizeBytes, lineBytes, assoc), newDenseArray(sizeBytes, lineBytes, assoc)
	if c.sets != d.sets || c.assoc != d.assoc {
		t.Fatalf("geometry %d sets x %d ways, dense %d x %d", c.sets, c.assoc, d.sets, d.assoc)
	}
	for i, op := range ops {
		switch op.kind {
		case 0:
			if got, want := c.lookup(op.line), d.lookup(op.line); got != want {
				t.Fatalf("op %d: lookup(%d) = %v, dense %v", i, op.line, got, want)
			}
		case 1:
			if got, want := c.peek(op.line), d.peek(op.line); got != want {
				t.Fatalf("op %d: peek(%d) = %v, dense %v", i, op.line, got, want)
			}
		case 2:
			gl, gs, ge := c.insert(op.line, op.state)
			wl, ws, we := d.insert(op.line, op.state)
			if gl != wl || gs != ws || ge != we {
				t.Fatalf("op %d: insert(%d, %v) = (%d, %v, %v), dense (%d, %v, %v)",
					i, op.line, op.state, gl, gs, ge, wl, ws, we)
			}
		case 3:
			c.setState(op.line, op.state)
			d.setState(op.line, op.state)
		case 4:
			c.invalidate(op.line)
			d.invalidate(op.line)
		}
	}
	for line := uint64(0); line < space; line++ {
		if got, want := c.peek(line), d.peek(line); got != want {
			t.Fatalf("after %d ops: line %d is %v, dense %v", len(ops), line, got, want)
		}
	}
	for set := 0; set < d.sets; set++ {
		dense := make([]denseEntry, 0, d.assoc)
		for _, de := range d.entries[set*d.assoc : (set+1)*d.assoc] {
			if de.state != Invalid {
				dense = append(dense, de)
			}
		}
		sort.Slice(dense, func(i, j int) bool { return dense[i].lru > dense[j].lru })
		var got []denseEntry
		if s := c.slot[set]; s != 0 {
			for _, e := range c.block(s) {
				if e.state() != Invalid {
					got = append(got, denseEntry{line: e.line(), state: e.state()})
				}
			}
		}
		if len(got) != len(dense) {
			t.Fatalf("after %d ops: set %d holds %d valid lines, dense %d", len(ops), set, len(got), len(dense))
		}
		for w, de := range dense {
			if got[w].line != de.line || got[w].state != de.state {
				t.Fatalf("after %d ops: set %d recency rank %d holds line %d %v, dense line %d %v",
					len(ops), set, w, got[w].line, got[w].state, de.line, de.state)
			}
		}
	}
}

// TestCacheArrayMatchesDense replays seeded random op streams over a line
// space four times each geometry's capacity: one set, direct-mapped, an
// associativity wider than the cache, and the paper's L1-D and L2.
func TestCacheArrayMatchesDense(t *testing.T) {
	def := config.Default().Caches
	geoms := []struct {
		name                        string
		sizeBytes, lineBytes, assoc int
	}{
		{"one set", 4 * 64, 64, 4},
		{"assoc 1", 16 * 64, 64, 1},
		{"assoc > lines", 2 * 64, 64, 8},
		{"L1-D", def.L1DKB * 1024, def.LineBytes, def.L1Assoc},
		{"L2", def.L2KB * 1024, def.LineBytes, def.L2Assoc},
	}
	for _, g := range geoms {
		t.Run(g.name, func(t *testing.T) {
			lines := g.sizeBytes / g.lineBytes
			space := uint64(4 * lines)
			rng := rand.New(rand.NewSource(int64(lines)))
			ops := make([]cacheOp, 20*lines+200)
			for i := range ops {
				ops[i] = cacheOp{kind: rng.Intn(5), line: uint64(rng.Int63n(int64(space))), state: State(1 + rng.Intn(2))}
				if ops[i].kind == 3 && rng.Intn(3) == 0 {
					ops[i].state = Invalid
				}
			}
			replayCacheOps(t, g.sizeBytes, g.lineBytes, g.assoc, space, ops)
		})
	}
}

// FuzzCacheArray lets the fuzzer pick the geometry (first two bytes: size
// in 32-byte units and associativity) and the op stream (three bytes per
// op: kind and state, then a line in a space four times the capacity).
func FuzzCacheArray(f *testing.F) {
	f.Add([]byte{8, 2, 2, 0, 1, 2, 0, 3, 12, 0, 5, 0, 0, 1, 0, 7, 0, 0})
	f.Add([]byte{0, 0, 2, 0, 0, 7, 0, 1, 0, 0, 0})
	f.Add([]byte{64, 3, 2, 4, 0, 12, 4, 0, 3, 4, 0, 2, 9, 0, 4, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		sizeBytes, assoc := int(data[0])*32, 1+int(data[1]%16)
		d := newDenseArray(sizeBytes, 64, assoc)
		space := uint64(4 * d.sets * d.assoc)
		var ops []cacheOp
		for b := data[2:]; len(b) >= 3; b = b[3:] {
			ops = append(ops, cacheOp{
				kind:  int(b[0] % 5),
				state: State(b[0] / 5 % 3),
				line:  uint64(binary.LittleEndian.Uint16(b[1:])) % space,
			})
		}
		replayCacheOps(t, sizeBytes, 64, assoc, space, ops)
	})
}
