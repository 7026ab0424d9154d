package coherence

// cacheArray is a set-associative tag array with LRU replacement. It
// tracks per-line coherence state but no data (see the package comment).
//
// Each set keeps its ways most-recent-first: a lookup hit and every
// insert move their way to the front, shifting the ways ahead of it back
// one, while peek, setState and invalidate leave the order alone. A set's
// valid lines are therefore always in recency order, which is all LRU
// needs: the victim is the last way, since eviction is reached only when
// every way is valid.
//
// A set's ways are allocated the first time the set is filled, so tag
// memory grows with the sets a run touches, not with the cache's capacity
// (a 1024-core radix run fills under a tenth of its L2 sets). slot maps a
// set to its block of assoc entries; blocks are carved in order from
// fixed-size chunks and never freed. Neither slot nor a chunk holds a
// pointer, so the garbage collector never scans them.
type cacheArray struct {
	sets   int
	assoc  int
	slot   []int32        // per set: 0 if never filled, else 1 + its block number
	chunks [][]cacheEntry // block b is chunks[b/chunkSets], entries (b%chunkSets)*assoc onward
	blocks int            // blocks handed out
}

// chunkSets is how many sets' blocks one chunk holds: large enough that a
// run's chunks are few, small enough that the partly used last chunk
// wastes little. Chunks are allocated whole rather than grown, so a block
// never moves.
const chunkSets = 16

// cacheEntry is one way: 8 bytes. The state sits in the top two bits of
// tag, the line number below it; config requires LineBytes to be a
// positive multiple of 8, so a line number is below 2^61 and never reaches
// the state bits. An Invalid entry keeps its line, as a free way.
type cacheEntry struct {
	tag uint64 // state<<stateShift | line
}

const (
	stateShift = 62
	lineMask   = 1<<stateShift - 1
)

func packTag(line uint64, s State) uint64 { return uint64(s)<<stateShift | line }

func (e *cacheEntry) line() uint64 { return e.tag & lineMask }
func (e *cacheEntry) state() State { return State(e.tag >> stateShift) }

// holds reports whether the entry is a valid copy of line.
func (e *cacheEntry) holds(line uint64) bool {
	return e.tag>>stateShift != uint64(Invalid) && e.tag&lineMask == line
}

// newCacheArray builds an array covering sizeBytes with the given line
// size and associativity. Geometry is validated by config; a too-small
// cache degrades to one set.
func newCacheArray(sizeBytes, lineBytes, assoc int) *cacheArray {
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
	return &cacheArray{
		sets:  sets,
		assoc: assoc,
		slot:  make([]int32, sets),
	}
}

func (c *cacheArray) setOf(line uint64) int { return int(line % uint64(c.sets)) }

// block returns the ways of the block a non-zero slot value names.
func (c *cacheArray) block(slot int32) []cacheEntry {
	b := uint(slot - 1)
	off := b % chunkSets * uint(c.assoc)
	return c.chunks[b/chunkSets][off : off+uint(c.assoc)]
}

// ways returns the line's set, or nil if the set has never been filled.
func (c *cacheArray) ways(line uint64) []cacheEntry {
	s := c.slot[c.setOf(line)]
	if s == 0 {
		return nil
	}
	return c.block(s)
}

// toFront moves way i to the front of its set, shifting the ways ahead of
// it back one, and stores tag there.
func toFront(ways []cacheEntry, i int, tag uint64) {
	copy(ways[1:i+1], ways[:i])
	ways[0] = cacheEntry{tag: tag}
}

// lookup returns the line's state (Invalid if absent) and makes a hit the
// set's most recent way.
func (c *cacheArray) lookup(line uint64) State {
	ways := c.ways(line)
	for i := range ways {
		if e := ways[i]; e.holds(line) {
			toFront(ways, i, e.tag)
			return e.state()
		}
	}
	return Invalid
}

// peek returns the state without touching the recency order.
func (c *cacheArray) peek(line uint64) State {
	ways := c.ways(line)
	for i := range ways {
		e := &ways[i]
		if e.holds(line) {
			return e.state()
		}
	}
	return Invalid
}

// setState transitions an existing line; it is a no-op if absent.
func (c *cacheArray) setState(line uint64, s State) {
	ways := c.ways(line)
	for i := range ways {
		e := &ways[i]
		if e.holds(line) {
			e.tag = packTag(line, s)
			return
		}
	}
}

// insert places a line in the given state, returning the victim that had
// to be evicted (evicted==false if a free way existed). The caller handles
// victim write-back / directory notification.
func (c *cacheArray) insert(line uint64, s State) (victimLine uint64, victimState State, evicted bool) {
	set := c.setOf(line)
	if c.slot[set] == 0 {
		c.slot[set] = c.newBlock()
	}
	ways := c.block(c.slot[set])
	tag := packTag(line, s)
	// Already present: state change only.
	for i := range ways {
		if ways[i].holds(line) {
			toFront(ways, i, tag)
			return 0, Invalid, false
		}
	}
	// Free way?
	for i := range ways {
		if ways[i].state() == Invalid {
			toFront(ways, i, tag)
			return 0, Invalid, false
		}
	}
	// Evict LRU: every way is valid, the last is the least recent.
	v := &ways[len(ways)-1]
	victimLine, victimState = v.line(), v.state()
	toFront(ways, len(ways)-1, tag)
	return victimLine, victimState, true
}

// newBlock hands out the next free block as a slot value, starting a
// chunk when the last one is full. A chunk never holds more blocks than
// there are sets left to fill, so a cache whose every set fills costs the
// dense array plus its slot index.
func (c *cacheArray) newBlock() int32 {
	if c.blocks%chunkSets == 0 {
		c.chunks = append(c.chunks, make([]cacheEntry, min(chunkSets, c.sets-c.blocks)*c.assoc))
	}
	c.blocks++
	return int32(c.blocks)
}

// invalidate removes a line (no-op if absent).
func (c *cacheArray) invalidate(line uint64) { c.setState(line, Invalid) }
