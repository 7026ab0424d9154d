package coherence

// holderGroup is the holder mask of one group of at most 64 cores, in
// ClusterCoreIDs order (a cluster of up to 64 cores is one group; a wider
// one is cut into several): per line, one bit per core of the group. A bit
// is clear only if its core holds no L2 copy of the line, has no eviction
// of it in flight (evicting) and keeps no record of an acknowledged one
// (evictedAt) — exactly the cores for which a broadcast invalidation finds
// the line Invalid and does nothing but count the tag probe.
//
// The mask is exact and conservative: l2fill and the EvictAck that writes
// evictedAt set a bit; invalidateLocal and a victim eviction clear it, but
// only when neither eviction entry exists. A set bit may therefore stand
// for a core that no longer holds the line (evictedAt is never dropped),
// never the other way round.
//
// A broadcast reaches a cluster's cores one after another (the receive
// network fans it out in ClusterCoreIDs order), so the group keeps a
// one-line memo: the cluster's consecutive deliveries cost one map lookup.
// Every set and clear of the memo's line updates it too. The zero memo
// (line 0, no holders) agrees with the empty map.
type holderGroup struct {
	masks    map[uint64]uint64 // line -> holder bits; absent = 0
	memoLine uint64
	memoMask uint64
}

func newHolderGroup() *holderGroup {
	return &holderGroup{masks: make(map[uint64]uint64)}
}

// get returns line's holder bits, through the memo.
func (g *holderGroup) get(line uint64) uint64 {
	if line != g.memoLine {
		g.memoLine, g.memoMask = line, g.masks[line]
	}
	return g.memoMask
}

// set marks the cores in bits as possible holders of line.
func (g *holderGroup) set(line, bits uint64) {
	m := g.masks[line] | bits
	g.masks[line] = m
	if line == g.memoLine {
		g.memoMask = m
	}
}

// clear unmarks the cores in bits for line; a line no core may hold leaves
// the map.
func (g *holderGroup) clear(line, bits uint64) {
	m, ok := g.masks[line]
	if !ok || m&bits == 0 {
		return
	}
	if m &^= bits; m == 0 {
		delete(g.masks, line)
	} else {
		g.masks[line] = m
	}
	if line == g.memoLine {
		g.memoMask = m
	}
}
