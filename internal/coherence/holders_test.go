package coherence

import (
	"fmt"
	"testing"

	"repro/internal/config"
)

// checkHolders is the holder mask's oracle: a clear bit must mean its core
// holds no L2 copy of the line, has no eviction of it in flight and keeps
// no record of an acknowledged one; and each group's memo must agree with
// its map.
func checkHolders(s *System) error {
	for _, c := range s.ctrls {
		var err error
		mustHold := func(line uint64, why string) {
			if err == nil && c.grp.masks[line]&c.bit == 0 {
				err = fmt.Errorf("core %d: holder bit clear for line %#x, which it %s", c.id, line, why)
			}
		}
		c.l2.eachLine(func(line uint64, st State) { mustHold(line, "holds "+st.String()) })
		for line := range c.evicting {
			mustHold(line, "is evicting")
		}
		for line := range c.evictedAt {
			mustHold(line, "has an eviction record for")
		}
		if err != nil {
			return err
		}
		if g := c.grp; g.memoMask != g.masks[g.memoLine] {
			return fmt.Errorf("core %d: memo says line %#x has holders %#x, map says %#x",
				c.id, g.memoLine, g.memoMask, g.masks[g.memoLine])
		}
	}
	return nil
}

// TestHolderMaskOracle checks the holder mask against checkHolders before
// every kernel event (and after the last) of 16-core random-stress runs on
// the ATAC+ fabric, whose distance routing reorders broadcasts against
// unicasts, under ACKwise and under DirKB with one sharer pointer (every
// second sharer overflows into a broadcast) and 1 KB caches. Few lines
// keep broadcasts racing requests (ACKwise buffers some); many make the
// caches evict while broadcasts for the victims are in flight.
func TestHolderMaskOracle(t *testing.T) {
	type total struct{ bcasts, evictions, buffered uint64 }
	totals := map[config.CoherenceKind]*total{config.ACKwise: {}, config.DirKB: {}}
	for _, tc := range []struct {
		kind  config.CoherenceKind
		lines int
		seed  int64
	}{
		{config.ACKwise, 32, 11},
		{config.ACKwise, 128, 12},
		{config.DirKB, 32, 11},
		{config.DirKB, 128, 12},
	} {
		t.Run(fmt.Sprintf("%v/%dlines", tc.kind, tc.lines), func(t *testing.T) {
			k, s := atacFixture(t, func(c *config.Config) {
				c.Coherence.Kind = tc.kind
				c.Coherence.Sharers = 1
				c.Caches.L1DKB = 1
				c.Caches.L2KB = 1
			})
			var bad error
			k.SetPoll(1, func() error {
				if bad == nil {
					bad = checkHolders(s)
				}
				return nil
			})
			randomStress(t, k, s, tc.seed, 60, tc.lines)
			st, tot := s.Stats(), totals[tc.kind]
			tot.bcasts += st.InvBroadcasts
			tot.evictions += st.EvictionsS + st.EvictionsM
			tot.buffered += st.ReorderBufferedBcast
			if bad == nil {
				bad = checkHolders(s)
			}
			if bad != nil {
				t.Fatal(bad)
			}
		})
	}
	for kind, tot := range totals {
		if tot.bcasts == 0 || tot.evictions == 0 || kind == config.ACKwise && tot.buffered == 0 {
			t.Errorf("%v: %d broadcasts, %d evictions, %d broadcasts buffered: the runs raced too little",
				kind, tot.bcasts, tot.evictions, tot.buffered)
		}
	}
}
