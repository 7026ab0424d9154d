package metrics

import (
	"fmt"
	"math/bits"
)

// HistBuckets is the fixed bucket count of Histogram. Buckets are
// power-of-two wide, so 20 of them span latencies from 0 up to 2^19
// cycles — beyond any delivery latency a healthy network produces — in a
// flat array with no allocation and no configuration.
const HistBuckets = 20

// Histogram is a small fixed-bucket histogram for hot-path observations
// (flit/message latencies). Bucket i counts values v with bits.Len64(v)
// == i, i.e. v in [2^(i-1), 2^i); bucket 0 counts zeros and the last
// bucket absorbs everything at or beyond 2^(HistBuckets-2).
//
// Observe through a nil *Histogram is a no-op, so an unobserved network
// pays one nil check per delivery and allocates nothing.
type Histogram struct {
	Counts [HistBuckets]uint64
}

// Observe records one value. Safe (and free) on a nil receiver. Every
// shard of a partitioned simulation feeds the same histogram; the counts
// do not depend on the order of the increments.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	b := bits.Len64(v)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.Counts[b]++
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// BucketBounds returns bucket i's half-open value range [lo, hi).
func BucketBounds(i int) (lo, hi uint64) {
	switch {
	case i <= 0:
		return 0, 1
	case i >= HistBuckets-1:
		return 1 << (HistBuckets - 2), ^uint64(0)
	default:
		return 1 << (i - 1), 1 << i
	}
}

// BucketLabel returns a compact column label for bucket i ("le4" = values
// below 4; the last bucket is open-ended, "inf").
func BucketLabel(i int) string {
	if i >= HistBuckets-1 {
		return "inf"
	}
	_, hi := BucketBounds(i)
	return fmt.Sprintf("le%d", hi)
}
