// Package stats provides the small statistical toolkit the evaluation
// harness uses: streaming histograms with percentile queries (network
// latency distributions behind Fig 3) and a fixed-bucket heatmap used for
// spatial traffic summaries.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Hist is a streaming histogram over non-negative integer samples with
// power-of-two bucketing above a linear region: exact counts for values
// < linearMax, then one bucket per octave. Memory is O(log max). The zero
// value is an empty histogram.
type Hist struct {
	linear []uint64 // counts for 0..linearMax-1
	exp    []uint64 // octave buckets: [2^k*linearMax, 2^(k+1)*linearMax)
	count  uint64
	sum    uint64
	max    uint64
}

// linearMax bounds a Hist's exact-count region.
const linearMax = 256

// Add records one sample.
func (h *Hist) Add(v uint64) {
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if v < linearMax {
		if h.linear == nil {
			h.linear = make([]uint64, linearMax)
		}
		h.linear[v]++
		return
	}
	k := 0
	for x := v / linearMax; x > 0; x >>= 1 {
		k++
	}
	for len(h.exp) <= k {
		h.exp = append(h.exp, 0)
	}
	h.exp[k]++
}

// Count returns the number of samples.
func (h *Hist) Count() uint64 { return h.count }

// Mean returns the sample mean.
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the largest sample seen.
func (h *Hist) Max() uint64 { return h.max }

// Percentile returns an upper bound on the p-th percentile (p in [0,100]).
// Within the linear region it is exact; above it, it is the bucket's
// upper edge.
func (h *Hist) Percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	target := uint64(math.Ceil(p / 100 * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for v, c := range h.linear {
		seen += c
		if seen >= target {
			return uint64(v)
		}
	}
	for k, c := range h.exp {
		seen += c
		if seen >= target {
			edge := uint64(linearMax) << uint(k)
			if edge > h.max {
				return h.max
			}
			return edge
		}
	}
	return h.max
}

// String summarizes the distribution.
func (h *Hist) String() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%d p95=%d p99=%d max=%d",
		h.count, h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99), h.max)
}

// Heatmap is a dim x dim grid of counters used for spatial summaries
// (e.g. flit-hops per router).
type Heatmap struct {
	Dim   int
	cells []uint64
}

// NewHeatmap allocates a grid.
func NewHeatmap(dim int) *Heatmap {
	return &Heatmap{Dim: dim, cells: make([]uint64, dim*dim)}
}

// Add increments cell (x, y).
func (h *Heatmap) Add(x, y int, v uint64) { h.cells[y*h.Dim+x] += v }

// At returns cell (x, y).
func (h *Heatmap) At(x, y int) uint64 { return h.cells[y*h.Dim+x] }

// Total returns the grid sum.
func (h *Heatmap) Total() uint64 {
	var t uint64
	for _, c := range h.cells {
		t += c
	}
	return t
}

// Hottest returns the coordinates and value of the maximum cell.
func (h *Heatmap) Hottest() (x, y int, v uint64) {
	for i, c := range h.cells {
		if c > v {
			v = c
			x, y = i%h.Dim, i/h.Dim
		}
	}
	return
}

// Render draws the grid as ASCII shades (space..#) normalized to the
// hottest cell — a quick visual of traffic concentration.
func (h *Heatmap) Render() string {
	_, _, maxV := h.Hottest()
	if maxV == 0 {
		maxV = 1
	}
	shades := []byte(" .:-=+*#")
	var sb strings.Builder
	for y := 0; y < h.Dim; y++ {
		for x := 0; x < h.Dim; x++ {
			idx := int(h.At(x, y) * uint64(len(shades)-1) / maxV)
			sb.WriteByte(shades[idx])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
