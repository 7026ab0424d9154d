package stats

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistBasics(t *testing.T) {
	var h Hist
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatal("zero histogram not empty")
	}
	for i := uint64(1); i <= 100; i++ {
		h.Add(i)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if got := h.Mean(); got != 50.5 {
		t.Errorf("Mean = %v, want 50.5", got)
	}
	if got := h.Percentile(50); got != 50 {
		t.Errorf("p50 = %d, want 50", got)
	}
	if got := h.Percentile(100); got != 100 {
		t.Errorf("p100 = %d, want 100", got)
	}
	if h.Max() != 100 {
		t.Errorf("Max = %d", h.Max())
	}
}

// TestHistString: the one-line summary formats through fmt as a Stringer.
func TestHistString(t *testing.T) {
	var h Hist
	for i := uint64(1); i <= 100; i++ {
		h.Add(i)
	}
	h.Add(1000) // an octave bucket: p99 stays exact, max is the sample
	want := "n=101 mean=59.90 p50=51 p95=96 p99=100 max=1000"
	if got := fmt.Sprint(&h); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestHistExactInLinearRegion(t *testing.T) {
	// Percentiles in the linear region must match a sorted reference.
	rng := rand.New(rand.NewSource(1))
	var h Hist
	var ref []uint64
	for i := 0; i < 5000; i++ {
		v := uint64(rng.Intn(250))
		h.Add(v)
		ref = append(ref, v)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	for _, p := range []float64{10, 25, 50, 75, 90, 99} {
		want := ref[int(p/100*float64(len(ref)))-0]
		// Allow the ceil-index convention one position of slack.
		got := h.Percentile(p)
		lo := ref[max(0, int(p/100*float64(len(ref)))-2)]
		if got < lo || got > want+1 {
			t.Errorf("p%v = %d, reference %d", p, got, want)
		}
	}
}

func TestHistOctaveBuckets(t *testing.T) {
	var h Hist
	h.Add(10000) // far above the linear region
	h.Add(1)
	if h.Max() != 10000 {
		t.Errorf("Max = %d", h.Max())
	}
	// p100 must not exceed the true max.
	if got := h.Percentile(100); got > 10000 {
		t.Errorf("p100 = %d exceeds max", got)
	}
	if h.Percentile(10) != 1 {
		t.Errorf("p10 = %d, want 1", h.Percentile(10))
	}
}

// Property: percentiles are monotone in p and bounded by max.
func TestHistPercentileMonotone(t *testing.T) {
	f := func(vals []uint16) bool {
		var h Hist
		for _, v := range vals {
			h.Add(uint64(v))
		}
		prev := uint64(0)
		for p := 0.0; p <= 100; p += 5 {
			v := h.Percentile(p)
			if v < prev || v > h.Max() && h.Count() > 0 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHeatmap(t *testing.T) {
	h := NewHeatmap(4)
	h.Add(1, 2, 5)
	h.Add(1, 2, 3)
	h.Add(3, 3, 1)
	if h.At(1, 2) != 8 {
		t.Errorf("At(1,2) = %d", h.At(1, 2))
	}
	if h.Total() != 9 {
		t.Errorf("Total = %d", h.Total())
	}
	x, y, v := h.Hottest()
	if x != 1 || y != 2 || v != 8 {
		t.Errorf("Hottest = (%d,%d,%d)", x, y, v)
	}
	r := h.Render()
	if len(r) != 4*5 { // 4 rows of 4 chars + newline
		t.Errorf("render size %d", len(r))
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
