package experiments

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
)

// Tests share one memoizing runner at a small 16-core scale so the whole
// figure suite stays fast.
var (
	onceRunner sync.Once
	testRunner *Runner
)

func runner() *Runner {
	onceRunner.Do(func() {
		testRunner = NewRunner(Options{Cores: 16, Scale: 1, Seed: 42})
		// Three representative applications keep the figure smoke suite
		// within the default go-test timeout: broadcast-heavy
		// (dynamic_graph), network-heavy (radix), and compute-bound
		// (lu_contig).
		testRunner.Apps = []string{"dynamic_graph", "radix", "lu_contig"}
	})
	return testRunner
}

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("non-numeric cell %q", s)
	}
	return v
}

func TestOptionsConfig(t *testing.T) {
	o := Options{Cores: 64, Scale: 1, Seed: 1}
	for _, k := range []config.NetworkKind{config.EMeshPure, config.EMeshBCast, config.ATAC, config.ATACPlus} {
		cfg := o.Config(k)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v: %v", k, err)
		}
		if cfg.Caches.DirSlices != cfg.Clusters() {
			t.Errorf("%v: slices %d != clusters %d", k, cfg.Caches.DirSlices, cfg.Clusters())
		}
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.Cores < 16 || o.Scale < 1 {
		t.Errorf("bad defaults %+v", o)
	}
}

func TestFig4RuntimeOrdering(t *testing.T) {
	tab, err := runner().Figure("4")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("Fig4 has %d rows", len(tab.Rows))
	}
	// The ATAC+ runtime advantage needs the full 1024-core geometry
	// (long-distance traffic); at this tiny test scale we assert the
	// scale-independent shape: EMesh-Pure is never better than
	// EMesh-BCast on average (broadcast serialization), and all ratios
	// are sane.
	var sumB, sumP float64
	for _, row := range tab.Rows {
		rb, rp := mustFloat(t, row[4]), mustFloat(t, row[5])
		if rb < 0.3 || rp < 0.3 {
			t.Errorf("%s: implausible runtime ratio %v/%v", row[0], rb, rp)
		}
		sumB += rb
		sumP += rp
	}
	n := float64(len(tab.Rows))
	if sumP/n < sumB/n {
		t.Errorf("EMesh-Pure avg (%.2f) should not beat EMesh-BCast avg (%.2f)", sumP/n, sumB/n)
	}
}

func TestFig5And6Shapes(t *testing.T) {
	t5, err := runner().Figure("5")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range t5.Rows {
		u, b := mustFloat(t, row[1]), mustFloat(t, row[2])
		if u < 0 || b < 0 || u+b < 99.9 || u+b > 100.1 {
			t.Errorf("%s: traffic mix %v+%v != 100%%", row[0], u, b)
		}
	}
	t6, err := runner().Figure("6")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range t6.Rows {
		if l := mustFloat(t, row[1]); l <= 0 || l > 1 {
			t.Errorf("%s: offered load %v out of range", row[0], l)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	tab, err := runner().Figure("7")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("Fig7 rows = %d, want 6", len(tab.Rows))
	}
	get := func(rowName, col string) float64 {
		for _, row := range tab.Rows {
			if row[0] == rowName {
				for i, c := range tab.Columns {
					if c == col {
						return mustFloat(t, row[i])
					}
				}
			}
		}
		t.Fatalf("cell %s/%s not found", rowName, col)
		return 0
	}
	// Ideal is the normalization basis.
	if v := get("ATAC+(Ideal)", "total"); v < 0.99 || v > 1.01 {
		t.Errorf("Ideal total = %v, want 1", v)
	}
	// ATAC+ ~= Ideal; Cons has the largest laser; RingTuned/Cons carry
	// ring tuning energy.
	if v := get("ATAC+", "total"); v > 1.5 {
		t.Errorf("ATAC+ total %v should be close to Ideal", v)
	}
	if get("ATAC+(Cons)", "laser") <= get("ATAC+", "laser") {
		t.Error("Cons laser must dominate gated laser")
	}
	if get("ATAC+(RingTuned)", "ring tuning") <= 0 {
		t.Error("RingTuned must pay ring tuning energy")
	}
	if get("ATAC+", "ring tuning") != 0 {
		t.Error("athermal ATAC+ must not pay ring tuning")
	}
}

func TestFig8Headline(t *testing.T) {
	_, avgB, avgP, err := runner().Fig8()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 1.8x and 4.8x at 1024 cores, where long-distance traffic
	// dominates; at the 16-core test scale we assert only the
	// scale-independent ordering.
	if avgB <= 0 || avgP <= 0 {
		t.Fatalf("non-positive E-D ratios %v %v", avgB, avgP)
	}
	if avgP < avgB {
		t.Errorf("EMesh-Pure (%.2f) must not beat EMesh-BCast (%.2f)", avgP, avgB)
	}
}

func TestFig9Shape(t *testing.T) {
	tab, err := runner().Figure("9")
	if err != nil {
		t.Fatal(err)
	}
	// Energy must rise monotonically with loss for every benchmark.
	for _, row := range tab.Rows {
		prev := 0.0
		for _, cell := range row[1:] {
			v := mustFloat(t, cell)
			if v < prev {
				t.Errorf("%s: energy decreasing with loss", row[0])
			}
			prev = v
		}
	}
}

func TestFig10Area(t *testing.T) {
	tab, err := Fig10(Options{Cores: 1024, Scale: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var total, l2 float64
	for _, row := range tab.Rows {
		switch row[0] {
		case "total":
			total = mustFloat(t, row[1])
		case "L2 caches":
			l2 = mustFloat(t, row[1])
		}
	}
	if total <= 0 || l2 <= 0 || l2 < total/3 {
		t.Errorf("area shape wrong: L2 %.0f of total %.0f", l2, total)
	}
}

func TestFig11FlitWidth(t *testing.T) {
	tab, err := runner().Figure("11")
	if err != nil {
		t.Fatal(err)
	}
	// Narrow flits must be slower than 64-bit; 256-bit no slower than
	// 16-bit.
	for _, row := range tab.Rows {
		w16 := mustFloat(t, row[1])
		w64 := mustFloat(t, row[3])
		w256 := mustFloat(t, row[5])
		if w16 <= w64 {
			t.Errorf("%s: 16-bit (%.3f) should be slower than 64-bit (%.3f)", row[0], w16, w64)
		}
		if w256 > w16 {
			t.Errorf("%s: 256-bit (%.3f) slower than 16-bit (%.3f)", row[0], w256, w16)
		}
	}
}

func TestFig12StarNetSaves(t *testing.T) {
	tab, err := runner().Figure("12")
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, row := range tab.Rows {
		sum += mustFloat(t, row[2])
	}
	if avg := sum / float64(len(tab.Rows)); avg >= 1.0 {
		t.Errorf("StarNet average energy %.3f of BNet, want < 1", avg)
	}
}

func TestFig13Routing(t *testing.T) {
	tab, err := runner().Figure("13")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if v := mustFloat(t, row[1]); v != 1.0 {
			t.Errorf("%s: Cluster column should be 1.0, got %v", row[0], v)
		}
	}
}

func TestFig14Coherence(t *testing.T) {
	tab, err := runner().Figure("14")
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Dir4B penalty comes from collecting 1024 acks per
	// broadcast invalidation; with only 16 cores the two protocols are
	// nearly tied, so assert only that Dir4B holds no significant
	// advantage (the full-scale ordering is checked by the REPRO_FULL
	// campaign and recorded in EXPERIMENTS.md).
	for _, row := range tab.Rows {
		if row[0] != "dynamic_graph" {
			continue
		}
		ack := mustFloat(t, row[1])
		dir := mustFloat(t, row[2])
		if dir < 0.9*ack {
			t.Errorf("%s: Dir4B (%.3f) dramatically beats ACKwise4 (%.3f) on ATAC+", row[0], dir, ack)
		}
	}
}

func TestFig15And16Sharers(t *testing.T) {
	t15, err := runner().Figure("15")
	if err != nil {
		t.Fatal(err)
	}
	// Fig 15: little runtime variation (within ~40% at small scale).
	for _, row := range t15.Rows {
		for _, cell := range row[1:] {
			v := mustFloat(t, cell)
			if v < 0.5 || v > 1.6 {
				t.Errorf("%s: sharer-count runtime swing %v too large", row[0], v)
			}
		}
	}
	t16, err := runner().Figure("16")
	if err != nil {
		t.Fatal(err)
	}
	// Fig 16: the directory term grows monotonically with the sharer
	// count, and drives total energy up from 4 to 1024 sharers. (Total
	// is not strictly monotonic point-to-point because runtime varies
	// non-monotonically, per Fig 15.)
	prevDir := 0.0
	for _, row := range t16.Rows {
		d := mustFloat(t, row[1])
		if d < prevDir {
			t.Errorf("directory energy not increasing at %s sharers", row[0])
		}
		prevDir = d
	}
	first := mustFloat(t, t16.Rows[0][4])
	last := mustFloat(t, t16.Rows[len(t16.Rows)-1][4])
	if last <= first {
		t.Errorf("total energy at 1024 sharers (%.3f) not above 4 sharers (%.3f)", last, first)
	}
}

func TestFig17CoreDominates(t *testing.T) {
	tab, err := runner().Figure("17")
	if err != nil {
		t.Fatal(err)
	}
	// "In all cases, the cache and network are dwarfed by the core" at
	// 40% NDD; check the 40% rows.
	for _, row := range tab.Rows {
		if row[1] != "40%" {
			continue
		}
		core := mustFloat(t, row[3]) + mustFloat(t, row[4])
		caches := mustFloat(t, row[5])
		if core < caches {
			t.Errorf("%s/%s: core %.3f below caches %.3f at 40%% NDD", row[0], row[2], core, caches)
		}
	}
}

func TestTableV(t *testing.T) {
	tab, err := runner().Figure("tablev")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		u := mustFloat(t, row[1])
		if u < 0 || u > 100 {
			t.Errorf("%s: utilization %v%%", row[0], u)
		}
		if upb := mustFloat(t, row[2]); upb < 0 {
			t.Errorf("%s: unicasts/broadcast %v", row[0], upb)
		}
	}
}

func TestFig3Synthetic(t *testing.T) {
	r := NewRunner(Options{Cores: 16, Scale: 1, Seed: 42})
	sch := Fig3Schemes(4)
	if len(sch) != 6 || sch[0].Name != "Cluster" || sch[5].Name != "Distance-All" {
		t.Fatalf("schemes: %+v", sch)
	}
	latency := func(load float64) float64 {
		res, err := r.RunSynthetic(r.SchemeConfig(sch[0]),
			SynthSpec{Pattern: "uniform", Load: load, BcastFrac: 0.001, Warmup: 500, Measure: 1500})
		if err != nil {
			t.Fatal(err)
		}
		return res.Synth.MeanLat
	}
	low, high := latency(0.01), latency(0.30)
	if low <= 0 {
		t.Fatal("no latency measured")
	}
	if high <= low {
		t.Errorf("no congestion: %.1f at high load vs %.1f at low", high, low)
	}
}

func TestTableString(t *testing.T) {
	tab := &Table{
		Title:   "T",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"x", "1"}},
		Notes:   []string{"n"},
	}
	s := tab.String()
	for _, want := range []string{"== T ==", "a", "x", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
}

func TestAblations(t *testing.T) {
	tab, err := runner().Figure("ablations")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("ablation rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][0] != "ATAC+ (default)" {
		t.Fatalf("first row %q", tab.Rows[0][0])
	}
	// The default row is its own baseline.
	if v := mustFloat(t, tab.Rows[0][1]); v != 1.0 {
		t.Errorf("default runtime ratio %v", v)
	}
	// Serializing broadcasts must not make things meaningfully faster;
	// with only 4 hubs at this scale the penalty itself is tiny, so the
	// check is one-sided (the full effect needs 64 hubs).
	if v := mustFloat(t, tab.Rows[1][1]); v < 0.95 {
		t.Errorf("broadcast-as-unicasts runtime ratio %v implausibly low", v)
	}
	// More receive networks must not be slower than fewer.
	one := mustFloat(t, tab.Rows[2][1])
	four := mustFloat(t, tab.Rows[3][1])
	if four > one+1e-9 {
		t.Errorf("4 StarNets (%.3f) slower than 1 (%.3f)", four, one)
	}
}
