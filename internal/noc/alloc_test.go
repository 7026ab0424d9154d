// Allocation-budget guards for the metrics layer's zero-cost contract on
// the mesh flit hot paths. Two properties are pinned:
//
//   - attaching a latency histogram adds zero allocations per message —
//     Observe writes into a fixed array, and the unobserved state is one
//     nil check — so enabling metrics never regresses the PR2 hot-path
//     tuning (1 alloc/unicast, 4/broadcast amortized in the benchmarks);
//   - the warmed steady-state flit path stays within a small absolute
//     budget, catching any accidental per-flit allocation regression.
//
// The absolute numbers here are per-run over a short window, so they sit
// slightly above the fully amortized benchmark figures: the pools that
// amortize to ~1 alloc/op still grow occasionally. The differential
// assertion is exact.
package noc

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// flitPathAllocs measures steady-state heap allocations per drained
// message on a warmed 16x16 mesh, with an optional latency histogram.
func flitPathAllocs(hist *metrics.Histogram, bcast bool) float64 {
	var k sim.Kernel
	multicast := bcast
	m := NewMesh(&k, 16, 64, 4, 1, 1, multicast)
	m.SetDeliver(func(int, *Message) {})
	m.SetLatencyHist(hist)
	dst := 255
	if bcast {
		dst = BroadcastDst
	}
	send := func() {
		m.Send(&Message{Src: 0, Dst: dst, Bits: 512})
		k.RunAll()
	}
	for i := 0; i < 2000; i++ {
		send() // grow the worm/queue/event pools to steady state
	}
	return testing.AllocsPerRun(500, send)
}

func TestHistogramAddsNoFlitPathAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bcast bool
	}{{"unicast", false}, {"broadcast", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var h metrics.Histogram
			without := flitPathAllocs(nil, tc.bcast)
			with := flitPathAllocs(&h, tc.bcast)
			if h.Total() == 0 {
				t.Fatal("histogram attached but observed nothing")
			}
			if with > without {
				t.Errorf("attached histogram costs allocations: %.2f allocs/msg vs %.2f without",
					with, without)
			}
		})
	}
}

func TestFlitPathAllocBudget(t *testing.T) {
	// Warmed steady state measures 1 allocation per message, the Message
	// itself, for a unicast and for a broadcast (whose source core's copy
	// is a pooled landing). The unicast ceiling adds 2 for rare pool
	// growth inside the window, far below any per-flit allocation; the
	// broadcast one is the measured 1, which a closure per message for the
	// source copy would exceed.
	if got := flitPathAllocs(nil, false); got > 3 {
		t.Errorf("unicast flit path: %.2f allocs/msg, budget 3", got)
	}
	if got := flitPathAllocs(nil, true); got > 1 {
		t.Errorf("broadcast flit path: %.2f allocs/msg, budget 1", got)
	}
}

// TestSustainedLoadAllocatesOnlyMessages keeps a 16x16 mesh saturated with
// closed-loop uniform traffic (every core keeps four 8-flit messages in
// flight and sends a new one whenever one of its own is delivered), so the
// links in the middle of the mesh never go idle. After warm-up the only
// allocations may be the messages the test creates: an input queue that
// kept a slot for every flit it ever carried until it drained would grow
// without bound here.
func TestSustainedLoadAllocatesOnlyMessages(t *testing.T) {
	const dim, window, warmup, measure = 16, 4, 5000, 5000
	var k sim.Kernel
	m := NewMesh(&k, dim, 64, 4, 1, 1, false)
	rng := rand.New(rand.NewSource(1))
	sent := 0
	send := func(src int) {
		dst := rng.Intn(dim*dim - 1)
		if dst >= src {
			dst++
		}
		m.Send(&Message{Src: src, Dst: dst, Bits: 512})
		sent++
	}
	m.SetDeliver(func(_ int, msg *Message) { send(msg.Src) })
	for src := 0; src < dim*dim; src++ {
		for i := 0; i < window; i++ {
			send(src)
		}
	}
	k.Run(warmup)
	flits := m.Stats().MeshLinkFlits
	allocs := testing.AllocsPerRun(1, func() {
		sent = 0
		k.Run(k.Now() + measure)
	})
	flits = (m.Stats().MeshLinkFlits - flits) / 2 // AllocsPerRun runs twice
	if flits < measure*dim*dim/8 {
		t.Fatalf("only %d link flits in %d cycles: the mesh is not under sustained load", flits, measure)
	}
	if extra := allocs - float64(sent); extra > 4 {
		t.Errorf("%.0f allocations for %d messages over %d cycles (%d link flits): %.0f beyond the messages",
			allocs, sent, measure, flits, extra)
	}
}

// fabricPathAllocs measures steady-state heap allocations per drained
// message on a warmed 64-core fabric: a corner-to-corner unicast (on an
// optical fabric: core->hub ENet leg, one optical transfer, receive
// network) or a broadcast from core 0.
func fabricPathAllocs(t *testing.T, kind config.NetworkKind, bcast bool) float64 {
	cfg := config.Small().WithNetwork(kind)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var k sim.Kernel
	net, err := New(&k, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.SetDeliver(func(int, *Message) {})
	dst := 63
	if bcast {
		dst = BroadcastDst
	}
	send := func() {
		net.Send(&Message{Src: 0, Dst: dst, Bits: 512})
		k.RunAll()
	}
	for i := 0; i < 2000; i++ {
		send() // grow the worm/queue/event pools to steady state
	}
	return testing.AllocsPerRun(500, send)
}

// TestOpticalAllocBudget pins the optical fabrics' allocations per drained
// message at their measured values: closures and per-reception bookings are
// the fabrics' own per-message cost on top of the mesh's, and nothing else
// gates them — BenchmarkAtacUniformTraffic once slid 4 -> 6 allocs/op
// unnoticed. What remains per message is the Message itself. The
// transmitters' send and done events are bound once per channel, their
// queues are rings that keep their slots when drained, and a cluster
// port's arrivals and receive-network completions, like the hybrid's
// source copy of a mesh broadcast, are pooled landings.
func TestOpticalAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   config.NetworkKind
		bcast  bool
		budget float64
	}{
		{"ATACPlus/unicast", config.ATACPlus, false, 1},
		{"ATACPlus/broadcast", config.ATACPlus, true, 1},
		{"Corona/unicast", config.Corona, false, 1},
		{"Corona/broadcast", config.Corona, true, 1},
		{"Hybrid/unicast", config.HybridMesh, false, 1},
		{"Hybrid/broadcast", config.HybridMesh, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := fabricPathAllocs(t, tc.kind, tc.bcast); got > tc.budget {
				t.Errorf("%.0f allocs/msg, budget %.0f", got, tc.budget)
			}
		})
	}
}

// TestSerializedBroadcastAllocBudget holds an EMesh-Pure broadcast on the
// warmed 64-core mesh to the Message itself: its 63 serialized unicast
// worms all carry that one Message, and the source core's copy is a
// pooled landing.
func TestSerializedBroadcastAllocBudget(t *testing.T) {
	if got := fabricPathAllocs(t, config.EMeshPure, true); got > 1 {
		t.Errorf("%.0f allocs/msg, budget 1", got)
	}
}
