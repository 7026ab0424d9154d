package noc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/sim"
)

const meshTimingGolden = "testdata/mesh_timing_golden.json"

// meshTiming is what TestMeshTimingGolden pins per geometry. Digest is a
// sha256 over (cycle, dst, src, bits) of every delivery in delivery order,
// so it sees the order of same-cycle ejections — which is the order the
// layers above schedule their events in. Multiset is the order-free sum of
// the same tuples' hashes: the part of the delivery record a sharded run,
// whose shards eject concurrently, must reproduce.
type meshTiming struct {
	FinalCycle, Deliveries                                    uint64
	MeshLinkFlits, MeshRouterFlits, MeshRetxFlits, LatencySum uint64
	Multiset                                                  uint64
	Digest                                                    string
}

// meshTimingCases are router/link delays, buffer depths and flit widths no
// other test leaves at 1/1/4/64, with the mesh's own fault path armed on
// three of them (a NACKed flit holds its buffer, so BER meets back-pressure
// hardest at buf 1).
var meshTimingCases = []struct {
	name                   string
	dim, flit, buf, rd, ld int
	multicast              bool
	ber                    float64
}{
	{"d8b2rd2ld3mc", 8, 64, 2, 2, 3, true, 0},
	{"d8f16b3rd3ld1pure", 8, 16, 3, 3, 1, false, 0},
	{"d6b2rd1ld4mcBER", 6, 64, 2, 1, 4, true, 5e-4},
	{"d8b1rd1ld1mcBER", 8, 64, 1, 1, 1, true, 5e-4},
	{"d5b2rd4ld2pureBER", 5, 64, 2, 4, 2, false, 5e-4},
	{"d8b4rd1ld1mc", 8, 64, 4, 1, 1, true, 0},
	{"d4f32b1rd2ld2pure", 4, 32, 1, 2, 2, false, 0},
}

// runMeshTiming injects seeded random unicasts and broadcasts for 3000
// cycles, drains, and returns the record. shards > 1 runs the same traffic
// on the conservative parallel engine, split into horizontal slabs.
func runMeshTiming(t *testing.T, ci, shards int) meshTiming {
	tc := meshTimingCases[ci]
	var k sim.Kernel
	m := NewMesh(&k, tc.dim, tc.flit, tc.buf, tc.rd, tc.ld, tc.multicast)
	run, drain := func(c sim.Time) { k.Run(c) }, func() { k.RunAll() }
	if shards > 1 {
		sh := sim.NewSharded(shards, sim.Time(tc.ld))
		defer sh.Close()
		of := make([]int, tc.dim*tc.dim)
		for i := range of {
			of[i] = (i / tc.dim) * shards / tc.dim
		}
		m.Partition(sim.NewDomain(sh, of))
		run, drain = func(c sim.Time) { sh.Run(c) }, func() { sh.Run(sim.Forever) }
	}
	if tc.ber > 0 {
		m.SetFaults(fault.NewInjector(config.Fault{Enabled: true, MeshBER: tc.ber}, tc.flit, 11, &k))
	}
	// Per-shard accumulators: shards eject concurrently.
	type acc struct {
		n, sum uint64
		last   sim.Time
	}
	accs := make([]acc, shards)
	ordered := sha256.New()
	m.SetDeliver(func(dst int, msg *Message) {
		r := m.enet.routers[dst]
		var rec [32]byte
		for i, v := range [4]uint64{uint64(r.k.Now()), uint64(dst), uint64(msg.Src), uint64(msg.Bits)} {
			binary.LittleEndian.PutUint64(rec[8*i:], v)
		}
		a := &accs[r.sh]
		a.n++
		a.last = r.k.Now()
		h := sha256.Sum256(rec[:])
		a.sum += binary.LittleEndian.Uint64(h[:])
		if shards == 1 {
			ordered.Write(rec[:])
		}
	})
	rng := rand.New(rand.NewSource(int64(ci) + 1))
	cores := tc.dim * tc.dim
	for c := sim.Time(0); c < 3000; c++ {
		run(c)
		for i := 0; i < 2; i++ {
			if rng.Intn(4) != 0 {
				continue
			}
			msg := &Message{Src: rng.Intn(cores), Dst: rng.Intn(cores), Bits: []int{16, 64, 512}[rng.Intn(3)]}
			if rng.Intn(8) == 0 {
				msg.Dst = BroadcastDst
			}
			m.Send(msg)
		}
	}
	drain()
	if !m.Drained() {
		t.Fatalf("%s: mesh not drained", tc.name)
	}
	checkMeshInvariants(t, m.enet)
	st := m.Stats()
	got := meshTiming{
		MeshLinkFlits: st.MeshLinkFlits, MeshRouterFlits: st.MeshRouterFlits,
		MeshRetxFlits: st.MeshRetxFlits, LatencySum: st.LatencySum,
	}
	for _, a := range accs {
		got.Deliveries += a.n
		got.Multiset += a.sum
		got.FinalCycle = max(got.FinalCycle, uint64(a.last))
	}
	if shards == 1 {
		got.Digest = hex.EncodeToString(ordered.Sum(nil))
	}
	return got
}

// TestMeshTimingGolden pins the mesh's cycle-level behaviour away from the
// unit delays every other test uses, and its own link-fault path, against
// testdata/mesh_timing_golden.json (rewritten by -update — only for an
// intended behaviour change: the file defines what a router rewrite must
// reproduce). Fault-free geometries are also run on two shards, which must
// agree with the serial record in everything but same-cycle ejection order.
func TestMeshTimingGolden(t *testing.T) {
	got := map[string]meshTiming{}
	for i, tc := range meshTimingCases {
		got[tc.name] = runMeshTiming(t, i, 1)
		if tc.ber > 0 && got[tc.name].MeshRetxFlits == 0 {
			t.Fatalf("%s: BER too low to pin the retry path", tc.name)
		}
	}
	want := map[string]meshTiming{}
	if !goldenFile(t, meshTimingGolden, got, &want) {
		return
	}
	for i, tc := range meshTimingCases {
		if got[tc.name] != want[tc.name] {
			t.Errorf("%s:\n got  %+v\n want %+v", tc.name, got[tc.name], want[tc.name])
		}
		if tc.ber > 0 {
			continue // one global fault RNG stream: faulted meshes run serially
		}
		w := want[tc.name]
		w.Digest = ""
		if g := runMeshTiming(t, i, 2); g != w {
			t.Errorf("%s on 2 shards:\n got  %+v\n want %+v", tc.name, g, w)
		}
	}
}
