package noc

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/sim"
)

// TestWormsStayContiguous is the wormhole-contiguity property a locked
// output relies on: with one virtual channel, an output locked by a worm
// forwards nothing else until that worm's tail, so a worm's flits are
// contiguous in every input ring. It steps three machines one event at a
// time under mixed unicast and broadcast load with mesh BER armed (NACKed
// flits hold their place at the front of a ring) and, after every event,
// walks each router's input rings: from the first head flit on, each worm
// must run head→tail on one message with no other message's flit inside
// it, and any flits before that first head (the rest of a worm whose head
// has already left) must belong to one message.
func TestWormsStayContiguous(t *testing.T) {
	meshFaults := func(k *sim.Kernel, m *EMesh, seed int64) {
		m.SetFaults(fault.NewInjector(config.Fault{Enabled: true, MeshBER: 1e-3}, 64, seed, k))
	}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T, seed int64) (*sim.Kernel, Network)
	}{
		{"EMeshBCast", func(t *testing.T, seed int64) (*sim.Kernel, Network) {
			var k sim.Kernel
			m := newTestMesh(&k, 4, true)
			meshFaults(&k, m, seed)
			return &k, m
		}},
		{"EMeshPure", func(t *testing.T, seed int64) (*sim.Kernel, Network) {
			var k sim.Kernel
			m := newTestMesh(&k, 4, false)
			meshFaults(&k, m, seed)
			return &k, m
		}},
		{"ATACPlus", func(t *testing.T, seed int64) (*sim.Kernel, Network) {
			return opticalFixture(t, config.ATACPlus, opticalFaultProfile(seed))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 3
			k, net := tc.build(t, seed)
			mesh := net.(interface{ ENet() *Mesh }).ENet()
			h := newConservationHarness(k, net, 16)
			rng := rand.New(rand.NewSource(seed))
			mixed := 0 // checks that found two worms' flits in one ring
			for burst := 0; burst < 6; burst++ {
				h.inject(rng, 40, 0.25)
				for i := 0; i < 400 && k.Step(); i++ {
					mixed += checkWormsContiguous(t, mesh)
				}
			}
			for k.Step() {
				mixed += checkWormsContiguous(t, mesh)
			}
			h.check(t)
			if mixed == 0 {
				t.Fatal("no input ring ever held flits of two worms: the load never exercised contiguity")
			}
		})
	}
}

// checkWormsContiguous walks every input ring of m front to back and
// fails unless each worm's flits run head→tail on one message with no
// other message's flit inside; a ring may open with the body and tail of
// a worm whose head has already left. It returns how many rings held
// flits of more than one worm.
func checkWormsContiguous(t *testing.T, m *Mesh) (mixed int) {
	t.Helper()
	for _, r := range m.routers {
		for p := range r.in {
			q := &r.in[p]
			var cur *Message
			open, worms := false, 0
			for i := int32(0); i < q.n; i++ {
				f := &q.buf[(q.head+i)&int32(len(q.buf)-1)]
				at := func() string { return fmt.Sprintf("router %d input %d slot %d of %d", r.id, p, i, q.n) }
				switch {
				case f.head():
					if open {
						t.Fatalf("%s: a worm head inside an open worm", at())
					}
					cur, open = f.msg, true
					worms++
				case i == 0:
					cur, open = f.msg, true // the rest of a worm whose head has left
					worms++
				case !open:
					t.Fatalf("%s: a body flit after a tail, outside any worm", at())
				case f.msg != cur:
					t.Fatalf("%s: another message's flit inside a worm", at())
				}
				if f.tail() {
					open = false
				}
			}
			if worms > 1 {
				mixed++
			}
		}
	}
	return mixed
}
