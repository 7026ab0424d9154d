package energy

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/photonics"
	"repro/internal/system"
	"repro/internal/tech"
)

var allKinds = []config.NetworkKind{config.EMeshPure, config.EMeshBCast,
	config.ATAC, config.ATACPlus, config.Corona, config.HybridMesh}

var allFlavors = []config.Flavor{config.FlavorDefault, config.FlavorIdeal, config.FlavorRingTuned, config.FlavorCons}

// appendBits appends the IEEE-754 bits of every float64 (and the value of
// every int) reachable through v's struct fields, in declaration order.
func appendBits(t *testing.T, buf []byte, v reflect.Value) []byte {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			buf = appendBits(t, buf, v.Field(i))
		}
	case reflect.Float64:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
	case reflect.Int:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Int()))
	default:
		t.Fatalf("appendBits: unexpected %v", v.Type())
	}
	return buf
}

// combineBitsWant are the per-kind hashes TestCombineBits recorded on the
// code before Combine, ComputeArea and ResilienceOverheadJ lost their
// NetworkKind switches. A pricing refactor must pass without editing them.
var combineBitsWant = map[config.NetworkKind]string{
	config.EMeshPure:  "febc2d68a8470e95f611e4f958f70698880d280e46b43e2297407f97b39d2547",
	config.EMeshBCast: "378566bc9473bae297adcf2a6329a18edf2a74af40a9c0db142eac8808a8c055",
	config.ATAC:       "44caa8b3ca25f2ee4385af869a6f90579da49e175a14e6daf7e6c5b080d5fa13",
	config.ATACPlus:   "40b33e87b2a9da70281019ce597e3157e45167e7a9e16785f3be6e646b6e9f79",
	config.Corona:     "04f56f0e34ed127d5916d7bbac66b3b159cabe4d576aa5be82b12310f2abc293",
	config.HybridMesh: "baf5a4b6e693ffe83cafeb2838936c829801b2171e7592db72512dc9e29b8ced",
}

// TestCombineBits pins Combine, ComputeArea, ResilienceOverheadJ and the
// solved optical link bit for bit: per kind, one sha256 over every
// Breakdown and Area field, the resilience overhead and Models.Opt, for
// {Tiny, Small} × {clean, fault-injected} radix × every tech × optics
// scenario × every flavor.
func TestCombineBits(t *testing.T) {
	for _, kind := range allKinds {
		var buf []byte
		for _, base := range []config.Config{config.Tiny(), config.Small()} {
			cfg := base.WithNetwork(kind)
			fcfg := cfg
			fcfg.Fault = config.DefaultFault()
			fcfg.Fault.OpticalBER, fcfg.Fault.MeshBER, fcfg.Fault.DegradeThreshold = 1e-3, 1e-5, 0.01
			faulty := run(t, fcfg, "radix")
			if !faulty.Net.FaultEvents() {
				t.Fatalf("%v: fault-injected run recorded no fault events", kind)
			}
			for _, res := range []system.Result{run(t, cfg, "radix"), faulty} {
				for _, node := range tech.Scenarios() {
					for _, optics := range photonics.Variants() {
						for _, fl := range allFlavors {
							c := cfg
							c.Tech, c.Optics = node, optics
							c.Network.Flavor = fl
							m, err := Build(c)
							if err != nil {
								t.Fatalf("%v/%s/%s/%v: %v", kind, node, optics, fl, err)
							}
							buf = appendBits(t, buf, reflect.ValueOf(Combine(m, res)))
							buf = appendBits(t, buf, reflect.ValueOf(ComputeArea(m)))
							buf = appendBits(t, buf, reflect.ValueOf(ResilienceOverheadJ(m, res)))
							buf = appendBits(t, buf, reflect.ValueOf(m.Opt))
						}
					}
				}
			}
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf)); got != combineBitsWant[kind] {
			t.Errorf("%v: pricing bits hash %s, recorded %s", kind, got, combineBitsWant[kind])
		}
	}
}

// pricing is one counter's row of the completeness table: the Breakdown
// fields one more event moves, or why none does.
type pricing struct {
	moves    []string
	unpriced string
}

func moves(fields ...string) pricing { return pricing{moves: fields} }
func unpriced(why string) pricing    { return pricing{unpriced: why} }

// counterPricing declares, for every counter of a Result Combine reads or
// could read, which Breakdown fields it is priced into. Rows are what one
// more event moves on a photonic fabric under the RingTuned flavor (gated
// laser, tuned rings); on an electrical fabric the optical fields stay put.
var counterPricing = map[string]pricing{
	"Instructions": moves("CoreDD", "L1IDyn"), // each retires once and reads the L1-I once
	"Cycles":       moves("CoreNDD", "L1IStatic", "L1DStatic", "L2Static", "DirStatic", "NetElecStatic", "RingTuning"),

	"Net.UnicastSent":   unpriced("message count; its flits are priced per crossing"),
	"Net.BroadcastSent": unpriced("message count; its flits are priced per crossing"),
	"Net.Delivered":     unpriced("delivery count; its flits are priced per crossing"),
	"Net.UnicastRecv":   unpriced("delivery count; its flits are priced per crossing"),
	"Net.BroadcastRecv": unpriced("delivery count; its flits are priced per crossing"),
	"Net.InjectedFlits": unpriced("injection count; flits are priced per crossing"),
	"Net.LatencySum":    unpriced("latency statistic"),
	"Net.LatencyCount":  unpriced("latency statistic"),
	"Net.LatencyMax":    unpriced("latency statistic"),

	"Net.MeshLinkFlits":   moves("NetElecDyn"),
	"Net.MeshRouterFlits": moves("NetElecDyn"),
	"Net.HubFlits":        moves("NetElecDyn"),
	"Net.BNetFlits":       moves("NetElecDyn"),
	"Net.StarUniFlits":    moves("NetElecDyn"),
	"Net.StarBcastFlits":  moves("NetElecDyn"),

	"Net.ONetUniFlits":   moves("ONetOther", "Laser"),
	"Net.ONetBcastFlits": moves("ONetOther", "Laser"),
	"Net.ONetUniPkts":    unpriced("packet count; its flits are priced"),
	"Net.ONetBcastPkts":  unpriced("packet count; its flits are priced"),
	"Net.SelectEvents":   moves("ONetOther"),

	"Net.XbarPkts":        unpriced("packet count; its flits are priced"),
	"Net.XbarFlits":       moves("ONetOther", "Laser"),
	"Net.TokenWaitCycles": unpriced("waiting for a token burns only the static power Cycles prices"),
	"Net.TokensGranted":   moves("ONetOther"),
	"Net.TokensReturned":  unpriced("the release of a granted token; the grant is priced"),

	"Net.ExpressPkts":  unpriced("packet count; its flits are priced"),
	"Net.ExpressFlits": moves("ONetOther", "Laser"),

	"Net.MeshNacks":               moves("NetElecDyn"),
	"Net.MeshRetxFlits":           unpriced("already inside MeshLinkFlits/MeshRouterFlits"),
	"Net.MeshRetriesExhausted":    unpriced("forced flits cross like any other"),
	"Net.OpticalFlitErrors":       unpriced("the NACK it provokes is priced"),
	"Net.OpticalNacks":            moves("ONetOther"),
	"Net.OpticalRetxPkts":         unpriced("packet count; its flits are priced"),
	"Net.OpticalRetxFlits":        unpriced("already inside the optical flit counters"),
	"Net.OpticalRetriesExhausted": unpriced("forced packets cross like any other"),
	"Net.ReroutedMsgs":            unpriced("rerouted flits ride the mesh counters"),
	"Net.ReroutedFlits":           unpriced("already inside the mesh flit counters"),
	"Net.DegradedChannels":        unpriced("gauge, not an event"),

	"Coh.L1DReads":             moves("L1DDyn"),
	"Coh.L1DWrites":            moves("L1DDyn"),
	"Coh.L1DMisses":            unpriced("a miss is a priced read or write"),
	"Coh.L2Reads":              moves("L2Dyn"),
	"Coh.L2Writes":             moves("L2Dyn"),
	"Coh.L2TagProbes":          moves("L2Dyn"),
	"Coh.L2Misses":             unpriced("a miss is a priced read or write"),
	"Coh.DirAccesses":          moves("DirDyn"),
	"Coh.MemReads":             unpriced("no DRAM model"),
	"Coh.MemWrites":            unpriced("no DRAM model"),
	"Coh.InvBroadcasts":        unpriced("protocol message; priced as network flits"),
	"Coh.InvUnicasts":          unpriced("protocol message; priced as network flits"),
	"Coh.UpgradeFastPath":      unpriced("protocol statistic; its accesses are priced"),
	"Coh.EvictionsS":           unpriced("protocol statistic; its accesses are priced"),
	"Coh.EvictionsM":           unpriced("protocol statistic; its accesses are priced"),
	"Coh.ReorderBufferedUni":   unpriced("protocol statistic"),
	"Coh.ReorderBufferedBcast": unpriced("protocol statistic"),
	"Coh.AcksCollected":        unpriced("protocol message; priced as network flits"),
}

// TestEveryCounterPriced is the completeness lint over counterPricing:
// every Result counter (system.CounterNames, the walk that also names the
// epoch columns: Instructions and every coherence.Stats and noc.Stats
// field) and Cycles has a row, and bumping a counter on a real run moves exactly the Breakdown
// fields its row lists — so no counter is priced twice, in the wrong
// category, or silently not at all. Every Breakdown field is moved by some
// counter.
func TestEveryCounterPriced(t *testing.T) {
	counters := append(system.CounterNames(), "Cycles")
	for _, c := range counters {
		if _, ok := counterPricing[c]; !ok {
			t.Errorf("counter %s has no row in counterPricing", c)
		}
	}
	if len(counterPricing) != len(counters) {
		t.Errorf("counterPricing has %d rows for %d counters: remove the stale rows", len(counterPricing), len(counters))
	}

	optical := map[string]bool{"Laser": true, "RingTuning": true, "ONetOther": true}
	reached := map[string]bool{}
	for _, kind := range []config.NetworkKind{config.ATACPlus, config.Corona, config.HybridMesh, config.EMeshBCast} {
		cfg := config.Tiny().WithNetwork(kind)
		cfg.Network.Flavor = config.FlavorRingTuned
		res := run(t, cfg, "radix")
		m, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base := reflect.ValueOf(Combine(m, res))
		for _, c := range counters {
			bumped := res
			f := reflect.ValueOf(&bumped).Elem()
			for _, name := range strings.Split(c, ".") {
				f = f.FieldByName(name)
			}
			f.SetUint(f.Uint() + 1000)
			got := reflect.ValueOf(Combine(m, bumped))
			var moved []string
			for i := 0; i < got.NumField(); i++ {
				if math.Float64bits(got.Field(i).Float()) != math.Float64bits(base.Field(i).Float()) {
					moved = append(moved, got.Type().Field(i).Name)
					reached[got.Type().Field(i).Name] = true
				}
			}
			var want []string
			for _, name := range counterPricing[c].moves {
				if kind.HasPhotonics() || !optical[name] {
					want = append(want, name)
				}
			}
			sort.Strings(moved)
			sort.Strings(want)
			if !reflect.DeepEqual(moved, want) {
				t.Errorf("%v: one more %s moved %v, want %v", kind, c, moved, want)
			}
		}
	}
	for i, typ := 0, reflect.TypeOf(Breakdown{}); i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !reached[name] {
			t.Errorf("no counter moves Breakdown.%s", name)
		}
	}
}
