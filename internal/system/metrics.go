// Cross-layer metrics wiring: AttachMetrics registers the machine's
// counters on a metrics.Collector, and Run (system.go) drives the
// collector between kernel chunks so epochs land on exact simulated-time
// boundaries without adding a single event to the kernel queue — the hot
// paths are untouched whether metrics are on or off.
package system

import (
	"reflect"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// counterNames and counterIndex are Result's counters, walked once: every
// uint64 field and every field of a struct made only of uint64 fields
// (coherence.Stats, noc.Stats), named by field path ("Instructions",
// "Coh.L2Misses", "Net.XbarFlits"). Cycles is a sim.Time, the epoch's own
// length, so it is not a counter; Cfg and Synth are not counters.
var counterNames, counterIndex = walkCounters()

func walkCounters() (names []string, index [][]int) {
	u64 := reflect.TypeOf(uint64(0))
	allU64 := func(t reflect.Type) bool {
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).Type != u64 {
				return false
			}
		}
		return true
	}
	t := reflect.TypeOf(Result{})
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch {
		case f.Type == u64:
			names, index = append(names, f.Name), append(index, f.Index)
		case f.Type.Kind() == reflect.Struct && allU64(f.Type):
			for j := 0; j < f.Type.NumField(); j++ {
				names = append(names, f.Name+"."+f.Type.Field(j).Name)
				index = append(index, []int{i, j})
			}
		}
	}
	return names, index
}

// CounterNames returns the field paths of Result's counters in
// declaration order: the epoch columns AttachMetrics samples, and the
// counters the energy model's pricing lint covers.
func CounterNames() []string { return append([]string(nil), counterNames...) }

// Counters returns the machine's cumulative event counters: a Result
// holding only Instructions, Coh and Net. RunContext builds its final
// Result from it and every metrics epoch samples it.
func (s *System) Counters() Result {
	r := Result{Coh: *s.Coh.Stats(), Net: *s.Net.Stats()}
	for _, c := range s.Core {
		r.Instructions += c.Instructions
	}
	return r
}

// AttachMetrics registers per-epoch samplers on the collector: one column
// per Result counter, named by its field path and sampled from Counters,
// plus what is not a Result counter — the finished-core count, ATAC's
// optical busy cycles and a delivery-latency histogram hooked into the
// network's ejection path. Derived rate/ratio columns (IPC, offered load,
// laser duty, link utilization) are computed per epoch from the same
// deltas at export time.
//
// Attach before Run; a nil collector is a no-op. Attaching changes no
// simulation behavior: sampling is pull-based and read-only.
func (s *System) AttachMetrics(c *metrics.Collector) {
	if c == nil {
		return
	}
	s.metrics = c

	// The coherence and network counters are merged on read under
	// sharding, so sample through Counters each epoch rather than holding
	// pointers.
	off := len(c.Columns())
	c.AddSource("", counterNames, func(v []float64) {
		r := s.Counters()
		rv := reflect.ValueOf(&r).Elem()
		for i, ix := range counterIndex {
			v[i] = float64(rv.FieldByIndex(ix).Uint())
		}
	})
	c.AddSource("core", []string{"finished"}, func(v []float64) {
		var fin int
		for _, core := range s.Core {
			if core.Finished {
				fin++
			}
		}
		v[0] = float64(fin)
	})

	// Delivery-latency histogram, hooked into the network ejection path
	// (one nil check per delivery when unobserved).
	s.LatHist = &metrics.Histogram{}
	s.Net.(interface{ SetLatencyHist(*metrics.Histogram) }).SetLatencyHist(s.LatHist)
	c.AddHistogram("lat", s.LatHist)

	// Derived per-epoch rates read one epoch's counter deltas as a Result,
	// through the methods the end-of-run report uses.
	delta := func(d []float64, cyc float64) Result {
		r := Result{Cfg: s.Cfg, Cycles: sim.Time(cyc)}
		rv := reflect.ValueOf(&r).Elem()
		for i, ix := range counterIndex {
			rv.FieldByIndex(ix).SetUint(uint64(d[off+i]))
		}
		return r
	}
	derive := func(name string, fn func(r *Result) float64) {
		c.AddDerived(name, func(d []float64, cyc float64) float64 {
			r := delta(d, cyc)
			return fn(&r)
		})
	}
	derive("ipc", (*Result).IPC)
	derive("stall_frac", func(r *Result) float64 { return 1 - r.IPC() })
	derive("offered_load", (*Result).OfferedLoad)
	derive("bcast_recv_frac", (*Result).BroadcastRecvFraction)
	derive("avg_latency", func(r *Result) float64 { return r.Net.AvgLatency() })
	if s.Atac != nil {
		busyIx := len(c.Columns())
		c.AddSource("onet", []string{"busy_cycles"}, func(v []float64) {
			v[0] = float64(s.Atac.BusyCycles())
		})
		hubs := float64(s.Cfg.Clusters())
		c.AddDerived("link_util", func(d []float64, cyc float64) float64 {
			return d[busyIx] / (cyc * hubs)
		})
		derive("laser_duty", func(r *Result) float64 {
			// A data laser is on for exactly the flits it sends.
			return float64(r.Net.ONetUniFlits+r.Net.ONetBcastFlits) / (float64(r.Cycles) * hubs)
		})
	}
}
