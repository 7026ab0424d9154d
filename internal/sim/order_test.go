package sim

import (
	"math/rand"
	"testing"
)

// The kernel's same-cycle order, as documented: an event scheduled less
// than wheelSize cycles ahead joins its cycle's bucket at once; a farther
// one joins it when the clock arrives at its cycle, in scheduling order,
// before anything that cycle's events schedule. Within a cycle, events run
// in the order they joined. orderModel implements exactly that with a flat
// list and linear scans — nothing of the kernel's wheel or heap — and
// checkKernelOrder runs one decoded program on both, event by event.

// orderDelays are the delays a program draws from: same-cycle and short
// hops, both sides of the wheel horizon, and far jumps that collide with
// near events scheduled later for the same cycle.
var orderDelays = [...]Time{0, 0, 1, 2, 3, 5, 8, 13, 64,
	wheelSize - 2, wheelSize - 1, wheelSize, wheelSize + 1, wheelSize + 4,
	5000, 2*wheelSize - 1, 2 * wheelSize, 12000}

// orderChunks is how many Run(until) calls a program makes before its
// final RunAll; events with a negative parent are scheduled from outside
// the kernel just before chunk -parent-1.
const (
	orderChunks    = 4
	orderChunkSpan = 3000
)

// orderProgram is a forest of events: event i is scheduled with delay[i]
// by its parent when the parent runs (children in index order), or from
// outside before a chunk when parent[i] < 0.
type orderProgram struct {
	parent   []int
	delay    []Time
	children [][]int
}

// decodeOrderProgram reads two bytes per event: the first picks the
// parent (an earlier event, or an outside chunk), the second the delay.
func decodeOrderProgram(data []byte) orderProgram {
	n := len(data) / 2
	if n > 512 {
		n = 512
	}
	p := orderProgram{parent: make([]int, n), delay: make([]Time, n), children: make([][]int, n)}
	for i := 0; i < n; i++ {
		b0, b1 := int(data[2*i]), int(data[2*i+1])
		if i == 0 || b0%4 == 0 {
			p.parent[i] = -1 - (b0/4)%orderChunks
		} else {
			p.parent[i] = b0 % i
			p.children[p.parent[i]] = append(p.children[p.parent[i]], i)
		}
		p.delay[i] = orderDelays[b1%len(orderDelays)] + Time(b1/len(orderDelays))%3
	}
	return p
}

type orderStep struct {
	id int
	at Time
}

type modelEvent struct {
	id       int
	at       Time
	far      bool // waiting for its cycle to arrive
	seq      int  // scheduling order among far events
	joined   int  // position in its cycle's order, once joined
	executed bool
}

type orderModel struct {
	now         Time
	events      []*modelEvent
	seq, joined int
}

func (m *orderModel) schedule(id int, delay Time) {
	e := &modelEvent{id: id, at: m.now + delay, far: delay >= wheelSize, seq: m.seq}
	m.seq++
	if !e.far {
		e.joined = m.joined
		m.joined++
	}
	m.events = append(m.events, e)
}

// arrive moves the clock to t and lets t's far events join, in the order
// they were scheduled.
func (m *orderModel) arrive(t Time) {
	m.now = t
	for {
		var first *modelEvent
		for _, e := range m.events {
			if !e.executed && e.far && e.at == t && (first == nil || e.seq < first.seq) {
				first = e
			}
		}
		if first == nil {
			return
		}
		first.far = false
		first.joined = m.joined
		m.joined++
	}
}

// next returns the event to run next if its cycle is at most until.
func (m *orderModel) next(until Time) *modelEvent {
	var best *modelEvent
	for _, e := range m.events {
		if !e.executed && (best == nil || e.at < best.at) {
			best = e
		}
	}
	if best == nil || best.at > until {
		return nil
	}
	if best.at > m.now {
		m.arrive(best.at)
	}
	// Every event of the current cycle has joined by now.
	for _, e := range m.events {
		if !e.executed && e.at == m.now && e.joined < best.joined {
			best = e
		}
	}
	return best
}

func (m *orderModel) pending() int {
	n := 0
	for _, e := range m.events {
		if !e.executed {
			n++
		}
	}
	return n
}

// drain executes the model's events up to until and returns them in
// execution order. The clock stays at the last one, as after RunAll;
// Kernel.Run also moves it on to until, which is the caller's arrive.
func (m *orderModel) drain(p orderProgram, until Time) []orderStep {
	var out []orderStep
	for e := m.next(until); e != nil; e = m.next(until) {
		e.executed = true
		out = append(out, orderStep{e.id, m.now})
		for _, c := range p.children[e.id] {
			m.schedule(c, p.delay[c])
		}
	}
	return out
}

// checkKernelOrder runs program data on a Kernel and on orderModel — the
// same outside schedules, the same Run(until) chunks, then RunAll — and
// fails at the first event that runs out of the model's order or cycle.
func checkKernelOrder(t *testing.T, data []byte) {
	t.Helper()
	p := decodeOrderProgram(data)
	var k Kernel
	var got []orderStep
	var handler func(id int) func()
	handler = func(id int) func() {
		return func() {
			got = append(got, orderStep{id, k.Now()})
			for _, c := range p.children[id] {
				k.Schedule(p.delay[c], handler(c))
			}
		}
	}
	var m orderModel
	var want []orderStep
	compare := func(stage string) {
		t.Helper()
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("%s: step %d: kernel ran %v, model %v (kernel %d steps, model %d)",
					stage, i, stepAt(got, i), want[i], len(got), len(want))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: kernel ran %d events, model %d", stage, len(got), len(want))
		}
		if k.Now() != m.now || k.Pending() != m.pending() {
			t.Fatalf("%s: kernel now=%d pending=%d, model now=%d pending=%d",
				stage, k.Now(), k.Pending(), m.now, m.pending())
		}
	}
	for c := 0; c < orderChunks; c++ {
		for i := range p.parent {
			if p.parent[i] == -1-c {
				k.Schedule(p.delay[i], handler(i))
				m.schedule(i, p.delay[i])
			}
		}
		until := Time(c+1) * orderChunkSpan
		k.Run(until)
		want = append(want, m.drain(p, until)...)
		m.arrive(until)
		compare("chunk")
	}
	k.RunAll()
	want = append(want, m.drain(p, Forever)...)
	compare("RunAll")
}

func stepAt(s []orderStep, i int) any {
	if i < len(s) {
		return s[i]
	}
	return "nothing"
}

// TestKernelOrderModel checks the kernel against orderModel on random
// programs: nested scheduling, equal-time far events, far events joining
// buckets that near events reached first, and outside scheduling between
// Run chunks.
func TestKernelOrderModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		data := make([]byte, 2*(1+rng.Intn(300)))
		rng.Read(data)
		checkKernelOrder(t, data)
	}
}

// FuzzKernelOrder is TestKernelOrderModel's body on fuzzed programs.
//
//	go test ./internal/sim -run '^$' -fuzz '^FuzzKernelOrder$' -fuzztime 10s
func FuzzKernelOrder(f *testing.F) {
	f.Add([]byte{0, 13, 1, 10, 2, 11, 0, 12, 4, 9})
	f.Add([]byte{0, 14, 4, 14, 8, 14, 1, 0, 2, 13, 3, 1})
	f.Fuzz(checkKernelOrder)
}
