package coherence

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/sim"
)

// cellLine is rAddr's line: slice 0, whose directory sits at core 0.
const (
	cellCore = 10
	cellLine = uint64(0x1000)
)

// ctrlSent is one message a core controller emitted: its type, its
// destination, and its Stale and HadShared flags.
type ctrlSent struct {
	typ   MsgType
	to    int
	stale bool
	data  bool
}

// ctrlRig is a pipeFixture machine whose core cellCore a TestCtrlCells row
// puts into one controller state before delivering the row's message.
type ctrlRig struct {
	t    *testing.T
	k    *sim.Kernel
	s    *System
	p    *pipeNet
	c    *Ctrl
	open bool // an access issue started has not completed
}

// shared leaves cellLine Shared in both caches.
func (r *ctrlRig) shared() { load(r.t, r.k, r.s, r.p, cellCore, rAddr) }

// modified leaves cellLine Modified in both caches.
func (r *ctrlRig) modified() { store(r.t, r.k, r.s, r.p, cellCore, rAddr, 1) }

// issue starts an access to cellLine and drops the request it sends.
func (r *ctrlRig) issue(op AccessOp) {
	r.open = true
	r.k.Schedule(0, func() {
		r.s.Access(cellCore, op, rAddr, 7, func(v uint64) uint64 { return v + 1 }, func(uint64) { r.open = false })
	})
	r.k.RunAll()
	r.p.outbox = nil
}

// evict makes cellLine a Shared line whose EvictS is in flight.
func (r *ctrlRig) evict() {
	r.shared()
	r.c.evicting[cellLine] = true
	r.c.invalidateLocal(cellLine)
}

// evictAcked makes cellLine a line whose eviction the directory processed
// at seq.
func (r *ctrlRig) evictAcked(seq uint16) {
	r.evict()
	r.c.handleUnicast(&Msg{Type: MsgEvictAck, Line: cellLine, From: 0, Slice: 0, Seq: seq})
}

// bcast delivers a broadcast invalidation of cellLine stamped seq.
func (r *ctrlRig) bcast(seq uint16) {
	r.c.handleBcast(&Msg{Type: MsgInvBcast, Line: cellLine, From: 0, Slice: 0, Seq: seq})
}

// crowd fills cellLine's L2 set with other lines of slice 0, so that the
// next fill of cellLine evicts the first of them: Modified if dirty.
func (r *ctrlRig) crowd(dirty bool) {
	for i := 1; i <= r.c.l2.assoc; i++ {
		addr := rAddr + uint64(i*r.c.l2.sets)*64
		if i == 1 && dirty {
			store(r.t, r.k, r.s, r.p, cellCore, addr, 1)
		} else {
			load(r.t, r.k, r.s, r.p, cellCore, addr)
		}
	}
}

// ctrlCellRow is one cell of the core controller: a hand-built state, one
// delivered message, and everything the delivery changes.
type ctrlCellRow struct {
	name  string
	dirKB bool
	setup func(r *ctrlRig)
	in    Msg // Line, From and Slice are filled in
	// panics: the cell is impossible and the controller says so.
	panics bool
	sent   []ctrlSent // after the kernel drains
	l1, l2 State
	open   bool // the access is still pending once the kernel drains
	// Lengths of bcastBuf[cellLine], uniBuf[0] and killSeq.
	bbuf, ubuf, kill int
	// Deltas of L2TagProbes, ReorderBufferedBcast and ReorderBufferedUni.
	probes, bufB, bufU uint64
	events             int // kernel events the delivery itself schedules
}

var (
	ackTo0 = []ctrlSent{{MsgInvAck, 0, false, false}}
	inv    = Msg{Type: MsgInv}
	bc     = func(seq uint16) Msg { return Msg{Type: MsgInvBcast, Seq: seq} }
)

// ctrlCells is every cell TestCtrlCells pins, named as ctrlCell names the
// cells a delivery reaches. Core cellCore receives; the directory of
// cellLine's slice is at core 0.
var ctrlCells = []ctrlCellRow{
	// Unicast probes.
	{name: "Inv/Shared", setup: (*ctrlRig).shared, in: inv,
		sent: ackTo0, probes: 1},
	{name: "Inv/Shared/HadShared", setup: (*ctrlRig).shared, in: Msg{Type: MsgInv, HadShared: true},
		sent: []ctrlSent{{MsgInvAckData, 0, false, false}}, probes: 1},
	{name: "Inv/Invalid", in: inv,
		sent: ackTo0, probes: 1},
	{name: "Inv/Modified", setup: (*ctrlRig).modified, in: inv, panics: true},
	{name: "WBReq/Modified", setup: (*ctrlRig).modified, in: Msg{Type: MsgWBReq},
		sent: []ctrlSent{{MsgWBRep, 0, false, false}}, l1: Shared, l2: Shared, probes: 1},
	{name: "WBReq/Invalid", in: Msg{Type: MsgWBReq},
		sent: []ctrlSent{{MsgWBRep, 0, true, false}}, probes: 1},
	{name: "FlushReq/Modified", setup: (*ctrlRig).modified, in: Msg{Type: MsgFlushReq},
		sent: []ctrlSent{{MsgFlushRep, 0, false, false}}, probes: 1},
	{name: "FlushReq/Invalid", in: Msg{Type: MsgFlushReq},
		sent: []ctrlSent{{MsgFlushRep, 0, true, false}}, probes: 1},

	// Grants.
	{name: "ShRep/load", setup: func(r *ctrlRig) { r.issue(OpLoad) }, in: Msg{Type: MsgShRep},
		l1: Shared, l2: Shared, events: 1},
	{name: "ExRep/write", setup: func(r *ctrlRig) { r.issue(OpStore) }, in: Msg{Type: MsgExRep},
		l1: Modified, l2: Modified, events: 1},
	{name: "ExRep/write/L2Shared", setup: func(r *ctrlRig) { r.shared(); r.issue(OpStore) }, in: Msg{Type: MsgExRep},
		l1: Modified, l2: Modified, events: 1},
	{name: "UpgRep/write", setup: func(r *ctrlRig) { r.shared(); r.issue(OpRMW) }, in: Msg{Type: MsgUpgRep},
		l1: Modified, l2: Modified, events: 1},
	{name: "ShRep/none", in: Msg{Type: MsgShRep}, panics: true},
	{name: "ExRep/load", setup: func(r *ctrlRig) { r.issue(OpLoad) }, in: Msg{Type: MsgExRep}, panics: true},
	{name: "ShRep/write", setup: func(r *ctrlRig) { r.issue(OpStore) }, in: Msg{Type: MsgShRep}, panics: true},

	// Victims of the grant's L2 fill.
	{name: "ShRep/load/victimS", setup: func(r *ctrlRig) { r.crowd(false); r.issue(OpLoad) }, in: Msg{Type: MsgShRep},
		sent: []ctrlSent{{MsgEvictS, 0, false, false}}, l1: Shared, l2: Shared, events: 1},
	{name: "DirKB/ShRep/load/victimS", dirKB: true, setup: func(r *ctrlRig) { r.crowd(false); r.issue(OpLoad) },
		in: Msg{Type: MsgShRep}, l1: Shared, l2: Shared, events: 1},
	{name: "ShRep/load/victimM", setup: func(r *ctrlRig) { r.crowd(true); r.issue(OpLoad) }, in: Msg{Type: MsgShRep},
		sent: []ctrlSent{{MsgEvictM, 0, false, false}}, l1: Shared, l2: Shared, events: 1},
	{name: "ExRep/write/victimS", setup: func(r *ctrlRig) { r.crowd(false); r.issue(OpStore) }, in: Msg{Type: MsgExRep},
		sent: []ctrlSent{{MsgEvictS, 0, false, false}}, l1: Modified, l2: Modified, events: 1},
	{name: "DirKB/ExRep/write/victimS", dirKB: true, setup: func(r *ctrlRig) { r.crowd(false); r.issue(OpStore) },
		in: Msg{Type: MsgExRep}, l1: Modified, l2: Modified, events: 1},
	{name: "ExRep/write/victimM", setup: func(r *ctrlRig) { r.crowd(true); r.issue(OpStore) }, in: Msg{Type: MsgExRep},
		sent: []ctrlSent{{MsgEvictM, 0, false, false}}, l1: Modified, l2: Modified, events: 1},

	// A shared grant against the broadcasts buffered behind it (Section
	// IV-C1): one issued before the grant is dropped, a newer one is
	// processed a cycle after it.
	{name: "ShRep/load/bcastBuf/older", setup: func(r *ctrlRig) { r.issue(OpLoad); r.bcast(1) },
		in: Msg{Type: MsgShRep, Seq: 1}, l1: Shared, l2: Shared, events: 1},
	{name: "ShRep/load/bcastBuf/newer", setup: func(r *ctrlRig) { r.issue(OpLoad); r.bcast(5) },
		in: Msg{Type: MsgShRep}, sent: ackTo0, probes: 1, events: 2},

	// DirKB: a broadcast that overtook the shared grant.
	{name: "DirKB/ShRep/load/killSeq/older", dirKB: true, setup: func(r *ctrlRig) { r.issue(OpLoad); r.bcast(1); r.p.outbox = nil },
		in: Msg{Type: MsgShRep, Seq: 1}, l1: Shared, l2: Shared, events: 1},
	{name: "DirKB/ShRep/load/killSeq/newer", dirKB: true, setup: func(r *ctrlRig) { r.issue(OpLoad); r.bcast(5); r.p.outbox = nil },
		in: Msg{Type: MsgShRep}, events: 2},

	// EvictAck against the broadcasts buffered behind the eviction.
	{name: "EvictAck/none", setup: (*ctrlRig).evict, in: Msg{Type: MsgEvictAck, Seq: 2}},
	{name: "EvictAck/bcastBuf/older", setup: func(r *ctrlRig) { r.evict(); r.bcast(1) },
		in: Msg{Type: MsgEvictAck, Seq: 1}, sent: ackTo0},
	{name: "EvictAck/bcastBuf/newer", setup: func(r *ctrlRig) { r.evict(); r.bcast(3) },
		in: Msg{Type: MsgEvictAck}},
	{name: "EvictAck/bcastBuf/newer/reRequest", setup: func(r *ctrlRig) { r.evict(); r.issue(OpLoad); r.bcast(3) },
		in: Msg{Type: MsgEvictAck}, open: true, bbuf: 1},

	// The gate: a unicast newer than the last broadcast waits for it.
	{name: "Gate/held", in: Msg{Type: MsgInv, Seq: 1}, ubuf: 1, bufU: 1},
	{name: "Gate/released", setup: func(r *ctrlRig) { r.c.handleUnicast(&Msg{Type: MsgInv, Line: cellLine, Seq: 1}) },
		in: bc(1), sent: ackTo0, probes: 2},

	// ACKwise broadcasts.
	{name: "Bcast/pendingShared", setup: func(r *ctrlRig) { r.issue(OpLoad) }, in: bc(1),
		open: true, bbuf: 1, bufB: 1},
	// The cell behind the ACKwise deadlock: if the EvictS waits in the
	// directory's queue behind the broadcasting transaction, the buffered
	// broadcast is never acked and the transaction never ends.
	{name: "Bcast/evicting", setup: (*ctrlRig).evict, in: bc(1), bbuf: 1, bufB: 1},
	{name: "Bcast/evicting/pendingShared", setup: func(r *ctrlRig) { r.evict(); r.issue(OpLoad) }, in: bc(1),
		open: true, bbuf: 1, bufB: 1},
	{name: "Bcast/Shared", setup: (*ctrlRig).shared, in: bc(1), sent: ackTo0, probes: 1},
	{name: "Bcast/Shared/upgradePending", setup: func(r *ctrlRig) { r.shared(); r.issue(OpStore) }, in: bc(1),
		sent: ackTo0, open: true, probes: 1},
	{name: "Bcast/Invalid/evictedAt", setup: func(r *ctrlRig) { r.evictAcked(2) }, in: bc(2), sent: ackTo0, probes: 1},
	{name: "Bcast/Invalid/evictedAt/older", setup: func(r *ctrlRig) { r.evictAcked(0) }, in: bc(3), probes: 1},
	{name: "Bcast/holderClear", in: bc(1), probes: 1},
	{name: "Bcast/Modified", setup: (*ctrlRig).modified, in: bc(1), panics: true},

	// DirKB broadcasts: every core acknowledges.
	{name: "DirKB/Bcast/Shared", dirKB: true, setup: (*ctrlRig).shared, in: bc(1), sent: ackTo0, probes: 1},
	{name: "DirKB/Bcast/pendingShared", dirKB: true, setup: func(r *ctrlRig) { r.issue(OpLoad) }, in: bc(1),
		sent: ackTo0, open: true, kill: 1, probes: 1},
	{name: "DirKB/Bcast/Invalid", dirKB: true, in: bc(1), sent: ackTo0, probes: 1},
	{name: "DirKB/Bcast/Modified", dirKB: true, setup: (*ctrlRig).modified, in: bc(1),
		sent: ackTo0, l1: Modified, l2: Modified, probes: 1},
}

// TestCtrlCells pins every cell of the core controller, one hand-built
// state a row: after the row's one message is delivered and the kernel
// drains, the messages sent, the L1 and L2 state of the line, whether the
// access is still pending, the reorder buffers, the counters the delivery
// moves and the kernel events it schedules. Impossible cells panic.
func TestCtrlCells(t *testing.T) {
	for _, row := range ctrlCells {
		t.Run(row.name, func(t *testing.T) {
			k, s, p := pipeFixture(t)
			if row.dirKB {
				s.Cfg.Coherence.Kind = config.DirKB
			}
			r := &ctrlRig{t: t, k: k, s: s, p: p, c: s.ctrls[cellCore]}
			if row.setup != nil {
				row.setup(r)
			}
			if len(p.outbox) > 0 || k.Pending() > 0 {
				t.Fatalf("setup left %d message(s) and %d event(s)", len(p.outbox), k.Pending())
			}
			st := s.Stats()
			probes0, bufB0, bufU0 := st.L2TagProbes, st.ReorderBufferedBcast, st.ReorderBufferedUni

			m := row.in
			m.Line, m.From, m.Slice = cellLine, 0, 0
			deliver := r.c.handleUnicast
			if m.Type == MsgInvBcast {
				deliver = r.c.handleBcast
			}
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				deliver(&m)
				return false
			}()
			if panicked != row.panics {
				t.Fatalf("panicked = %v, want %v", panicked, row.panics)
			}
			if row.panics {
				return
			}
			events := k.Pending()
			k.RunAll()

			var got []ctrlSent
			for _, nm := range p.outbox {
				m := nm.Payload.(*Msg)
				got = append(got, ctrlSent{m.Type, nm.Dst, m.Stale, m.HadShared})
			}
			if !slices.Equal(got, row.sent) {
				t.Errorf("sent %v, want %v", got, row.sent)
			}
			if l1, l2 := r.c.l1.peek(cellLine), r.c.l2.peek(cellLine); l1 != row.l1 || l2 != row.l2 {
				t.Errorf("L1 %v, L2 %v, want %v, %v", l1, l2, row.l1, row.l2)
			}
			if r.open != row.open {
				t.Errorf("access pending = %v, want %v", r.open, row.open)
			}
			ubuf := 0
			if r.c.uniBuf != nil {
				ubuf = len(r.c.uniBuf[0])
			}
			if gotB := [3]int{len(r.c.bcastBuf[cellLine]), ubuf, len(r.c.killSeq)}; gotB != [3]int{row.bbuf, row.ubuf, row.kill} {
				t.Errorf("bcastBuf, uniBuf, killSeq lengths %v, want %v", gotB, [3]int{row.bbuf, row.ubuf, row.kill})
			}
			gotD := [3]uint64{st.L2TagProbes - probes0, st.ReorderBufferedBcast - bufB0, st.ReorderBufferedUni - bufU0}
			if wantD := [3]uint64{row.probes, row.bufB, row.bufU}; gotD != wantD {
				t.Errorf("L2TagProbes, ReorderBufferedBcast, ReorderBufferedUni moved by %v, want %v", gotD, wantD)
			}
			if events != row.events {
				t.Errorf("delivery scheduled %d event(s), want %d", events, row.events)
			}
		})
	}
}

// ctrlCell names the cell of the core controller that delivering m to c
// reaches, in ctrlCells' names. It reads the controller's state before the
// delivery. A cell whose effect differs between the protocols carries a
// "DirKB/" prefix under DirKB.
func ctrlCell(c *Ctrl, m *Msg) string {
	line := m.Line
	dirKB := c.s.Cfg.Coherence.Kind == config.DirKB
	pendLine := c.pend != nil && c.pend.line == line
	pendSh := pendLine && c.pend.op == OpLoad
	l2 := c.l2.peek(line)
	name := []string{m.Type.String()}
	add := func(parts ...string) { name = append(name, parts...) }
	proto := func() {
		if dirKB && name[0] != "DirKB" {
			name = append([]string{"DirKB"}, name...)
		}
	}
	newer := func(seq uint16) string {
		if seqLE(seq, m.Seq) {
			return "older"
		}
		return "newer"
	}

	if m.Type == MsgInvBcast {
		if q := c.uniBuf; q != nil && len(q[m.Slice]) > 0 && seqLE(q[m.Slice][0].Seq, m.Seq) {
			return "Gate/released"
		}
		name[0] = "Bcast"
		evictedAt, recorded := c.evictedAt[line]
		switch {
		case dirKB && c.mayHold(line) && l2 == Shared:
			add("Shared")
		case dirKB && pendSh:
			add("pendingShared")
		case dirKB:
			add(stateName(l2))
		case c.evicting[line] && pendSh:
			add("evicting", "pendingShared")
		case c.evicting[line]:
			add("evicting")
		case pendSh:
			add("pendingShared")
		case !c.mayHold(line):
			add("holderClear")
		case l2 == Shared && pendLine:
			add("Shared", "upgradePending")
		case l2 == Invalid && recorded && seqLE(m.Seq, evictedAt):
			add("Invalid", "evictedAt")
		case l2 == Invalid && recorded:
			add("Invalid", "evictedAt", "older")
		default:
			add(stateName(l2))
		}
		proto()
		return strings.Join(name, "/")
	}

	if m.Type != MsgEvictAck && !seqLE(m.Seq, c.lastSeq[m.Slice]) {
		return "Gate/held"
	}
	switch m.Type {
	case MsgInv:
		add(stateName(l2))
		if l2 == Shared && m.HadShared {
			add("HadShared")
		}
	case MsgWBReq, MsgFlushReq:
		add(stateName(l2))
	case MsgShRep, MsgExRep, MsgUpgRep:
		if !pendLine {
			add("none")
			break
		}
		if c.pend.op == OpLoad {
			add("load")
		} else {
			add("write")
		}
		if (m.Type == MsgShRep) != pendSh {
			break
		}
		if m.Type == MsgExRep && l2 != Invalid {
			add("L2Shared")
		}
		if buf := c.bcastBuf[line]; m.Type == MsgShRep && len(buf) > 0 {
			var ages []string
			for _, b := range buf {
				if a := newer(b.Seq); !slices.Contains(ages, a) {
					ages = append(ages, a)
				}
			}
			sort.Strings(ages)
			add("bcastBuf", strings.Join(ages, "+"))
		}
		if kill, ok := c.killSeq[line]; ok {
			add("killSeq", newer(kill))
			proto()
		}
		if ways := c.l2.ways(line); l2 == Invalid && len(ways) == c.l2.assoc {
			full := true
			for i := range ways {
				full = full && ways[i].state() != Invalid
			}
			if v := ways[len(ways)-1].state(); full && v == Shared {
				add("victimS")
				proto()
			} else if full {
				add("victimM")
			}
		}
	case MsgEvictAck:
		buf := c.bcastBuf[line]
		if len(buf) == 0 {
			add("none")
			break
		}
		var kinds []string
		for _, b := range buf {
			k := newer(b.Seq)
			if k == "newer" && pendSh {
				k = "newer/reRequest"
			}
			if !slices.Contains(kinds, k) {
				kinds = append(kinds, k)
			}
		}
		sort.Strings(kinds)
		add("bcastBuf", strings.Join(kinds, "+"))
	}
	return strings.Join(name, "/")
}

// stateName spells a state as the cell names do.
func stateName(s State) string {
	return [...]string{"Invalid", "Shared", "Modified"}[s]
}

// TestCtrlCellReach runs random-stress traffic on 16-core machines (mesh
// and ATAC+, ACKwise and DirKB, one sharer pointer, 1 KB caches) with the
// network's deliver callback wrapped to name the cell of every message a
// core controller receives. It fails on a cell that is not a TestCtrlCells
// row, and on a row no run reaches that is not listed below with the
// reason (or that is listed but reached).
func TestCtrlCellReach(t *testing.T) {
	const (
		panics    = "impossible: panics"
		evictRace = "only the hand-built races (reorder_test.go): every stress run that buffers a broadcast behind an eviction deadlocks before the EvictAck (the ACKwise deadlock CHANGES.md records), so no completing seed has one"
		overtake  = "only the hand-built races (reorder_test.go): no run here reorders a broadcast against a grant or EvictAck of the same line"
	)
	unreached := map[string]string{
		"Inv/Modified":                      panics,
		"ShRep/none":                        panics,
		"ExRep/load":                        panics,
		"ShRep/write":                       panics,
		"Bcast/Modified":                    panics,
		"DirKB/Bcast/Modified":              "impossible: a broadcast invalidates a line the directory holds Shared, which no core holds Modified",
		"ExRep/write/L2Shared":              "impossible: a requester that still holds its Shared copy gets UpgRep, or the directory invalidates the copy and awaits its ack before it sends ExRep",
		"Bcast/evicting":                    evictRace,
		"Bcast/evicting/pendingShared":      evictRace,
		"EvictAck/bcastBuf/older":           evictRace,
		"EvictAck/bcastBuf/newer":           evictRace,
		"EvictAck/bcastBuf/newer/reRequest": evictRace,
		"Bcast/Invalid/evictedAt":           overtake,
		"ShRep/load/bcastBuf/newer":         overtake,
		"DirKB/ShRep/load/killSeq/newer":    overtake,
	}
	rows := map[string]bool{}
	for _, row := range ctrlCells {
		rows[row.name] = true
	}
	reached := map[string]int{}
	for _, tc := range []struct {
		kind  config.CoherenceKind
		atac  bool
		lines int
		seed  int64
	}{
		{config.ACKwise, false, 32, 11},
		{config.ACKwise, false, 256, 4},
		{config.ACKwise, true, 32, 11},
		{config.ACKwise, true, 256, 4},
		{config.DirKB, false, 32, 11},
		{config.DirKB, false, 256, 4},
		{config.DirKB, true, 32, 11},
		{config.DirKB, true, 256, 4},
	} {
		net := "mesh"
		build := fixture
		if tc.atac {
			net, build = "ATAC+", atacFixture
		}
		t.Run(fmt.Sprintf("%v/%s/%dlines", tc.kind, net, tc.lines), func(t *testing.T) {
			k, s := build(t, func(c *config.Config) {
				c.Coherence.Kind = tc.kind
				c.Coherence.Sharers = 1
				c.Caches.L1DKB = 1
				c.Caches.L2KB = 1
			})
			s.Net.SetDeliver(func(dst int, nm *noc.Message) {
				m := nm.Payload.(*Msg)
				switch m.Type {
				case MsgInvBcast, MsgInv, MsgWBReq, MsgFlushReq, MsgShRep, MsgExRep, MsgUpgRep, MsgEvictAck:
					cell := ctrlCell(s.ctrls[dst], m)
					if !rows[cell] && reached[cell] == 0 {
						t.Errorf("core %d reached cell %q, which no TestCtrlCells row pins (%v)", dst, cell, m)
					}
					reached[cell]++
				}
				s.onDeliver(dst, nm)
			})
			randomStress(t, k, s, tc.seed, 60, tc.lines)
		})
	}
	if t.Failed() {
		return
	}
	var names []string
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		why, listed := unreached[name]
		switch n := reached[name]; {
		case n == 0 && !listed:
			t.Errorf("no run reaches cell %q: reach it or list it with a reason", name)
		case n > 0 && listed:
			t.Errorf("cell %q is listed as unreached (%s) but the runs reach it %d time(s)", name, why, n)
		case n == 0:
			t.Logf("%-36s unreached: %s", name, why)
		default:
			t.Logf("%-36s %d", name, n)
		}
	}
}
