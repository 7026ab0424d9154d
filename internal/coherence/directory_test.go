package coherence

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/noc"
)

// sent is one message a directory slice emitted: its type, destination
// and HadShared flag (on an Inv, "send the data along").
type sent struct {
	typ  MsgType
	to   int
	data bool
}

// Stand-in destinations and sources a cell row names before the machine
// is built: the line's memory controller and the network broadcast.
const (
	toMem   = -2
	toBcast = noc.BroadcastDst
)

// cellIn is one response a row delivers to the directory: its type, the
// core it comes from (toMem for the memory controller) and whether the
// responder no longer held the line.
type cellIn struct {
	typ   MsgType
	from  int
	stale bool
}

// cellStep delivers its responses in order, then expects exactly out to
// have been sent.
type cellStep struct {
	in  []cellIn
	out []sent
}

// cellEntry is a directory entry's protocol fields.
type cellEntry struct {
	state   State
	owner   int
	sharers []int
	global  bool
	count   int
}

func (c cellEntry) String() string {
	return fmt.Sprintf("{%v owner=%d sharers=%v global=%v count=%d}", c.state, c.owner, c.sharers, c.global, c.count)
}

// acksFrom returns an InvAck from every listed core.
func acksFrom(cores ...int) []cellIn {
	in := make([]cellIn, len(cores))
	for i, c := range cores {
		in[i] = cellIn{MsgInvAck, c, false}
	}
	return in
}

// allCores lists cores 0..n-1.
func allCores(n int) []int {
	cs := make([]int, n)
	for i := range cs {
		cs[i] = i
	}
	return cs
}

// TestDirRequestCells pins every (request, line state) cell of the
// directory's ShReq and ExReq service, one hand-built entry a row: the
// messages the slice sends after the request and after each response, the
// entry it leaves, and the directory counters it moves. Core 9 requests;
// cores 5 and 6 are the other holders.
func TestDirRequestCells(t *testing.T) {
	const (
		line = uint64(0x1000)
		c    = 9
	)
	memRsp := cellIn{MsgMemRsp, toMem, false}
	fromMem := []cellStep{
		{nil, []sent{{MsgMemRead, toMem, false}}},
	}
	rows := []struct {
		name   string
		kind   config.CoherenceKind
		k      int // hardware sharer pointers (0: ACKwise1's 1)
		req    MsgType
		had    bool // ExReq's HadShared
		before cellEntry
		steps  []cellStep // the first delivers the request itself
		after  cellEntry
		// Counter deltas: DirAccesses, InvUnicasts, InvBroadcasts,
		// UpgradeFastPath.
		dir, uni, bcast, upg uint64
	}{
		// ShReq.
		{name: "ShReq/Invalid", req: MsgShReq,
			before: cellEntry{state: Invalid, owner: -1},
			steps:  append(fromMem, cellStep{[]cellIn{memRsp}, []sent{{MsgShRep, c, false}}}),
			after:  cellEntry{state: Shared, owner: -1, sharers: []int{c}},
			dir:    1},
		{name: "ShReq/Shared/listed", req: MsgShReq,
			before: cellEntry{state: Shared, owner: -1, sharers: []int{c}},
			steps:  append(fromMem, cellStep{[]cellIn{memRsp}, []sent{{MsgShRep, c, false}}}),
			after:  cellEntry{state: Shared, owner: -1, sharers: []int{c}},
			dir:    1},
		{name: "ShReq/Shared/unlisted", k: 2, req: MsgShReq,
			before: cellEntry{state: Shared, owner: -1, sharers: []int{5}},
			steps:  append(fromMem, cellStep{[]cellIn{memRsp}, []sent{{MsgShRep, c, false}}}),
			after:  cellEntry{state: Shared, owner: -1, sharers: []int{5, c}},
			dir:    1},
		{name: "ShReq/Shared/overflow", req: MsgShReq,
			before: cellEntry{state: Shared, owner: -1, sharers: []int{5}},
			steps:  append(fromMem, cellStep{[]cellIn{memRsp}, []sent{{MsgShRep, c, false}}}),
			after:  cellEntry{state: Shared, owner: -1, global: true, count: 2},
			dir:    1},
		{name: "ShReq/Shared/global", req: MsgShReq,
			before: cellEntry{state: Shared, owner: -1, global: true, count: 2},
			steps:  append(fromMem, cellStep{[]cellIn{memRsp}, []sent{{MsgShRep, c, false}}}),
			after:  cellEntry{state: Shared, owner: -1, global: true, count: 3},
			dir:    1},
		{name: "ShReq/Shared/global/DirKB", kind: config.DirKB, req: MsgShReq,
			before: cellEntry{state: Shared, owner: -1, global: true, count: 2},
			steps:  append(fromMem, cellStep{[]cellIn{memRsp}, []sent{{MsgShRep, c, false}}}),
			after:  cellEntry{state: Shared, owner: -1, global: true, count: 3},
			dir:    1},
		{name: "ShReq/Modified/requestor", req: MsgShReq,
			before: cellEntry{state: Modified, owner: c},
			steps:  append(fromMem, cellStep{[]cellIn{memRsp}, []sent{{MsgShRep, c, false}}}),
			after:  cellEntry{state: Shared, owner: -1, sharers: []int{c}},
			dir:    1},
		{name: "ShReq/Modified/other/fresh", req: MsgShReq,
			before: cellEntry{state: Modified, owner: 5},
			steps: []cellStep{
				{nil, []sent{{MsgWBReq, 5, false}}},
				{[]cellIn{{MsgWBRep, 5, false}}, []sent{{MsgShRep, c, false}}},
			},
			after: cellEntry{state: Shared, owner: -1, sharers: []int{5, c}},
			dir:   1},
		{name: "ShReq/Modified/other/stale", req: MsgShReq,
			before: cellEntry{state: Modified, owner: 5},
			steps: []cellStep{
				{nil, []sent{{MsgWBReq, 5, false}}},
				{[]cellIn{{MsgWBRep, 5, true}}, []sent{{MsgMemRead, toMem, false}}},
				{[]cellIn{memRsp}, []sent{{MsgShRep, c, false}}},
			},
			after: cellEntry{state: Shared, owner: -1, sharers: []int{c}},
			dir:   1},

		// ExReq.
		{name: "ExReq/Invalid", req: MsgExReq,
			before: cellEntry{state: Invalid, owner: -1},
			steps:  append(fromMem, cellStep{[]cellIn{memRsp}, []sent{{MsgExRep, c, false}}}),
			after:  cellEntry{state: Modified, owner: c},
			dir:    1},
		{name: "ExReq/Shared/upgrade", req: MsgExReq, had: true,
			before: cellEntry{state: Shared, owner: -1, sharers: []int{c}},
			steps:  []cellStep{{nil, []sent{{MsgUpgRep, c, false}}}},
			after:  cellEntry{state: Modified, owner: c},
			dir:    1, upg: 1},
		{name: "ExReq/Shared/others/hadShared", req: MsgExReq, had: true,
			before: cellEntry{state: Shared, owner: -1, sharers: []int{5, c}},
			steps: []cellStep{
				{nil, []sent{{MsgInv, 5, false}}},
				{acksFrom(5), []sent{{MsgUpgRep, c, false}}},
			},
			after: cellEntry{state: Modified, owner: c},
			dir:   1, uni: 1},
		{name: "ExReq/Shared/others/hadShared/unlisted", req: MsgExReq, had: true,
			before: cellEntry{state: Shared, owner: -1, sharers: []int{5}},
			steps: []cellStep{
				{nil, []sent{{MsgInv, 5, true}}},
				{[]cellIn{{MsgInvAckData, 5, false}}, []sent{{MsgExRep, c, false}}},
			},
			after: cellEntry{state: Modified, owner: c},
			dir:   1, uni: 1},
		{name: "ExReq/Shared/others", req: MsgExReq,
			before: cellEntry{state: Shared, owner: -1, sharers: []int{5, 6}},
			steps: []cellStep{
				{nil, []sent{{MsgInv, 5, true}, {MsgInv, 6, false}}},
				{acksFrom(6), nil},
				{[]cellIn{{MsgInvAckData, 5, false}}, []sent{{MsgExRep, c, false}}},
			},
			after: cellEntry{state: Modified, owner: c},
			dir:   1, uni: 2},
		{name: "ExReq/Shared/others/dataLost", req: MsgExReq,
			before: cellEntry{state: Shared, owner: -1, sharers: []int{5}},
			steps: []cellStep{
				{nil, []sent{{MsgInv, 5, true}}},
				{acksFrom(5), []sent{{MsgMemRead, toMem, false}}},
				{[]cellIn{memRsp}, []sent{{MsgExRep, c, false}}},
			},
			after: cellEntry{state: Modified, owner: c},
			dir:   1, uni: 1},
		{name: "ExReq/Shared/requestorOnly", req: MsgExReq,
			before: cellEntry{state: Shared, owner: -1, sharers: []int{c}},
			steps:  append(fromMem, cellStep{[]cellIn{memRsp}, []sent{{MsgExRep, c, false}}}),
			after:  cellEntry{state: Modified, owner: c},
			dir:    1},
		{name: "ExReq/Shared/global", req: MsgExReq, had: true,
			before: cellEntry{state: Shared, owner: -1, global: true, count: 2},
			steps: []cellStep{
				{nil, []sent{{MsgInvBcast, toBcast, false}, {MsgMemRead, toMem, false}}},
				{[]cellIn{memRsp}, nil},
				{acksFrom(5, 6), []sent{{MsgExRep, c, false}}},
			},
			after: cellEntry{state: Modified, owner: c},
			dir:   1, bcast: 1},
		{name: "ExReq/Shared/global/DirKB", kind: config.DirKB, req: MsgExReq,
			before: cellEntry{state: Shared, owner: -1, global: true, count: 2},
			steps: []cellStep{
				{nil, []sent{{MsgInvBcast, toBcast, false}, {MsgMemRead, toMem, false}}},
				{acksFrom(allCores(15)...), nil},
				{[]cellIn{memRsp}, nil},
				{acksFrom(15), []sent{{MsgExRep, c, false}}},
			},
			after: cellEntry{state: Modified, owner: c},
			dir:   1, bcast: 1},
		{name: "ExReq/Modified/requestor", req: MsgExReq,
			before: cellEntry{state: Modified, owner: c},
			steps:  append(fromMem, cellStep{[]cellIn{memRsp}, []sent{{MsgExRep, c, false}}}),
			after:  cellEntry{state: Modified, owner: c},
			dir:    1},
		{name: "ExReq/Modified/other/fresh", req: MsgExReq,
			before: cellEntry{state: Modified, owner: 5},
			steps: []cellStep{
				{nil, []sent{{MsgFlushReq, 5, false}}},
				{[]cellIn{{MsgFlushRep, 5, false}}, []sent{{MsgExRep, c, false}}},
			},
			after: cellEntry{state: Modified, owner: c},
			dir:   1},
		{name: "ExReq/Modified/other/stale", req: MsgExReq,
			before: cellEntry{state: Modified, owner: 5},
			steps: []cellStep{
				{nil, []sent{{MsgFlushReq, 5, false}}},
				{[]cellIn{{MsgFlushRep, 5, true}}, []sent{{MsgMemRead, toMem, false}}},
				{[]cellIn{memRsp}, []sent{{MsgExRep, c, false}}},
			},
			after: cellEntry{state: Modified, owner: c},
			dir:   1},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			k, s, p := pipeFixture(t)
			s.Cfg.Coherence.Kind = row.kind
			if row.k > 0 {
				s.Cfg.Coherence.Sharers = row.k
			}
			slice := s.SliceOf(line)
			dirCore := s.Cfg.DirCore(slice)
			memCore := s.MemCtrlFor(line).Core
			d := s.dirs[slice]
			e := d.entry(line)
			b := row.before
			e.state, e.owner, e.sharers, e.global, e.count = b.state, b.owner, slices.Clone(b.sharers), b.global, b.count
			st := s.Stats()
			dir0, uni0, bcast0, upg0 := st.DirAccesses, st.InvUnicasts, st.InvBroadcasts, st.UpgradeFastPath

			deliver := func(typ MsgType, from int, stale, had bool) {
				m := &Msg{Type: typ, Line: line, From: from, Slice: slice, HadShared: had, Stale: stale}
				p.deliverTo(dirCore, m.envelope(from, dirCore))
				k.RunAll()
			}
			for i, step := range row.steps {
				if i == 0 {
					deliver(row.req, c, false, row.had)
				}
				for _, in := range step.in {
					from := in.from
					if from == toMem {
						from = memCore
					}
					deliver(in.typ, from, in.stale, false)
				}
				var got []sent
				for _, nm := range p.outbox {
					m := nm.Payload.(*Msg)
					got = append(got, sent{m.Type, nm.Dst, m.HadShared})
				}
				p.outbox = nil
				var want []sent
				for _, w := range step.out {
					if w.to == toMem {
						w.to = memCore
					}
					want = append(want, w)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("step %d sent %v, want %v", i, got, want)
				}
			}

			after := cellEntry{e.state, e.owner, e.sharers, e.global, e.count}
			if len(after.sharers) == 0 {
				after.sharers = nil
			}
			if after.String() != row.after.String() {
				t.Errorf("entry after %v, want %v", after, row.after)
			}
			if e.busy || e.tr != nil || len(e.queue) > 0 {
				t.Errorf("line left busy=%v tr=%v queue=%d", e.busy, e.tr != nil, len(e.queue))
			}
			gotD := [4]uint64{st.DirAccesses - dir0, st.InvUnicasts - uni0, st.InvBroadcasts - bcast0, st.UpgradeFastPath - upg0}
			if wantD := [4]uint64{row.dir, row.uni, row.bcast, row.upg}; gotD != wantD {
				t.Errorf("DirAccesses, InvUnicasts, InvBroadcasts, UpgradeFastPath moved by %v, want %v", gotD, wantD)
			}
		})
	}
}

// TestQuiescedWhileBusy: Quiesced, which the stress tests end on, sees a
// transaction in flight and a request queued behind it.
func TestQuiescedWhileBusy(t *testing.T) {
	k, s, p := pipeFixture(t)
	for _, c := range []int{5, 6} {
		k.Schedule(0, func() { s.Access(c, OpLoad, rAddr, 0, nil, func(uint64) {}) })
	}
	k.RunAll()
	for i := 0; i < 2; i++ {
		req := p.take(t, isType(MsgShReq))
		p.deliverTo(req.Dst, req)
		if s.Quiesced() {
			t.Fatalf("Quiesced with %d request(s) at the directory", i+1)
		}
	}
	pump(k, p)
	if !s.Quiesced() {
		t.Fatal("not Quiesced once both loads completed")
	}
}
