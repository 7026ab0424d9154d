package coherence

import (
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// pipeNet is a manually-clocked network: every Send is captured and the
// test delivers messages in whatever order it wants — the tool for
// exercising the Section IV-C1 reordering machinery deterministically.
type pipeNet struct {
	deliver noc.DeliverFunc
	stats   noc.Stats
	outbox  []*noc.Message
}

func (p *pipeNet) Send(m *noc.Message) {
	m.Inject = 0
	p.outbox = append(p.outbox, m)
}
func (p *pipeNet) SetDeliver(fn noc.DeliverFunc) { p.deliver = fn }
func (p *pipeNet) Stats() *noc.Stats             { return &p.stats }

// take removes and returns the first outbox message matching the filter.
func (p *pipeNet) take(t *testing.T, match func(*Msg) bool) *noc.Message {
	t.Helper()
	for i, nm := range p.outbox {
		if m, ok := nm.Payload.(*Msg); ok && match(m) {
			p.outbox = append(p.outbox[:i:i], p.outbox[i+1:]...)
			return nm
		}
	}
	t.Fatalf("no matching message in outbox: %v", p.outbox)
	return nil
}

// deliverTo hands a message to one core (or the directory at that core).
func (p *pipeNet) deliverTo(dst int, nm *noc.Message) { p.deliver(dst, nm) }

// pipeFixture: 16 cores, ACKwise1 (every second sharer overflows the
// list, so broadcasts are easy to provoke), all messages hand-delivered.
func pipeFixture(t *testing.T) (*sim.Kernel, *System, *pipeNet) {
	t.Helper()
	cfg := config.Tiny()
	cfg.Coherence.Sharers = 1
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var k sim.Kernel
	net := &pipeNet{}
	s := NewSystem(&k, &cfg, net)
	return &k, s, net
}

// pump moves every outstanding message (and kernel event) to completion in
// FIFO order — "normal" operation between the orchestrated steps.
func pump(k *sim.Kernel, p *pipeNet) {
	for {
		k.RunAll()
		if len(p.outbox) == 0 {
			return
		}
		nm := p.outbox[0]
		p.outbox = p.outbox[1:]
		if nm.Dst == noc.BroadcastDst {
			for c := 0; c < 16; c++ {
				p.deliverTo(c, nm)
			}
		} else {
			p.deliverTo(nm.Dst, nm)
		}
	}
}

// load issues a load and pumps it to completion.
func load(t *testing.T, k *sim.Kernel, s *System, p *pipeNet, core int, addr uint64) uint64 {
	t.Helper()
	var v uint64
	done := false
	k.Schedule(0, func() {
		s.Access(core, OpLoad, addr, 0, nil, func(x uint64) { v = x; done = true })
	})
	pump(k, p)
	if !done {
		t.Fatalf("core %d load %#x did not complete", core, addr)
	}
	return v
}

func store(t *testing.T, k *sim.Kernel, s *System, p *pipeNet, core int, addr, val uint64) {
	t.Helper()
	done := false
	k.Schedule(0, func() {
		s.Access(core, OpStore, addr, val, nil, func(uint64) { done = true })
	})
	pump(k, p)
	if !done {
		t.Fatalf("core %d store %#x did not complete", core, addr)
	}
}

const rAddr = 0x40000 // line 0x1000 -> slice 0 -> directory at core 0

func isType(tt MsgType) func(*Msg) bool {
	return func(m *Msg) bool { return m.Type == tt }
}

// TestReorderUnicastGatedBehindBroadcast: a directory unicast stamped with
// a newer sequence number than the receiver has seen must wait in uniBuf
// until the broadcast arrives.
func TestReorderUnicastGatedBehindBroadcast(t *testing.T) {
	k, s, p := pipeFixture(t)
	// Two sharers overflow ACKwise1 -> global representation.
	load(t, k, s, p, 5, rAddr)
	load(t, k, s, p, 6, rAddr)

	// Core 7 requests the line; its ShReq is queued while core 9's
	// exclusive request triggers the broadcast. Orchestrate: deliver
	// core 9's ExReq first.
	k.Schedule(0, func() { s.Access(9, OpStore, rAddr, 77, nil, func(uint64) {}) })
	k.Schedule(0, func() { s.Access(7, OpLoad, rAddr, 0, nil, func(uint64) {}) })
	k.RunAll()
	exReq := p.take(t, isType(MsgExReq))
	shReq := p.take(t, isType(MsgShReq))
	p.deliverTo(0, exReq)
	k.RunAll()
	bcast := p.take(t, isType(MsgInvBcast))
	// Memory fetch for the exclusive grant.
	memRd := p.take(t, isType(MsgMemRead))
	p.deliverTo(memRd.Dst, memRd)
	k.RunAll()

	// Deliver the broadcast to the sharers (they ack), complete the
	// exclusive transaction, then process core 7's queued ShReq.
	for _, c := range []int{5, 6, 9} {
		p.deliverTo(c, bcast)
	}
	k.RunAll()
	pumpAcksAndGrant := func() {
		pump(k, p) // acks, MemRsp, ExRep, queued ShReq service...
	}
	// Route the queued ShReq in before pumping the rest.
	p.deliverTo(0, shReq)
	pumpAcksAndGrant()

	// Now core 8, which has never seen the broadcast, receives a
	// unicast (ShRep) stamped with seq 1: deliver it before the
	// broadcast and verify it is withheld.
	k.Schedule(0, func() { s.Access(8, OpLoad, rAddr, 0, nil, func(uint64) {}) })
	k.RunAll()
	shReq8 := p.take(t, isType(MsgShReq))
	p.deliverTo(0, shReq8)
	k.RunAll()
	// The read of a Modified line triggers a write-back first.
	pump(k, p)

	// Fabricate the gating scenario directly: core 10 has seen no
	// broadcasts; hand it a unicast with seq 1.
	ctrl := s.ctrls[10]
	if ctrl.uniBuf != nil {
		t.Fatal("reorder buffers built before any unicast was gated")
	}
	before := s.Stats().ReorderBufferedUni
	ctrl.handleUnicast(&Msg{Type: MsgInv, Line: 0x1000, From: 0, Slice: 0, Seq: 1})
	if s.Stats().ReorderBufferedUni != before+1 {
		t.Fatal("unicast with unseen seq not buffered")
	}
	if len(ctrl.uniBuf[0]) != 1 {
		t.Fatal("uniBuf empty")
	}
	// The broadcast arrives: the buffered unicast must be released (the
	// line is absent at core 10, so it just acks the Inv).
	ctrl.handleBcast(&Msg{Type: MsgInvBcast, Line: 0x1000, From: 0, Slice: 0, Seq: 1})
	if len(ctrl.uniBuf[0]) != 0 {
		t.Fatal("buffered unicast not released by broadcast arrival")
	}
	if ctrl.lastSeq[0] != 1 {
		t.Fatalf("lastSeq = %d, want 1", ctrl.lastSeq[0])
	}
}

// TestReorderBcastDroppedAfterGrant: a broadcast buffered behind an
// outstanding shared request is dropped when the grant shows it was issued
// before the requester became a sharer (Section IV-C1's "simply dropped").
func TestReorderBcastDroppedAfterGrant(t *testing.T) {
	k, s, p := pipeFixture(t)
	ctrl := s.ctrls[10]

	// Give core 10 an outstanding ShReq on the line.
	k.Schedule(0, func() { s.Access(10, OpLoad, rAddr, 0, nil, func(uint64) {}) })
	k.RunAll()
	shReq := p.take(t, isType(MsgShReq))

	// A broadcast with seq 1 arrives first: buffered (pending ShReq).
	ctrl.handleBcast(&Msg{Type: MsgInvBcast, Line: 0x1000, From: 0, Slice: 0, Seq: 1})
	if len(ctrl.bcastBuf[0x1000]) != 1 {
		t.Fatal("broadcast not buffered behind pending ShReq")
	}
	if s.Stats().ReorderBufferedBcast != 1 {
		t.Fatal("buffer statistic not counted")
	}
	// lastSeq advanced at arrival (release gating is arrival-ordered).
	if ctrl.lastSeq[0] != 1 {
		t.Fatalf("lastSeq = %d, want 1 (arrival)", ctrl.lastSeq[0])
	}

	// Serve the request; the directory's sequence counter stands at 1
	// (the broadcast above "was" its first), so the grant carries seq 1
	// and the buffered broadcast is dropped without an ack.
	s.dirs[0].seq = 1
	p.deliverTo(0, shReq)
	pump(k, p)
	if len(ctrl.bcastBuf[0x1000]) != 0 {
		t.Fatal("buffered broadcast not resolved at grant")
	}
	if got := ctrl.l2.peek(0x1000); got != Shared {
		t.Fatalf("line state %v after drop, want Shared (broadcast was stale)", got)
	}
}

// TestReorderBcastProcessedAfterGrant: a buffered broadcast newer than the
// grant is applied one cycle after the response (it invalidates the fresh
// copy and acks).
func TestReorderBcastProcessedAfterGrant(t *testing.T) {
	k, s, p := pipeFixture(t)
	ctrl := s.ctrls[10]

	k.Schedule(0, func() { s.Access(10, OpLoad, rAddr, 0, nil, func(uint64) {}) })
	k.RunAll()
	shReq := p.take(t, isType(MsgShReq))

	// A broadcast with seq 5 (newer than the grant's seq 0) arrives.
	ctrl.handleBcast(&Msg{Type: MsgInvBcast, Line: 0x1000, From: 0, Slice: 0, Seq: 5})
	// Walk the transaction by hand (the fabricated broadcast has no
	// directory transaction, so its ack must not reach the directory).
	p.deliverTo(0, shReq)
	k.RunAll()
	memRd := p.take(t, isType(MsgMemRead))
	p.deliverTo(memRd.Dst, memRd)
	k.RunAll()
	memRsp := p.take(t, isType(MsgMemRsp))
	p.deliverTo(memRsp.Dst, memRsp)
	k.RunAll()
	shRep := p.take(t, isType(MsgShRep))
	p.deliverTo(10, shRep)
	k.RunAll()
	if got := ctrl.l2.peek(0x1000); got != Invalid {
		t.Fatalf("line state %v, want Invalid (newer broadcast applied after grant)", got)
	}
	// The ack for the broadcast must have been emitted.
	if countOutboxAcks(p) == 0 {
		t.Fatal("no ack for the post-grant broadcast")
	}
}

// TestReorderEvictRaces drives the eviction corner: broadcasts buffered on
// an in-flight eviction are acked if issued before the directory processed
// the EvictS (we were counted) and dropped otherwise; late broadcasts
// after the EvictAck use the evictedAt record.
func TestReorderEvictRaces(t *testing.T) {
	k, s, p := pipeFixture(t)
	ctrl := s.ctrls[10]
	line := uint64(0x1000)

	// Core 10 becomes a sharer, then "evicts" the line.
	load(t, k, s, p, 10, rAddr)
	ctrl.evicting[line] = true
	ctrl.invalidateLocal(line)
	slice := s.SliceOf(line)
	k.Schedule(0, func() {
		s.send(10, s.Cfg.DirCore(slice), &Msg{Type: MsgEvictS, Line: line, From: 10, Slice: slice})
	})
	k.RunAll()
	evictS := p.take(t, isType(MsgEvictS))

	// A broadcast with seq 1 arrives while evicting: buffered.
	ctrl.handleBcast(&Msg{Type: MsgInvBcast, Line: line, From: 0, Slice: 0, Seq: 1})
	if len(ctrl.bcastBuf[line]) != 1 {
		t.Fatal("broadcast not buffered on in-flight eviction")
	}

	// The directory processes the eviction after the (fictional)
	// broadcast: EvictAck carries seq >= 1, so we were counted -> ack.
	s.dirs[0].seq = 1 // the broadcast above "was" this directory's
	p.deliverTo(0, evictS)
	k.RunAll()
	evictAck := p.take(t, isType(MsgEvictAck))
	acksBefore := countOutboxAcks(p)
	p.deliverTo(10, evictAck)
	k.RunAll()
	if countOutboxAcks(p) != acksBefore+1 {
		t.Fatal("buffered broadcast not acked on EvictAck (we were counted)")
	}
	if ctrl.evicting[line] {
		t.Fatal("evicting flag not cleared")
	}
	if _, ok := ctrl.evictedAt[line]; !ok {
		t.Fatal("evictedAt not recorded")
	}

	// A late broadcast with seq <= evictedAt must still be acked even
	// though the line is long gone.
	before := countOutboxAcks(p)
	ctrl.handleBcast(&Msg{Type: MsgInvBcast, Line: line, From: 0, Slice: 0, Seq: 1})
	if countOutboxAcks(p) != before+1 {
		t.Fatal("late broadcast (pre-eviction seq) not acked via evictedAt")
	}
	// A broadcast issued after the eviction is not addressed to us.
	before = countOutboxAcks(p)
	ctrl.handleBcast(&Msg{Type: MsgInvBcast, Line: line, From: 0, Slice: 0, Seq: 9})
	if countOutboxAcks(p) != before {
		t.Fatal("post-eviction broadcast wrongly acked")
	}
}

// TestReorderEvictBufferedDropped: a broadcast buffered on an eviction but
// issued after the directory processed the EvictS is silently dropped.
func TestReorderEvictBufferedDropped(t *testing.T) {
	k, s, p := pipeFixture(t)
	ctrl := s.ctrls[10]
	line := uint64(0x1000)

	load(t, k, s, p, 10, rAddr)
	ctrl.evicting[line] = true
	ctrl.invalidateLocal(line)
	k.Schedule(0, func() {
		s.send(10, 0, &Msg{Type: MsgEvictS, Line: line, From: 10, Slice: 0})
	})
	k.RunAll()
	evictS := p.take(t, isType(MsgEvictS))
	p.deliverTo(0, evictS) // processed at seq 0
	k.RunAll()
	evictAck := p.take(t, isType(MsgEvictAck))

	// Broadcast seq 3 arrives while still evicting (EvictAck in flight).
	ctrl.handleBcast(&Msg{Type: MsgInvBcast, Line: line, From: 0, Slice: 0, Seq: 3})
	if len(ctrl.bcastBuf[line]) != 1 {
		t.Fatal("not buffered")
	}
	before := countOutboxAcks(p)
	p.deliverTo(10, evictAck) // carries seq 0 < 3: we were not counted
	k.RunAll()
	if countOutboxAcks(p) != before {
		t.Fatal("post-eviction broadcast wrongly acked")
	}
	if len(ctrl.bcastBuf[line]) != 0 {
		t.Fatal("buffer not cleared")
	}
}

// TestReorderEvictBufferedKeptForReRequest: a core that evicted a Shared
// line re-requests it before the EvictAck arrives, and a broadcast buffered
// on the eviction is newer than the EvictAck's stamp. The eviction cannot
// settle it (the broadcast may address the new request), so it stays
// buffered for the ShRep, which drops it when it was issued at or before
// the grant and otherwise processes it one cycle after the response.
func TestReorderEvictBufferedKeptForReRequest(t *testing.T) {
	for _, tc := range []struct {
		name      string
		bcastSeq  uint16
		grantSeq  uint16
		wantState State
		wantAcks  int
	}{
		{"DroppedAtGrant", 1, 1, Shared, 0},
		{"ProcessedAfterGrant", 5, 0, Invalid, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, s, p := pipeFixture(t)
			ctrl := s.ctrls[10]
			line := uint64(0x1000)

			// Core 10 becomes a sharer, then evicts the line.
			load(t, k, s, p, 10, rAddr)
			ctrl.evicting[line] = true
			ctrl.invalidateLocal(line)
			k.Schedule(0, func() {
				s.send(10, 0, &Msg{Type: MsgEvictS, Line: line, From: 10, Slice: 0})
			})
			k.RunAll()
			evictS := p.take(t, isType(MsgEvictS))

			// It re-requests the line: a ShReq is pending.
			k.Schedule(0, func() { s.Access(10, OpLoad, rAddr, 0, nil, func(uint64) {}) })
			k.RunAll()
			shReq := p.take(t, isType(MsgShReq))

			// A broadcast arrives: buffered (evicting and pending).
			ctrl.handleBcast(&Msg{Type: MsgInvBcast, Line: line, From: 0, Slice: 0, Seq: tc.bcastSeq})
			if len(ctrl.bcastBuf[line]) != 1 {
				t.Fatal("broadcast not buffered")
			}

			// The directory processes the EvictS at seq 0, older than the
			// broadcast: the EvictAck keeps it for the ShRep.
			p.deliverTo(0, evictS)
			k.RunAll()
			evictAck := p.take(t, isType(MsgEvictAck))
			before := countOutboxAcks(p)
			p.deliverTo(10, evictAck)
			k.RunAll()
			if countOutboxAcks(p) != before {
				t.Fatal("broadcast acked on EvictAck; it must wait for the ShRep")
			}
			if len(ctrl.bcastBuf[line]) != 1 {
				t.Fatal("broadcast not kept for the re-request")
			}

			// Serve the ShReq by hand (the fabricated broadcast has no
			// directory transaction, so its ack must not reach the
			// directory).
			s.dirs[0].seq = tc.grantSeq
			p.deliverTo(0, shReq)
			k.RunAll()
			memRd := p.take(t, isType(MsgMemRead))
			p.deliverTo(memRd.Dst, memRd)
			k.RunAll()
			memRsp := p.take(t, isType(MsgMemRsp))
			p.deliverTo(memRsp.Dst, memRsp)
			k.RunAll()
			shRep := p.take(t, isType(MsgShRep))
			if shRep.Payload.(*Msg).Seq != tc.grantSeq {
				t.Fatalf("ShRep seq %d, want %d", shRep.Payload.(*Msg).Seq, tc.grantSeq)
			}
			p.deliverTo(10, shRep)
			k.RunAll()
			if len(ctrl.bcastBuf[line]) != 0 {
				t.Fatal("buffered broadcast not resolved at grant")
			}
			if got := ctrl.l2.peek(line); got != tc.wantState {
				t.Fatalf("line state %v after grant, want %v", got, tc.wantState)
			}
			if got := countOutboxAcks(p) - before; got != tc.wantAcks {
				t.Fatalf("%d acks after grant, want %d", got, tc.wantAcks)
			}
		})
	}
}

func countOutboxAcks(p *pipeNet) int {
	n := 0
	for _, nm := range p.outbox {
		if m, ok := nm.Payload.(*Msg); ok && (m.Type == MsgInvAck || m.Type == MsgInvAckData) {
			n++
		}
	}
	return n
}

func TestStringersCoverage(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Error("state strings")
	}
	if State(9).String() == "" {
		t.Error("unknown state string empty")
	}
	if MsgShReq.String() != "ShReq" || MsgType(200).String() == "" {
		t.Error("msg type strings")
	}
	if OpLoad.String() != "load" || OpStore.String() != "store" || OpRMW.String() != "rmw" {
		t.Error("op strings")
	}
	m := &Msg{Type: MsgInv, Line: 0x10, From: 3, Slice: 1, Seq: 7}
	if m.String() == "" {
		t.Error("msg string empty")
	}
	var sys System
	sys.Stats().DirAccesses = 3
	if sys.Stats().DirAccesses != 3 {
		t.Error("Stats accessor")
	}
}

// TestReorderTraced: with a tracer attached, a gated unicast and a
// buffered broadcast each record one "reorder" event.
func TestReorderTraced(t *testing.T) {
	_, s, _ := pipeFixture(t)
	s.Tracer = trace.New(16)
	ctrl := s.ctrls[10]
	line := uint64(0x1000)
	ctrl.handleUnicast(&Msg{Type: MsgInv, Line: line, From: 0, Slice: 0, Seq: 1})
	ctrl.evicting[line] = true
	ctrl.handleBcast(&Msg{Type: MsgInvBcast, Line: line, From: 0, Slice: 0, Seq: 1})
	var got []string
	for _, e := range s.Tracer.Entries() {
		if e.Cat == "reorder" {
			got = append(got, e.Name)
		}
	}
	want := []string{
		"core 10 gates Inv line=0x1000 from=0 slice=0 seq=1 behind seq 0",
		"core 10 buffers InvBcast line=0x1000 from=0 slice=0 seq=1 (pendSh=false evicting=true)",
	}
	if !slices.Equal(got, want) {
		t.Errorf("reorder events %q, want %q", got, want)
	}
}
