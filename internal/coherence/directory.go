package coherence

import (
	"fmt"
	"slices"

	"repro/internal/config"
	"repro/internal/noc"
)

// DirSlice is one slice of the distributed directory, hosted at a core.
// It serializes transactions per line: a line with a transaction in flight
// queues subsequent requests in arrival order (the paper's serial
// processing of exclusive/shared requests).
type DirSlice struct {
	s     *System
	slice int
	core  int
	seq   uint16 // per-slice broadcast sequence number (Section IV-C1)

	entries map[uint64]*dirEntry
}

type dirEntry struct {
	state   State
	sharers []int // exact sharer list while !global (<= K entries)
	global  bool  // sharer list overflowed
	count   int   // sharer count while global (ACKwise tracks it; DirkB does not rely on it)
	owner   int
	busy    bool
	queue   []*Msg // requests awaiting the in-flight transaction
	tr      *trans
}

// trans is an in-flight directory transaction for one line.
type trans struct {
	req      *Msg // the ShReq or ExReq being served
	needAcks int
	needData bool
	dataOK   bool
	// dataFrom is the core asked for the line's data: the Modified owner
	// or the first other sharer; -1 when memory serves it.
	dataFrom int
}

func newDirSlice(s *System, slice, core int) *DirSlice {
	return &DirSlice{s: s, slice: slice, core: core, entries: make(map[uint64]*dirEntry)}
}

func (d *DirSlice) entry(line uint64) *dirEntry {
	e := d.entries[line]
	if e == nil {
		e = &dirEntry{owner: -1}
		d.entries[line] = e
	}
	return e
}

func (d *DirSlice) quiesced() bool {
	for _, e := range d.entries {
		if e.busy || len(e.queue) > 0 {
			return false
		}
	}
	return true
}

// reply sends a directory->core unicast stamped with the slice's current
// broadcast sequence number.
func (d *DirSlice) reply(t MsgType, to int, line uint64, dataPlease bool) {
	d.s.send(d.core, to, &Msg{
		Type: t, Line: line, From: d.core, Slice: d.slice, Seq: d.seq, HadShared: dataPlease,
	})
}

// askMem makes memory tr's data source and fetches the line. A
// transaction asks memory at most once: it starts there only when it asks
// no core for the data, and falls back to it only on the one answer of the
// core it did ask.
func (d *DirSlice) askMem(tr *trans, line uint64) {
	tr.dataFrom = -1
	mc := d.s.MemCtrlFor(line)
	d.s.send(d.core, mc.Core, &Msg{Type: MsgMemRead, Line: line, From: d.core, Slice: d.slice})
}

// handle processes one arriving message.
func (d *DirSlice) handle(m *Msg) {
	e := d.entry(m.Line)
	switch m.Type {
	case MsgShReq, MsgExReq, MsgEvictS, MsgEvictM:
		if e.busy {
			e.queue = append(e.queue, m)
			return
		}
		d.start(e, m)
		d.drain(e)
	case MsgInvAck, MsgInvAckData, MsgWBRep, MsgFlushRep, MsgMemRsp:
		if e.tr == nil {
			panic(fmt.Sprintf("coherence: dir slice %d: response %v with no transaction", d.slice, m))
		}
		d.feed(e, m)
		d.drain(e)
	default:
		panic(fmt.Sprintf("coherence: dir slice %d: unexpected %v", d.slice, m))
	}
}

// drain starts queued requests while the line is idle.
func (d *DirSlice) drain(e *dirEntry) {
	for !e.busy && len(e.queue) > 0 {
		m := e.queue[0]
		e.queue = e.queue[1:]
		d.start(e, m)
	}
}

// addSharer registers c as a sharer, overflowing to the global
// representation when the K hardware pointers are exhausted.
func (d *DirSlice) addSharer(e *dirEntry, c int) {
	if e.global {
		e.count++
		return
	}
	if slices.Contains(e.sharers, c) {
		return
	}
	if len(e.sharers) < d.s.Cfg.Coherence.Sharers {
		e.sharers = append(e.sharers, c)
		return
	}
	e.global = true
	e.count = len(e.sharers) + 1
	// ACKwise keeps only the count from here on; DirkB keeps neither
	// (it will broadcast and expect acks from everyone).
	e.sharers = nil
}

// start begins one request transaction. The line must be idle.
func (d *DirSlice) start(e *dirEntry, m *Msg) {
	d.s.stats.DirAccesses++
	if d.s.Tracer != nil {
		d.s.trace("dir", "slice %d: start %v (state=%v sharers=%v global=%v count=%d owner=%d)",
			d.slice, m, e.state, e.sharers, e.global, e.count, e.owner)
	}
	c := m.From
	line := m.Line
	switch m.Type {
	case MsgShReq, MsgExReq:
		d.request(e, m)

	case MsgEvictS:
		d.s.stats.EvictionsS++
		if e.state == Shared {
			if e.global {
				e.count--
				if e.count <= 0 {
					e.state, e.global, e.count = Invalid, false, 0
				}
			} else {
				if i := slices.Index(e.sharers, c); i >= 0 {
					e.sharers = slices.Delete(e.sharers, i, i+1)
				}
				if len(e.sharers) == 0 {
					e.state = Invalid
				}
			}
		}
		d.reply(MsgEvictAck, c, line, false)

	case MsgEvictM:
		d.s.stats.EvictionsM++
		if e.state == Modified && e.owner == c {
			e.state = Invalid
			e.owner = -1
			mc := d.s.MemCtrlFor(line)
			d.s.send(d.core, mc.Core, &Msg{Type: MsgMemWrite, Line: line, From: d.core, Slice: d.slice})
		}
		// Stale evictions (ownership already transferred) are dropped.
	}
}

// request serves a ShReq or ExReq. Unless it is the sole-sharer upgrade,
// it picks one source for the line's data: the Modified owner, the other
// sharers (an ExReq on a Shared line) or memory. grant completes it.
func (d *DirSlice) request(e *dirEntry, m *Msg) {
	c := m.From
	ex := m.Type == MsgExReq
	if ex && e.state == Shared && !e.global && len(e.sharers) == 1 && e.sharers[0] == c && m.HadShared {
		// Sole-sharer upgrade fast path: no invalidations, no data.
		d.s.stats.UpgradeFastPath++
		d.grantExclusive(e, c, m.Line, false)
		return
	}
	if !ex && e.state == Shared {
		d.addSharer(e, c)
	}
	tr := &trans{req: m, needData: true, dataFrom: -1}
	e.busy = true
	e.tr = tr
	switch {
	case e.state == Modified && e.owner != c:
		tr.dataFrom = e.owner
		t := MsgWBReq
		if ex {
			t = MsgFlushReq
		}
		d.reply(t, e.owner, m.Line, false)
	case ex && e.state == Shared:
		d.invalidate(e, m, tr)
	default:
		// Also an owner re-requesting a line whose EvictM is still in
		// flight: the queued EvictM is then dropped as stale.
		d.askMem(tr, m.Line)
	}
}

// invalidate is the data source of an ExReq on a Shared line: one
// broadcast once the list has overflowed, else an Inv to each other listed
// sharer, the first of which sends the data unless the requestor holds it.
func (d *DirSlice) invalidate(e *dirEntry, m *Msg, tr *trans) {
	if e.global {
		d.seq++
		d.s.stats.InvBroadcasts++
		d.bcastInv(m.Line)
		tr.needAcks = d.s.Cfg.Cores // DirkB: every core acknowledges
		if d.s.Cfg.Coherence.Kind == config.ACKwise {
			tr.needAcks = e.count
		}
		d.askMem(tr, m.Line)
		return
	}
	tr.needData = !m.HadShared || !slices.Contains(e.sharers, m.From)
	for _, t := range e.sharers {
		if t == m.From {
			continue
		}
		ask := tr.needData && tr.dataFrom < 0
		if ask {
			tr.dataFrom = t
		}
		d.s.stats.InvUnicasts++
		tr.needAcks++
		d.reply(MsgInv, t, m.Line, ask)
	}
	if tr.needData && tr.dataFrom < 0 {
		// The requestor was the only sharer listed.
		d.askMem(tr, m.Line)
	}
}

// grant completes tr's request: an ExReq takes the line Modified; a ShReq
// on a Shared line only replies, and on an Invalid or Modified line leaves
// it Shared by the requestor and by an owner that wrote it back.
func (d *DirSlice) grant(e *dirEntry, tr *trans) {
	c, line := tr.req.From, tr.req.Line
	if tr.req.Type == MsgExReq {
		d.grantExclusive(e, c, line, tr.needData)
		return
	}
	if e.state != Shared {
		e.state, e.owner, e.global, e.count = Shared, -1, false, 0
		if tr.dataFrom >= 0 {
			e.sharers = append(e.sharers[:0], tr.dataFrom, c)
		} else {
			e.sharers = append(e.sharers[:0], c)
		}
	}
	d.reply(MsgShRep, c, line, false)
}

// grantExclusive finalizes an ExReq transaction.
func (d *DirSlice) grantExclusive(e *dirEntry, c int, line uint64, withData bool) {
	e.state = Modified
	e.owner = c
	e.sharers = e.sharers[:0]
	e.global = false
	e.count = 0
	if withData {
		d.reply(MsgExRep, c, line, false)
	} else {
		d.reply(MsgUpgRep, c, line, false)
	}
}

// bcastInv broadcasts an invalidation for line, stamped with the
// just-incremented sequence number.
func (d *DirSlice) bcastInv(line uint64) {
	if d.s.Tracer != nil {
		d.s.trace("dir", "slice %d: InvBcast line=%#x seq=%d", d.slice, line, d.seq)
	}
	m := &Msg{Type: MsgInvBcast, Line: line, From: d.core, Slice: d.slice, Seq: d.seq}
	d.s.Net.Send(m.envelope(d.core, noc.BroadcastDst))
}

// feed routes a response into the line's transaction and completes it when
// all acknowledgements and data have arrived.
func (d *DirSlice) feed(e *dirEntry, m *Msg) {
	tr := e.tr
	switch m.Type {
	case MsgInvAck:
		d.s.stats.AcksCollected++
		tr.needAcks--
		if m.From == tr.dataFrom {
			// The sharer asked for the data had already lost the line.
			d.askMem(tr, m.Line)
		}
	case MsgInvAckData:
		d.s.stats.AcksCollected++
		tr.needAcks--
		tr.dataOK = true
	case MsgWBRep, MsgFlushRep:
		if m.Stale {
			// The owner had already evicted the line.
			d.askMem(tr, m.Line)
		} else {
			tr.dataOK = true
		}
	case MsgMemRsp:
		tr.dataOK = true
	}
	if tr.needAcks == 0 && (!tr.needData || tr.dataOK) {
		e.tr = nil
		e.busy = false
		d.grant(e, tr)
	}
}
