package coherence

import (
	"fmt"

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
	st    *Stats // statistics block of the shard hosting this slice
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
	needAcks   int
	needData   bool
	dataOK     bool
	dataFrom   int  // designated piggy-back sharer; -1 if none
	staleOwner bool // owner's copy was gone (concurrent eviction)
	memAsked   bool
	onDone     func()
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

// askMem launches a line fetch from the responsible memory controller.
func (d *DirSlice) askMem(line uint64) {
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
		d.drain(m.Line, e)
	case MsgInvAck, MsgInvAckData, MsgWBRep, MsgFlushRep, MsgMemRsp:
		if e.tr == nil {
			panic(fmt.Sprintf("coherence: dir slice %d: response %v with no transaction", d.slice, m))
		}
		d.feed(e, m)
		d.drain(m.Line, e)
	default:
		panic(fmt.Sprintf("coherence: dir slice %d: unexpected %v", d.slice, m))
	}
}

// drain starts queued requests while the line is idle.
func (d *DirSlice) drain(line uint64, e *dirEntry) {
	for !e.busy && len(e.queue) > 0 {
		m := e.queue[0]
		e.queue = e.queue[1:]
		d.start(e, m)
	}
	_ = line
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func remove(xs []int, v int) []int {
	for i, x := range xs {
		if x == v {
			return append(xs[:i], xs[i+1:]...)
		}
	}
	return xs
}

// addSharer registers c as a sharer, overflowing to the global
// representation when the K hardware pointers are exhausted.
func (d *DirSlice) addSharer(e *dirEntry, c int) {
	if e.global {
		e.count++
		return
	}
	if contains(e.sharers, c) {
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
	d.st.DirAccesses++
	d.s.trace("dir", "slice %d: start %v (state=%v sharers=%v global=%v count=%d owner=%d)",
		d.slice, m, e.state, e.sharers, e.global, e.count, e.owner)
	c := m.From
	line := m.Line
	switch m.Type {
	case MsgShReq:
		switch e.state {
		case Invalid:
			e.busy = true
			e.tr = &trans{needData: true, dataFrom: -1, memAsked: true, onDone: func() {
				e.state = Shared
				e.global = false
				e.count = 0
				e.sharers = append(e.sharers[:0], c)
				d.reply(MsgShRep, c, line, false)
			}}
			d.askMem(line)
		case Shared:
			d.addSharer(e, c)
			e.busy = true
			e.tr = &trans{needData: true, dataFrom: -1, memAsked: true, onDone: func() {
				d.reply(MsgShRep, c, line, false)
			}}
			d.askMem(line)
		case Modified:
			if e.owner == c {
				// The owner's EvictM is still in flight; serve from
				// memory (the write-back will be reconciled when the
				// queued EvictM is processed as stale).
				e.busy = true
				e.tr = &trans{needData: true, dataFrom: -1, memAsked: true, onDone: func() {
					e.state = Shared
					e.owner = -1
					e.sharers = append(e.sharers[:0], c)
					d.reply(MsgShRep, c, line, false)
				}}
				d.askMem(line)
				return
			}
			prev := e.owner
			e.busy = true
			tr := &trans{needData: true, dataFrom: -1}
			tr.onDone = func() {
				e.state = Shared
				e.owner = -1
				if tr.staleOwner {
					e.sharers = append(e.sharers[:0], c)
				} else {
					e.sharers = append(e.sharers[:0], prev, c)
				}
				d.reply(MsgShRep, c, line, false)
			}
			e.tr = tr
			d.reply(MsgWBReq, prev, line, false)
		}

	case MsgExReq:
		switch e.state {
		case Invalid:
			e.busy = true
			e.tr = &trans{needData: true, dataFrom: -1, memAsked: true, onDone: func() {
				d.grantExclusive(e, c, line, true)
			}}
			d.askMem(line)
		case Shared:
			kind := d.s.Cfg.Coherence.Kind
			// Sole-sharer upgrade fast path: no invalidations, no data.
			if !e.global && len(e.sharers) == 1 && e.sharers[0] == c && m.HadShared {
				d.st.UpgradeFastPath++
				e.state = Modified
				e.owner = c
				e.sharers = e.sharers[:0]
				d.reply(MsgUpgRep, c, line, false)
				return
			}
			e.busy = true
			tr := &trans{dataFrom: -1}
			e.tr = tr
			if e.global {
				// Broadcast invalidation.
				d.seq++
				d.st.InvBroadcasts++
				d.bcastInv(line)
				if kind == config.ACKwise {
					tr.needAcks = e.count
				} else {
					tr.needAcks = d.s.Cfg.Cores
				}
				tr.needData = true
				tr.memAsked = true
				d.askMem(line)
			} else {
				targets := make([]int, 0, len(e.sharers))
				for _, t := range e.sharers {
					if t != c {
						targets = append(targets, t)
					}
				}
				tr.needData = !(m.HadShared && contains(e.sharers, c))
				if len(targets) == 0 {
					// Stale list (DirkB silent eviction) or requestor-only.
					if tr.needData {
						tr.memAsked = true
						d.askMem(line)
					}
				} else {
					d.st.InvUnicasts += uint64(len(targets))
					for i, t := range targets {
						d.reply(MsgInv, t, line, tr.needData && i == 0)
						if tr.needData && i == 0 {
							tr.dataFrom = t
						}
					}
					tr.needAcks = len(targets)
				}
			}
			tr.onDone = func() {
				d.grantExclusive(e, c, line, tr.needData)
			}
		case Modified:
			if e.owner == c {
				// Owner re-requesting: its EvictM is in flight.
				e.busy = true
				e.tr = &trans{needData: true, dataFrom: -1, memAsked: true, onDone: func() {
					d.grantExclusive(e, c, line, true)
				}}
				d.askMem(line)
				return
			}
			prev := e.owner
			e.busy = true
			tr := &trans{needData: true, dataFrom: -1}
			tr.onDone = func() {
				d.grantExclusive(e, c, line, true)
			}
			e.tr = tr
			d.reply(MsgFlushReq, prev, line, false)
		}

	case MsgEvictS:
		d.st.EvictionsS++
		if e.state == Shared {
			if e.global {
				e.count--
				if e.count <= 0 {
					e.state = Invalid
					e.global = false
					e.count = 0
				}
			} else {
				e.sharers = remove(e.sharers, c)
				if len(e.sharers) == 0 {
					e.state = Invalid
				}
			}
		}
		d.reply(MsgEvictAck, c, line, false)

	case MsgEvictM:
		d.st.EvictionsM++
		if e.state == Modified && e.owner == c {
			e.state = Invalid
			e.owner = -1
			mc := d.s.MemCtrlFor(line)
			d.s.send(d.core, mc.Core, &Msg{Type: MsgMemWrite, Line: line, From: d.core, Slice: d.slice})
		}
		// Stale evictions (ownership already transferred) are dropped.
	}
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
	d.s.trace("dir", "slice %d: InvBcast line=%#x seq=%d", d.slice, line, d.seq)
	d.s.Net.Send(&noc.Message{
		Src: d.core, Dst: noc.BroadcastDst,
		Bits:    CtrlBits,
		Payload: &Msg{Type: MsgInvBcast, Line: line, From: d.core, Slice: d.slice, Seq: d.seq},
	})
}

// feed routes a response into the line's transaction and completes it when
// all acknowledgements and data have arrived.
func (d *DirSlice) feed(e *dirEntry, m *Msg) {
	tr := e.tr
	switch m.Type {
	case MsgInvAck:
		d.st.AcksCollected++
		tr.needAcks--
		if tr.needData && !tr.dataOK && m.From == tr.dataFrom {
			// Designated piggy-back sharer had already lost the line;
			// fall back to memory.
			if !tr.memAsked {
				tr.memAsked = true
				d.askMem(m.Line)
			}
		}
	case MsgInvAckData:
		d.st.AcksCollected++
		tr.needAcks--
		tr.dataOK = true
	case MsgWBRep, MsgFlushRep:
		if m.Stale {
			tr.staleOwner = true
			if !tr.memAsked {
				tr.memAsked = true
				d.askMem(m.Line)
			}
		} else {
			tr.dataOK = true
		}
	case MsgMemRsp:
		tr.dataOK = true
	}
	if tr.needAcks == 0 && (!tr.needData || tr.dataOK) {
		e.tr = nil
		e.busy = false
		tr.onDone()
	}
}
