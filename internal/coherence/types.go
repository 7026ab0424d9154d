// Package coherence implements the paper's cache hierarchy and coherence
// protocols: private L1-D/L2 caches per core, a distributed limited
// directory, and the ACKwise_k and Dir_kB protocols (Sections III-B and
// V-F), including the sequence-number mechanism of Section IV-C1 that
// repairs broadcast/unicast reordering introduced by distance-based
// routing.
//
// Data values live in a single global ValueStore rather than in per-cache
// copies: because the protocol enforces the single-writer/multiple-reader
// invariant and serializes conflicting accesses at the directory, reading
// the store at access-grant time is observationally equivalent to reading
// a coherent cached copy, while keeping the simulator lean.
package coherence

import (
	"fmt"
	"reflect"

	"repro/internal/noc"
)

// State is a cache line's MSI coherence state.
type State uint8

const (
	Invalid State = iota
	Shared
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// MsgType enumerates protocol messages.
type MsgType uint8

const (
	// Core -> directory requests.
	MsgShReq  MsgType = iota // shared (read) request
	MsgExReq                 // exclusive (write) request
	MsgEvictS                // notify eviction of a Shared line (ACKwise only)
	MsgEvictM                // write back and evict a Modified line

	// Directory -> core requests.
	MsgInv      // unicast invalidation of a Shared copy
	MsgInvBcast // broadcast invalidation (ACKwise overflow / DirkB overflow)
	MsgWBReq    // write back a Modified line, demote to Shared
	MsgFlushReq // write back and invalidate a Modified line

	// Core -> directory responses.
	MsgInvAck     // invalidation acknowledgement
	MsgInvAckData // invalidation ack carrying the line (piggy-backed data)
	MsgWBRep      // write-back response (data)
	MsgFlushRep   // flush response (data)

	// Directory -> core responses.
	MsgShRep    // shared grant (data)
	MsgExRep    // exclusive grant (data)
	MsgUpgRep   // exclusive grant without data (sole-sharer upgrade)
	MsgEvictAck // eviction processed (ACKwise)

	// Directory <-> memory controller.
	MsgMemRead  // line fetch request
	MsgMemRsp   // line fetch response (data)
	MsgMemWrite // line write-back (data)
)

var msgNames = [...]string{
	"ShReq", "ExReq", "EvictS", "EvictM",
	"Inv", "InvBcast", "WBReq", "FlushReq",
	"InvAck", "InvAckData", "WBRep", "FlushRep",
	"ShRep", "ExRep", "UpgRep", "EvictAck",
	"MemRead", "MemRsp", "MemWrite",
}

func (t MsgType) String() string {
	if int(t) < len(msgNames) {
		return msgNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// CarriesData reports whether the message includes a cache line payload
// (600-bit data message vs 88-bit coherence message, Section IV-C1).
func (t MsgType) CarriesData() bool {
	switch t {
	case MsgInvAckData, MsgWBRep, MsgFlushRep, MsgShRep, MsgExRep, MsgMemRsp, MsgMemWrite, MsgEvictM:
		return true
	}
	return false
}

// Message bit sizes from Section IV-C1: a coherence message is 88 bits
// (64 address + 20 IDs + 4 type) plus a 16-bit sequence number; a data
// message adds the 512-bit cache block.
const (
	CtrlBits = 88 + 16
	DataBits = 600 + 16
)

// Bits returns the network size of a message of this type.
func (t MsgType) Bits() int {
	if t.CarriesData() {
		return DataBits
	}
	return CtrlBits
}

// Msg is a protocol message. It carries its own network envelope, whose
// Payload points back at the Msg, so a message costs one allocation.
// Every send builds a fresh Msg, so an envelope is never in flight twice.
// The small fields share the last word: a Msg is 32 bytes before its
// envelope.
type Msg struct {
	Line  uint64 // cache line index (address >> log2(LineBytes))
	From  int    // sending core
	Slice int    // directory slice responsible for Line
	Seq   uint16 // sequence number of the slice's latest broadcast
	Type  MsgType
	// Requestor context for directory-bound requests.
	HadShared bool // ExReq: requestor already holds the line Shared
	Stale     bool // response for a line the responder no longer holds

	env noc.Message
}

// envelope addresses m's network envelope from src to dst and returns it.
func (m *Msg) envelope(src, dst int) *noc.Message {
	m.env = noc.Message{Src: src, Dst: dst, Bits: m.Type.Bits(), Payload: m}
	return &m.env
}

func (m *Msg) String() string {
	return fmt.Sprintf("%v line=%#x from=%d slice=%d seq=%d", m.Type, m.Line, m.From, m.Slice, m.Seq)
}

// AccessOp is the kind of memory access a core performs.
type AccessOp uint8

const (
	OpLoad AccessOp = iota
	OpStore
	OpRMW // atomic read-modify-write (fetch-op)
)

func (o AccessOp) String() string {
	switch o {
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	default:
		return "rmw"
	}
}

// Stats counts cache and protocol events for the energy model and the
// evaluation figures.
type Stats struct {
	L1DReads, L1DWrites    uint64
	L1DMisses              uint64
	L2Reads, L2Writes      uint64
	L2TagProbes            uint64 // tag-only probes from protocol requests
	L2Misses               uint64
	DirAccesses            uint64
	MemReads, MemWrites    uint64
	InvBroadcasts          uint64 // broadcast invalidations issued
	InvUnicasts            uint64
	UpgradeFastPath        uint64 // sole-sharer upgrades
	EvictionsS, EvictionsM uint64
	ReorderBufferedUni     uint64 // unicasts buffered behind missing broadcasts
	ReorderBufferedBcast   uint64 // broadcasts buffered behind outstanding ShReq
	AcksCollected          uint64
}

// MergeFrom folds o's counters into s (summing several runs' blocks).
// Every field is an additive event count; reflection keeps the merge
// exhaustive as fields are added.
func (s *Stats) MergeFrom(o *Stats) {
	sv := reflect.ValueOf(s).Elem()
	ov := reflect.ValueOf(o).Elem()
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetUint(sv.Field(i).Uint() + ov.Field(i).Uint())
	}
}
