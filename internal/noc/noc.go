// Package noc implements cycle-level models of the on-chip networks the
// paper evaluates and their architectural alternatives: a wormhole
// electrical 2-D mesh (EMesh-Pure), the same mesh with native tree
// multicast (EMesh-BCast), the composed ATAC/ATAC+ fabric (ENet mesh +
// adaptive SWMR optical ONet + BNet/StarNet cluster receive networks) with
// cluster- or distance-based routing, a Corona-style token-arbitrated MWSR
// optical crossbar, and a MorphoNoC-style electrical/photonic hybrid.
//
// All networks implement the Network interface; the coherence layer and the
// synthetic-traffic harness (Fig 3) use networks through it exclusively.
// Every model is flit-accurate: wormhole flow control with credit-based
// back-pressure and a single virtual channel, per Table I. Endpoint
// ejection always drains into unbounded protocol queues, which keeps the
// fabric free of protocol-level deadlock (see DESIGN.md).
package noc

import (
	"fmt"
	"reflect"

	"repro/internal/config"
	"repro/internal/sim"
)

// BroadcastDst marks a message addressed to every core.
const BroadcastDst = -1

// Message is one network transaction. A broadcast (Dst == BroadcastDst) is
// delivered once to every core, including the sender's.
type Message struct {
	Src, Dst int
	Bits     int // total size incl. header; flit count derives from this
	Payload  any
	Inject   sim.Time // set by the network at Send time

	// pairSeq is the per-(src,dst) sequence number an optical fabric's
	// reorder CAM restores FIFO delivery from (0 = unsequenced).
	pairSeq uint64
	// viaHub marks a message on an optical fabric's internal ENet leg to
	// an endpoint's core (fabric.sendVia); cleared when the leg ends.
	viaHub bool
	// origBcast marks per-destination clones of a serialized broadcast
	// (EMesh-Pure) so receiver-side traffic statistics stay correct.
	origBcast bool
	// retx counts optical retransmission attempts already spent on this
	// message (fault injection; bounded by the injector's MaxRetries).
	retx uint8
}

// IsBroadcast reports whether this delivery belongs to a logical broadcast,
// including serialized per-destination clones on EMesh-Pure.
func (m *Message) IsBroadcast() bool { return m.Dst == BroadcastDst || m.origBcast }

// DeliverFunc receives a message at core dst. For broadcasts it is invoked
// once per core.
type DeliverFunc func(dst int, m *Message)

// Network is the interface all fabrics implement.
type Network interface {
	// Send injects m at m.Src. The network takes ownership of m.
	Send(m *Message)
	// SetDeliver installs the ejection callback. Must be called before
	// the first Send.
	SetDeliver(fn DeliverFunc)
	// Stats returns the live counter block.
	Stats() *Stats
}

// New builds the fabric cfg.Network.Kind names on kernel k: the one place a
// NetworkKind becomes a Network. The fabric keeps cfg.
func New(k *sim.Kernel, cfg *config.Config) (Network, error) {
	n := &cfg.Network
	switch n.Kind {
	case config.EMeshPure, config.EMeshBCast:
		return NewMesh(k, cfg.MeshDim(), n.FlitBits, n.BufFlits, n.RouterDelay, n.LinkDelay, n.Kind == config.EMeshBCast), nil
	case config.ATAC, config.ATACPlus:
		return NewAtac(k, cfg), nil
	case config.Corona:
		return NewCrossbar(k, cfg), nil
	case config.HybridMesh:
		return NewHybrid(k, cfg), nil
	}
	return nil, fmt.Errorf("noc: unknown network kind %v", n.Kind)
}

// Drainer is implemented by fabrics that can report quiescence: no flit
// buffered, no transmission in flight, no delivery pending. The
// conservation tests and fuzz targets — its only callers — assert it after
// the kernel runs dry: a fabric that is not drained then has lost traffic.
type Drainer interface {
	Drained() bool
}

// FlitsFor returns the number of flits needed for bits at the given flit
// width (minimum 1).
func FlitsFor(bits, flitBits int) int {
	if bits <= 0 {
		return 1
	}
	n := (bits + flitBits - 1) / flitBits
	if n < 1 {
		n = 1
	}
	return n
}

// Stats aggregates every countable network event needed by the performance
// figures and the energy model. All counts are events, not rates.
type Stats struct {
	// Message-level counts.
	UnicastSent   uint64
	BroadcastSent uint64
	Delivered     uint64 // per-receiver deliveries
	UnicastRecv   uint64 // unicast deliveries (Fig 5 is receiver-measured)
	BroadcastRecv uint64 // broadcast deliveries (one per receiver)
	InjectedFlits uint64 // flits entering any injection queue (Fig 6)
	LatencySum    uint64 // cycles, inject -> delivery (per delivery)
	LatencyCount  uint64
	LatencyMax    uint64

	// Electrical mesh events (ENet or EMesh).
	MeshLinkFlits   uint64 // flit-link traversals
	MeshRouterFlits uint64 // flit-router traversals (buffer wr+rd+xbar)

	// ATAC hub / optical events.
	HubFlits       uint64 // flits buffered through a hub or gateway (either direction)
	ONetUniFlits   uint64 // data-link flits sent in unicast mode (= unicast-mode laser cycles)
	ONetBcastFlits uint64 // data-link flits sent in broadcast mode (= broadcast-mode laser cycles)
	ONetUniPkts    uint64
	ONetBcastPkts  uint64
	SelectEvents   uint64 // select-link notifications

	// Receive-network events.
	BNetFlits      uint64 // flits broadcast over a BNet tree
	StarUniFlits   uint64 // flits over a single StarNet link
	StarBcastFlits uint64 // flits over all StarNet links of a cluster

	// Corona crossbar events. The token counters back the token-
	// conservation property: after a drain every granted token has been
	// returned to the serpentine ring.
	XbarPkts        uint64 // packets sent over a home channel
	XbarFlits       uint64 // data flits sent over a home channel (= laser cycles)
	TokenWaitCycles uint64 // cycles packets waited for a channel token (request -> first flit)
	TokensGranted   uint64 // channel tokens handed to a writer
	TokensReturned  uint64 // channel tokens released back to the ring

	// HybridMesh photonic-express events.
	ExpressPkts  uint64 // packets sent over a gateway express link
	ExpressFlits uint64 // data flits sent over a gateway express link (= laser cycles)

	// Fault-injection / resilience events (internal/fault). All zero
	// when the fault layer is disabled.
	MeshNacks               uint64 // electrical link crossings NACKed by the receiver
	MeshRetxFlits           uint64 // link-level retransmission crossings
	MeshRetriesExhausted    uint64 // flits forced through after the retry budget
	OpticalFlitErrors       uint64 // ONet data-link flits corrupted at a receiving hub
	OpticalNacks            uint64 // corrupted optical receptions (per hub, per attempt)
	OpticalRetxPkts         uint64 // optical retransmission attempts (channel slots)
	OpticalRetxFlits        uint64 // flits re-sent over the ONet
	OpticalRetriesExhausted uint64 // packets forced through after the retry budget
	ReroutedMsgs            uint64 // unicasts diverted to the ENet by degraded channels
	ReroutedFlits           uint64
	DegradedChannels        uint64 // optical channels currently degraded (gauge)
}

// MergeFrom folds o's counters into s — the per-shard statistics blocks
// of a partitioned network merge through this on every Stats() read.
// Every field is an additive event count except LatencyMax, which merges
// by maximum. Reflection keeps the merge honest by construction: a new
// counter field is additive without anyone remembering to extend a
// hand-written merge (guarded by a test that the struct stays all-uint64).
func (s *Stats) MergeFrom(o *Stats) {
	maxLat := s.LatencyMax
	if o.LatencyMax > maxLat {
		maxLat = o.LatencyMax
	}
	sv := reflect.ValueOf(s).Elem()
	ov := reflect.ValueOf(o).Elem()
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetUint(sv.Field(i).Uint() + ov.Field(i).Uint())
	}
	s.LatencyMax = maxLat
}

// FaultEvents reports whether any resilience counter is nonzero (used by
// reports to decide whether to print the resilience block).
func (s *Stats) FaultEvents() bool {
	return s.MeshNacks != 0 || s.OpticalFlitErrors != 0 ||
		s.ReroutedMsgs != 0 || s.DegradedChannels != 0
}

// RecordLatency adds one delivery latency observation.
func (s *Stats) RecordLatency(d sim.Time) {
	s.LatencySum += uint64(d)
	s.LatencyCount++
	if uint64(d) > s.LatencyMax {
		s.LatencyMax = uint64(d)
	}
}

// AvgLatency returns the mean delivery latency in cycles.
func (s *Stats) AvgLatency() float64 {
	if s.LatencyCount == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.LatencyCount)
}
