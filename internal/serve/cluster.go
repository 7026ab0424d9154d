// Cluster integration: what turns N independent atacd daemons into one
// logical service. Each node carries the same static ring
// (internal/cluster); a submit landing on a non-owner is forwarded to
// the run hash's owner, and if the owner is unreachable or probed-down
// the node falls back to executing locally — the run hash makes that
// safe (duplicate submissions coalesce; duplicate completed work is
// absorbed by the shared result store). The daemon also exposes its
// local result cache to peers (GET/PUT /v1/cache/{hash}) so a failover
// node can fetch a dead owner's finished results instead of
// re-simulating them.
package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"repro/internal/cluster"
)

// ForwardHeader marks a submit already routed by a peer. A forwarded
// request is never forwarded again, so a ring disagreement (mid-rollout
// config skew) degrades to one extra hop and local execution, never a
// loop.
const ForwardHeader = "X-Atacd-Forward"

// maxCacheEntryBytes bounds a replicated cache entry. Real entries are a
// few KB of result JSON; the bound exists so a confused peer cannot make
// the daemon buffer arbitrary bytes.
const maxCacheEntryBytes = 8 << 20

// ClusterConfig wires a Server into a peer ring. Zero/nil means
// single-node: every field is consulted through helpers that tolerate
// its absence.
type ClusterConfig struct {
	// Self is this node's own base URL as it appears in the ring.
	Self string
	// Ring maps run hashes to owners. Required when clustering.
	Ring *cluster.Ring
	// Healthy reports the health prober's damped verdict for a peer; nil
	// treats every peer as healthy (the forward attempt then probes it
	// the hard way and fails over locally).
	Healthy func(peer string) bool
	// Snapshot feeds /healthz and /metrics the per-peer probe state; nil
	// omits it.
	Snapshot func() []cluster.PeerHealth
}

// forwardClient is the forwarding transport (a forward waits only for
// admission — the 202 — not the run).
var forwardClient = &http.Client{Timeout: 10 * time.Second}

func (cc *ClusterConfig) healthy(peer string) bool {
	if cc.Healthy == nil {
		return true
	}
	return cc.Healthy(peer)
}

// clustered reports whether this server participates in a multi-node
// ring.
func (s *Server) clustered() bool {
	cc := s.opt.Cluster
	return cc != nil && cc.Ring != nil && cc.Ring.Len() > 1 && cc.Self != ""
}

// self returns this node's ring URL, or "" when single-node.
func (s *Server) self() string {
	if s.opt.Cluster == nil {
		return ""
	}
	return s.opt.Cluster.Self
}

// forwardTarget decides whether a locally received submit for hash
// should be routed to another node: only when clustered, the ring says
// someone else owns the hash, and the prober currently believes that
// owner is alive. A false second return means "execute locally" — the
// caller distinguishes ownership from failover via owner != "".
func (s *Server) forwardTarget(hash string) (owner string, forward bool) {
	if !s.clustered() {
		return "", false
	}
	cc := s.opt.Cluster
	owner = cc.Ring.Owner(hash)
	if owner == "" || owner == cluster.NormalizePeer(cc.Self) {
		return "", false
	}
	if !cc.healthy(owner) {
		s.met.forwardFailovers.Add(1)
		s.logf("cluster: owner %s of %s is probed down; executing locally", owner, shortID(hash))
		return owner, false
	}
	return owner, true
}

// forwardSubmit relays a resolved spec to the owning node and, on
// success, copies the owner's response through verbatim — the client
// sees exactly what it would have seen submitting there directly
// (including 429s and 400s: those are the owner's answers, not
// transport trouble). Returns false when the owner could not be reached
// or answered 5xx; the caller then falls back to local execution.
func (s *Server) forwardSubmit(w http.ResponseWriter, owner string, spec JobSpec) bool {
	body, err := json.Marshal(spec)
	if err != nil {
		return false
	}
	req, err := http.NewRequest(http.MethodPost, owner+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardHeader, s.self())
	resp, err := forwardClient.Do(req)
	if err != nil {
		s.met.forwardFailovers.Add(1)
		s.logf("cluster: forward to %s failed (%v); executing locally", owner, err)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		s.met.forwardFailovers.Add(1)
		s.logf("cluster: owner %s answered %s; executing locally", owner, resp.Status)
		return false
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		s.met.forwardFailovers.Add(1)
		return false
	}
	s.met.forwarded.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	w.Write(raw)
	return true
}

// handleCacheGet serves one raw result-store entry to a peer — the read
// half of cluster read-through. The bytes go out exactly as persisted;
// the requesting peer validates schema and key itself, same as a local
// read would.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	c := s.runner.Cache
	if c == nil {
		writeJSON(w, http.StatusNotFound, apiError{"no result cache on this node"})
		return
	}
	data, ok := c.EntryByHash(r.PathValue("hash"))
	if !ok {
		s.met.cacheMisses.Add(1)
		writeJSON(w, http.StatusNotFound, apiError{"no such entry"})
		return
	}
	s.met.cacheServes.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleCachePut accepts one replicated entry from a peer — the write
// half. The cache validates everything (hash shape, parse, schema,
// key-to-hash binding) before any byte lands, so a confused or skewed
// peer gets a 400 and the local store stays clean.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	c := s.runner.Cache
	if c == nil {
		writeJSON(w, http.StatusServiceUnavailable, apiError{"no result cache on this node"})
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCacheEntryBytes))
	if err != nil {
		s.met.cacheRejects.Add(1)
		writeJSON(w, http.StatusBadRequest, apiError{"read entry: " + err.Error()})
		return
	}
	if err := c.PutEntry(r.PathValue("hash"), data); err != nil {
		s.met.cacheRejects.Add(1)
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	s.met.cacheStores.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// ClusterHealth is the cluster's slice of /healthz: who this node is,
// how big the ring is, and the damped probe verdict for every peer.
type ClusterHealth struct {
	Self  string               `json:"self"`
	Size  int                  `json:"size"`
	Peers []cluster.PeerHealth `json:"peers,omitempty"`
}

// clusterHealth builds the /healthz cluster block, nil when single-node.
func (s *Server) clusterHealth() *ClusterHealth {
	cc := s.opt.Cluster
	if cc == nil || cc.Ring == nil {
		return nil
	}
	ch := &ClusterHealth{Self: cc.Self, Size: cc.Ring.Len()}
	if cc.Snapshot != nil {
		ch.Peers = cc.Snapshot()
	}
	return ch
}
