// HTTP peer backend: read-through Gets against other cluster nodes'
// caches, plus best-effort push replication on Put. The daemon exposes
// the matching endpoints (GET/PUT /v1/cache/{hash}, see internal/serve);
// both sides exchange the Entry wire format and validate it, so a
// version-skewed or confused peer can only ever produce a miss.
package resultstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/system"
)

// CachePathPrefix is the daemon route peers exchange entries on; the
// entry's hash (sha256 hex of its key) is appended.
const CachePathPrefix = "/v1/cache/"

// Peers is a Store backed by other cluster nodes over HTTP.
//
// Get asks each candidate peer in order and returns the first entry that
// validates (schema matches, embedded key matches); unreachable peers
// and misses just advance to the next candidate, so a dead replica costs
// one connection attempt, never an error. Put pushes the entry to every
// candidate peer, best effort — replication narrows the window in which
// a node's death loses results, it is not a durability guarantee (the
// journal/resume machinery owns that).
type Peers struct {
	// Pick returns the base URLs to consult for a given entry hash, in
	// preference order — typically the ring's replica set for that hash,
	// minus this node, filtered to probed-healthy peers. Required.
	Pick func(hash string) []string
	// Schema is the cache schema stamp entries must carry
	// (version.CacheSchema); mismatched peers read as misses.
	Schema int
	// HTTP is the transport; nil means peerClient.
	HTTP *http.Client
	// Logf, if non-nil, narrates validation rejections and push errors.
	Logf func(format string, args ...any)

	hits, misses, errs, pushes, pushErrs atomic.Uint64
}

// peerClient bounds each peer request to 2s: peer reads sit on the
// simulation path (a failed read-through falls back to re-simulating), so
// they must fail fast.
var peerClient = &http.Client{Timeout: 2 * time.Second}

func (p *Peers) http() *http.Client {
	if p.HTTP != nil {
		return p.HTTP
	}
	return peerClient
}

func (p *Peers) logf(format string, args ...any) {
	if p.Logf != nil {
		p.Logf(format, args...)
	}
}

// Get fetches key from the first candidate peer that has a valid entry.
func (p *Peers) Get(key string) (system.Result, bool) {
	hash := Hash(key)
	for _, base := range p.Pick(hash) {
		resp, err := p.http().Get(base + CachePathPrefix + hash)
		if err != nil {
			p.errs.Add(1)
			continue
		}
		var e Entry
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			continue
		}
		if resp.StatusCode != http.StatusOK || derr != nil {
			p.errs.Add(1)
			continue
		}
		// The same trust boundary the local backend enforces on its own
		// files: a peer served bytes, but only a matching schema and an
		// exactly matching key make them this run's result.
		if e.Schema != p.Schema || e.Key != key {
			p.errs.Add(1)
			p.logf("resultstore: peer %s served invalid entry for %s (schema %d, key match %v); ignoring",
				base, hash[:12], e.Schema, e.Key == key)
			continue
		}
		p.hits.Add(1)
		return e.Result, true
	}
	p.misses.Add(1)
	return system.Result{}, false
}

// Put replicates the entry to every candidate peer, best effort: the
// first error is returned for logging, but callers never fail a run on
// it.
func (p *Peers) Put(key string, res system.Result) error {
	hash := Hash(key)
	data, err := json.Marshal(Entry{Schema: p.Schema, Key: key, Result: res})
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	var firstErr error
	for _, base := range p.Pick(hash) {
		req, err := http.NewRequest(http.MethodPut, base+CachePathPrefix+hash, bytes.NewReader(data))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := p.http().Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode < 300 {
				p.pushes.Add(1)
				continue
			}
			err = fmt.Errorf("peer %s: %s", base, resp.Status)
		}
		p.pushErrs.Add(1)
		if firstErr == nil {
			firstErr = err
		}
		p.logf("resultstore: replicate %s to %s: %v", hash[:12], base, err)
	}
	return firstErr
}

// Hits reports how many Gets a peer answered.
func (p *Peers) Hits() uint64 { return p.hits.Load() }

// Misses reports how many Gets no peer could answer.
func (p *Peers) Misses() uint64 { return p.misses.Load() }

// Errors reports transport failures and invalid entries across peers.
func (p *Peers) Errors() uint64 { return p.errs.Load() }

// Pushes reports successful replication writes to peers.
func (p *Peers) Pushes() uint64 { return p.pushes.Load() }

// PushErrors reports failed replication writes.
func (p *Peers) PushErrors() uint64 { return p.pushErrs.Load() }
