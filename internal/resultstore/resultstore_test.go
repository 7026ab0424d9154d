package resultstore

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/system"
)

// memStore is a trivial in-memory Store for exercising the tiers.
type memStore struct {
	mu sync.Mutex
	m  map[string]system.Result
}

func newMemStore() *memStore { return &memStore{m: map[string]system.Result{}} }

func (s *memStore) Get(key string) (system.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.m[key]
	return res, ok
}

func (s *memStore) Put(key string, res system.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = res
	return nil
}

func (s *memStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// peerServer is a minimal daemon-side cache endpoint: GET serves stored
// entries, PUT accepts pushes. Mirrors the serve-layer handlers.
func peerServer(t *testing.T) (*httptest.Server, *memStore, int) {
	t.Helper()
	const schema = 7
	store := newMemStore()
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+CachePathPrefix+"{hash}", func(w http.ResponseWriter, r *http.Request) {
		store.mu.Lock()
		defer store.mu.Unlock()
		for key, res := range store.m {
			if Hash(key) == r.PathValue("hash") {
				json.NewEncoder(w).Encode(Entry{Schema: schema, Key: key, Result: res})
				return
			}
		}
		http.NotFound(w, r)
	})
	mux.HandleFunc("PUT "+CachePathPrefix+"{hash}", func(w http.ResponseWriter, r *http.Request) {
		var e Entry
		if err := json.NewDecoder(r.Body).Decode(&e); err != nil || e.Schema != schema {
			http.Error(w, "bad entry", http.StatusBadRequest)
			return
		}
		store.Put(e.Key, e.Result)
		w.WriteHeader(http.StatusNoContent)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, store, schema
}

func testResult(n uint64) system.Result {
	var res system.Result
	res.Instructions = n
	return res
}

func pickAll(bases ...string) func(string) []string {
	return func(string) []string { return bases }
}

// TestPeersReadThrough: a key held by a peer is served, validated, and
// counted; an absent key is a miss across all peers.
func TestPeersReadThrough(t *testing.T) {
	srv, store, schema := peerServer(t)
	store.Put("key-a", testResult(42))

	p := &Peers{Pick: pickAll(srv.URL), Schema: schema, Logf: t.Logf}
	res, ok := p.Get("key-a")
	if !ok || res.Instructions != 42 {
		t.Fatalf("Get(key-a) = %+v, %v", res, ok)
	}
	if _, ok := p.Get("key-missing"); ok {
		t.Fatal("Get(key-missing) hit")
	}
	if p.Hits() != 1 || p.Misses() != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", p.Hits(), p.Misses())
	}
}

// TestPeersSchemaAndKeyValidation: entries with the wrong schema stamp
// or a mismatched embedded key read as misses, never as results — the
// same trust boundary the local cache applies to its own files.
func TestPeersSchemaAndKeyValidation(t *testing.T) {
	srv, store, schema := peerServer(t)
	store.Put("key-a", testResult(1))

	wrongSchema := &Peers{Pick: pickAll(srv.URL), Schema: schema + 1, Logf: t.Logf}
	if _, ok := wrongSchema.Get("key-a"); ok {
		t.Fatal("schema-mismatched entry accepted")
	}
	if wrongSchema.Errors() == 0 {
		t.Error("schema rejection not counted as error")
	}

	// A peer that serves some *other* key's entry under this hash (e.g. a
	// buggy route) must be rejected by the embedded-key check.
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(Entry{Schema: schema, Key: "key-other", Result: testResult(9)})
	}))
	defer evil.Close()
	p := &Peers{Pick: pickAll(evil.URL), Schema: schema, Logf: t.Logf}
	if _, ok := p.Get("key-a"); ok {
		t.Fatal("key-mismatched entry accepted")
	}
}

// TestPeersDeadPeerSkipped: an unreachable replica costs one counted
// error and the next candidate answers.
func TestPeersDeadPeerSkipped(t *testing.T) {
	srv, store, schema := peerServer(t)
	store.Put("key-a", testResult(3))

	p := &Peers{Pick: pickAll("http://127.0.0.1:1", srv.URL), Schema: schema, Logf: t.Logf}
	res, ok := p.Get("key-a")
	if !ok || res.Instructions != 3 {
		t.Fatalf("Get via surviving peer = %+v, %v", res, ok)
	}
	if p.Errors() == 0 {
		t.Error("dead peer not counted")
	}
}

// TestPeersPush: Put replicates to live peers and reports (but survives)
// dead ones.
func TestPeersPush(t *testing.T) {
	srv, store, schema := peerServer(t)
	p := &Peers{Pick: pickAll(srv.URL, "http://127.0.0.1:1"), Schema: schema, Logf: t.Logf}

	err := p.Put("key-b", testResult(5))
	if err == nil {
		t.Error("Put with a dead peer returned nil (should surface first error for logging)")
	}
	if res, ok := store.Get("key-b"); !ok || res.Instructions != 5 {
		t.Fatalf("peer store after push = %+v, %v", res, ok)
	}
	if p.Pushes() != 1 || p.PushErrors() != 1 {
		t.Errorf("pushes=%d pushErrs=%d, want 1/1", p.Pushes(), p.PushErrors())
	}
}

// TestTieredReadThroughAndWriteBack: local miss -> peer hit -> local
// write-back; the second Get never touches the network.
func TestTieredReadThroughAndWriteBack(t *testing.T) {
	srv, store, schema := peerServer(t)
	store.Put("key-a", testResult(11))

	calls := 0
	local := newMemStore()
	tiered := &Tiered{
		Local: local,
		Remote: &Peers{
			Schema: schema,
			Logf:   t.Logf,
			Pick: func(hash string) []string {
				calls++
				return []string{srv.URL}
			},
		},
	}

	res, ok := tiered.Get("key-a")
	if !ok || res.Instructions != 11 {
		t.Fatalf("tiered Get = %+v, %v", res, ok)
	}
	if tiered.Writebacks() != 1 {
		t.Errorf("writebacks = %d, want 1", tiered.Writebacks())
	}
	if _, ok := local.Get("key-a"); !ok {
		t.Fatal("peer hit not written back locally")
	}
	if _, ok := tiered.Get("key-a"); !ok {
		t.Fatal("second Get missed")
	}
	if calls != 1 {
		t.Errorf("remote consulted %d times; write-back should make the second Get local", calls)
	}
}

// TestTieredPut: Put lands locally and replicates outward; with a nil
// Remote the Tiered store degrades to exactly the local tier.
func TestTieredPut(t *testing.T) {
	srv, store, schema := peerServer(t)
	local := newMemStore()
	tiered := &Tiered{Local: local, Remote: &Peers{Pick: pickAll(srv.URL), Schema: schema, Logf: t.Logf}}
	if err := tiered.Put("key-c", testResult(8)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, ok := local.Get("key-c"); !ok {
		t.Fatal("Put skipped local tier")
	}
	if _, ok := store.Get("key-c"); !ok {
		t.Fatal("Put did not replicate to peer")
	}

	solo := &Tiered{Local: newMemStore()}
	if err := solo.Put("key-d", testResult(1)); err != nil {
		t.Fatalf("solo Put: %v", err)
	}
	if _, ok := solo.Get("key-d"); !ok {
		t.Fatal("solo Get missed")
	}
	if _, ok := solo.Get("key-absent"); ok {
		t.Fatal("solo Get of absent key hit")
	}
	_ = store.len()
}

// TestHashStable: the hash is sha256 hex of the key — peers on different
// nodes must agree byte-for-byte.
func TestHashStable(t *testing.T) {
	const want = "2c26b46b68ffc68ff99b453c1d30413413422d706483bfa0f98a5e886266e7ae"
	if got := Hash("foo"); got != want {
		t.Fatalf("Hash(foo) = %s, want %s", got, want)
	}
}

// TestPeersDefaultTimeout: with no HTTP client, peer requests use one
// client bounded by 2s.
func TestPeersDefaultTimeout(t *testing.T) {
	p := &Peers{}
	c := p.http()
	if c.Timeout != 2*time.Second {
		t.Errorf("client timeout %v, want 2s", c.Timeout)
	}
	if p.http() != c {
		t.Error("second call built a new client")
	}
	own := &http.Client{}
	if got := (&Peers{HTTP: own}).http(); got != own {
		t.Error("explicit HTTP client not used")
	}
}
