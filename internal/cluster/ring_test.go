package cluster

import (
	"fmt"
	"testing"

	"repro/internal/resultstore"
)

func testHashes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = resultstore.Hash(fmt.Sprintf("run-key-%d", i))
	}
	return out
}

// TestRingDeterminism: placement depends only on the peer *set* — order,
// trailing slashes, and duplicates in the configuration must not change
// who owns what, or two nodes with cosmetically different -peers flags
// would disagree at failover time.
func TestRingDeterminism(t *testing.T) {
	a := NewRing([]string{"http://n1:1", "http://n2:1", "http://n3:1"})
	b := NewRing([]string{"http://n3:1/", "http://n1:1", "n2:1", "http://n1:1"})
	if got, want := fmt.Sprint(b.Peers()), fmt.Sprint(a.Peers()); got != want {
		t.Fatalf("normalized peer sets differ: %v vs %v", got, want)
	}
	for _, h := range testHashes(64) {
		if a.Owner(h) != b.Owner(h) {
			t.Fatalf("owner(%s) differs across equivalent rings: %s vs %s", h[:12], a.Owner(h), b.Owner(h))
		}
		if got, want := fmt.Sprint(a.Replicas(h, 2)), fmt.Sprint(b.Replicas(h, 2)); got != want {
			t.Fatalf("replicas(%s) differ: %v vs %v", h[:12], got, want)
		}
	}
}

// TestRingBalance: rendezvous hashing should spread ownership roughly
// evenly; with 300 keys over 3 peers, no peer should own fewer than 60
// or more than 140 (a generous 2.3x spread that a broken hash — e.g. one
// ignoring the peer — would blow through immediately).
func TestRingBalance(t *testing.T) {
	r := NewRing([]string{"http://n1:1", "http://n2:1", "http://n3:1"})
	counts := map[string]int{}
	for _, h := range testHashes(300) {
		counts[r.Owner(h)]++
	}
	for peer, n := range counts {
		if n < 60 || n > 140 {
			t.Errorf("peer %s owns %d/300 keys; placement is badly skewed: %v", peer, n, counts)
		}
	}
	if len(counts) != 3 {
		t.Errorf("only %d peers own keys: %v", len(counts), counts)
	}
}

// TestRingMinimalDisruption is rendezvous hashing's reason to exist:
// removing one peer moves exactly the keys it owned — every key owned by
// a surviving peer keeps its owner, so a node death never reshuffles
// placements (and cached results) cluster-wide.
func TestRingMinimalDisruption(t *testing.T) {
	full := NewRing([]string{"http://n1:1", "http://n2:1", "http://n3:1"})
	without3 := NewRing([]string{"http://n1:1", "http://n2:1"})
	moved := 0
	for _, h := range testHashes(200) {
		before := full.Owner(h)
		after := without3.Owner(h)
		if before == "http://n3:1" {
			moved++
			continue // these must move somewhere
		}
		if after != before {
			t.Fatalf("key %s moved from %s to %s though its owner survived", h[:12], before, after)
		}
	}
	if moved == 0 {
		t.Fatal("no keys owned by the removed peer; test hashes too few")
	}
}

// TestRingReplicas: the replica set is owner-first, distinct, sized to
// the ring, and the n=1 prefix of n=2.
func TestRingReplicas(t *testing.T) {
	r := NewRing([]string{"http://n1:1", "http://n2:1", "http://n3:1"})
	for _, h := range testHashes(32) {
		reps := r.Replicas(h, 2)
		if len(reps) != 2 {
			t.Fatalf("replicas(%s, 2) = %v", h[:12], reps)
		}
		if reps[0] != r.Owner(h) {
			t.Errorf("replicas[0] = %s, want owner %s", reps[0], r.Owner(h))
		}
		if reps[0] == reps[1] {
			t.Errorf("duplicate replica %s", reps[0])
		}
	}
	if got := r.Replicas(testHashes(1)[0], 5); len(got) != 3 {
		t.Errorf("replicas beyond ring size = %v, want all 3 peers", got)
	}
	if got := NewRing(nil).Owner("deadbeef"); got != "" {
		t.Errorf("empty ring owner = %q, want empty", got)
	}
}

// TestParsePeers: flag-level parsing normalizes, deduplicates, and drops
// empties.
func TestParsePeers(t *testing.T) {
	got := ParsePeers(" http://a:1/, b:2 ,, http://a:1 ")
	if fmt.Sprint(got) != "[http://a:1 http://b:2]" {
		t.Errorf("ParsePeers = %v", got)
	}
}

// TestRingContains: membership is checked on the normalized URL, so every
// spelling of a configured peer is a member and nothing else is; the
// zero-peer ring contains nothing.
func TestRingContains(t *testing.T) {
	r := NewRing([]string{"http://n1:1", "n2:1/"})
	for _, p := range []string{"http://n1:1", "n1:1", " http://n1:1/ ", "http://n2:1"} {
		if !r.Contains(p) {
			t.Errorf("Contains(%q) = false, want true", p)
		}
	}
	for _, p := range []string{"http://n3:1", "https://n1:1", ""} {
		if r.Contains(p) {
			t.Errorf("Contains(%q) = true, want false", p)
		}
	}
	if NewRing(nil).Contains("http://n1:1") {
		t.Error("empty ring contains a peer")
	}
}
