package main

import "testing"

// TestSelfFromAddr: a wildcard or empty listen host becomes loopback, a
// named host is kept, and an address without a port is taken as the peer
// URL itself.
func TestSelfFromAddr(t *testing.T) {
	for _, tc := range []struct{ addr, want string }{
		{":8347", "http://127.0.0.1:8347"},
		{"[::]:8347", "http://127.0.0.1:8347"},
		{"0.0.0.0:1", "http://127.0.0.1:1"},
		{"localhost:9", "http://localhost:9"},
		{"node3", "http://node3"},
	} {
		if got := selfFromAddr(tc.addr); got != tc.want {
			t.Errorf("selfFromAddr(%q) = %q, want %q", tc.addr, got, tc.want)
		}
	}
}
