package system

import (
	"encoding/json"
	"testing"

	"repro/internal/config"
)

// runEngines runs the same benchmark on a serial machine and on a sharded
// one and returns both results plus the effective shard count actually
// used by the sharded machine.
func runEngines(t *testing.T, cfg config.Config, bench string, scale, shards int) (serial, sharded Result, eff int) {
	t.Helper()
	serial, err := RunBenchmark(cfg, bench, scale, 0)
	if err != nil {
		t.Fatalf("serial %s: %v", bench, err)
	}
	s, err := NewSharded(cfg, shards)
	if err != nil {
		t.Fatalf("NewSharded(%d): %v", shards, err)
	}
	spec, err := WorkloadFor(cfg, bench, scale)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err = s.Run(spec, 0)
	if err != nil {
		t.Fatalf("sharded(%d) %s: %v", s.Shards, bench, err)
	}
	return serial, sharded, s.Shards
}

// mustMatch asserts two results are byte-identical through the same JSON
// encoding the experiments cache uses — the property that lets sharded and
// serial runs share persistent cache entries.
func mustMatch(t *testing.T, label string, serial, sharded Result) {
	t.Helper()
	a, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("%s: sharded result diverged from serial\nserial:  %s\nsharded: %s", label, a, b)
	}
}

// TestShardedParity16Core is the cross-engine correctness bar: at 16 cores
// every benchmark's full figure-feeding counter block — runtime cycles,
// instructions, coherence and network statistics — must be bit-identical
// between the serial kernel and the sharded engine, for every network
// kind, and across seeds.
func TestShardedParity16Core(t *testing.T) {
	kinds := []config.NetworkKind{config.ATACPlus, config.EMeshBCast, config.EMeshPure}
	benches := []string{"radix", "fmm", "lu_contig", "barnes"}
	for _, kind := range kinds {
		for _, bench := range benches {
			cfg := config.Tiny().WithNetwork(kind)
			serial, sharded, eff := runEngines(t, cfg, bench, 1, 2)
			if eff != 2 {
				t.Fatalf("%v/%s: effective shards = %d, want 2", kind, bench, eff)
			}
			mustMatch(t, kind.String()+"/"+bench, serial, sharded)
		}
	}
	// Seed variation on the broadcast-heaviest workload: parity must hold
	// for arbitrary initial data, not one lucky schedule.
	for _, seed := range []int64{7, 99, 12345} {
		cfg := config.Tiny()
		cfg.Seed = seed
		serial, sharded, _ := runEngines(t, cfg, "dynamic_graph", 1, 2)
		mustMatch(t, "seeded dynamic_graph", serial, sharded)
	}
}

// TestShardedParity64Core pushes the same property through a 64-core
// machine at 4 shards, where cross-shard ENet traffic crosses two slab
// boundaries and the ONet spans four shards.
func TestShardedParity64Core(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core parity skipped in -short")
	}
	for _, bench := range []string{"radix", "lu_contig"} {
		cfg := config.Small()
		serial, sharded, eff := runEngines(t, cfg, bench, 1, 4)
		if eff != 4 {
			t.Fatalf("%s: effective shards = %d, want 4", bench, eff)
		}
		mustMatch(t, "small/"+bench, serial, sharded)
	}
}

// TestShardedDegenerateAndFallbacks pins the construction policy: one
// requested shard or an infeasible count degenerates to the serial engine,
// fault-injected configs refuse to shard, and EffectiveShards only ever
// returns divisors of the cluster-row count.
func TestShardedDegenerateAndFallbacks(t *testing.T) {
	s, err := NewSharded(config.Tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards != 1 || s.sh != nil {
		t.Errorf("shards=1 must stay serial, got %d", s.Shards)
	}
	cfg := config.Tiny()
	cfg.Fault = config.DefaultFault()
	cfg.Fault.Enabled = true
	s, err = NewSharded(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards != 1 {
		t.Errorf("fault-injected config sharded to %d, want serial", s.Shards)
	}
	small := config.Small() // 64 cores, 4 cluster rows
	for _, c := range []struct{ req, want int }{
		{1, 1}, {2, 2}, {3, 2}, {4, 4}, {5, 4}, {1 << 20, 4},
	} {
		if got := EffectiveShards(&small, c.req); got != c.want {
			t.Errorf("EffectiveShards(Small, %d) = %d, want %d", c.req, got, c.want)
		}
	}
}

// TestShardedSlowLinksStaySerial: a valid optical machine whose electrical
// link (the engine's lookahead) is slower than its optical hop cannot be
// partitioned — an optical delivery would land inside the window that
// sent it — so NewSharded keeps the serial kernel and the result is the
// serial run's.
func TestShardedSlowLinksStaySerial(t *testing.T) {
	for _, kind := range []config.NetworkKind{config.ATACPlus, config.HybridMesh} {
		cfg := config.Tiny().WithNetwork(kind)
		cfg.Network.LinkDelay = 10
		serial, sharded, eff := runEngines(t, cfg, "radix", 1, 2)
		if eff != 1 {
			t.Errorf("%v: LinkDelay 10 sharded to %d, want serial", kind, eff)
		}
		mustMatch(t, kind.String()+"/LinkDelay10", serial, sharded)
	}
}
