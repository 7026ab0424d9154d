package traffic

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/sim"
)

// -update rewrites the golden of each test run from the current code:
//
//	go test ./internal/traffic -run TestDriveGolden -update
//	go test ./internal/traffic -run TestDriveEventCounts -update
//
// Only do that for an intended behaviour change: drive_golden.json pins
// where Drive's injections land in the kernel's buckets and the order of
// its RNG draws, which the determinism tests (same code twice) cannot see;
// drive_events_golden.json pins how many kernel events each run executes.
var update = flag.Bool("update", false, "rewrite testdata/drive_golden.json or drive_events_golden.json")

const (
	driveGolden       = "testdata/drive_golden.json"
	driveEventsGolden = "testdata/drive_events_golden.json"
)

// driveWindows are the two measurement windows every (kind, pattern) is
// driven through. Both horizons lie beyond the kernel's 4096-cycle wheel,
// so part of each injection schedule is queued as far events.
var driveWindows = []struct {
	load            float64
	warmup, measure sim.Time
}{
	{0.03, 0, 9000},
	{0.2, 1000, 5000},
}

// driveRecord is everything a Drive call leaves observable: the returned
// Result (the latency histogram through its percentiles), the fabric's
// counters, and where the kernel stands afterwards.
type driveRecord struct {
	Pattern             string
	Load                float64
	Injected, Delivered uint64
	LatCount, LatMax    uint64
	LatMean             float64
	LatPercentiles      []uint64
	Net                 json.RawMessage // netRecord
	Now                 sim.Time
	Pending             int
}

// netRecord is the JSON of st in the noc.Stats layout the golden was
// recorded with. Counters that have since been merged into a twin are
// written back beside it from that twin; the per-class latency sums were
// the whole latency sum, because Drive's messages are all one class. The
// recorded digests therefore still pin every surviving counter, and pin that
// each removed counter equalled its twin.
func netRecord(st noc.Stats) json.RawMessage {
	after := map[string][][2]string{ // field -> removed fields that followed it, each with its twin
		"LatencyMax":   {{"CtrlLatencySum", "LatencySum"}, {"CtrlLatencyCount", "LatencyCount"}, {"DataLatencySum", ""}, {"DataLatencyCount", ""}},
		"SelectEvents": {{"LaserUniCycles", "ONetUniFlits"}, {"LaserBcastCycles", "ONetBcastFlits"}},
		"XbarFlits":    {{"XbarLaserCycles", "XbarFlits"}},
		"ExpressFlits": {{"ExpressLaserCycles", "ExpressFlits"}, {"MeshFlitErrors", "MeshNacks"}},
	}
	v := reflect.ValueOf(st)
	var b bytes.Buffer
	field := func(name string, val uint64) {
		if b.Len() == 0 {
			b.WriteByte('{')
		} else {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%d", name, val)
	}
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		field(name, v.Field(i).Uint())
		for _, removed := range after[name] {
			var twin uint64
			if removed[1] != "" {
				twin = v.FieldByName(removed[1]).Uint()
			}
			field(removed[0], twin)
		}
	}
	b.WriteByte('}')
	return b.Bytes()
}

// driveDigest runs one case and returns its digest and the number of
// kernel events the run executed. The count comes from a poll armed to run
// before every event; a poll schedules nothing, so it leaves the run as it
// was.
func driveDigest(t *testing.T, kind config.NetworkKind, pattern string, w int) (string, uint64) {
	t.Helper()
	cfg := config.Small().WithNetwork(kind)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var k sim.Kernel
	net, err := noc.New(&k, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ByName(pattern, cfg.MeshDim(), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	var events uint64
	k.SetPoll(1, func() error { events++; return nil })
	win := driveWindows[w]
	res := Drive(&k, net, cfg.Cores, p, win.load, cfg.Network.FlitBits,
		win.warmup, win.measure, 20000, 7)
	rec := driveRecord{
		Pattern: res.Pattern, Load: res.Load,
		Injected: res.Injected, Delivered: res.Delivered,
		LatCount: res.Latency.Count(), LatMax: res.Latency.Max(), LatMean: res.Latency.Mean(),
		Net: netRecord(*net.Stats()), Now: k.Now(), Pending: k.Pending(),
	}
	for pc := 1; pc <= 100; pc++ {
		rec.LatPercentiles = append(rec.LatPercentiles, res.Latency.Percentile(float64(pc)))
	}
	if rec.Injected == 0 {
		t.Fatalf("%v/%s/%d: nothing injected", kind, pattern, w)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), events
}

// driveOutcome is what one case leaves: its digest and its event count.
type driveOutcome struct {
	digest string
	events uint64
}

// driveRuns memoizes driveCases: TestDriveGolden and TestDriveEventCounts
// read the same 72 runs instead of repeating them.
var driveRuns map[string]driveOutcome

// driveCases runs every (kind, pattern, window) case, once per test binary.
func driveCases(t *testing.T) map[string]driveOutcome {
	t.Helper()
	if driveRuns != nil {
		return driveRuns
	}
	kinds := []config.NetworkKind{config.EMeshPure, config.EMeshBCast, config.ATAC,
		config.ATACPlus, config.Corona, config.HybridMesh}
	got := map[string]driveOutcome{}
	for _, kind := range kinds {
		for _, pattern := range Patterns() {
			for w := range driveWindows {
				var o driveOutcome
				o.digest, o.events = driveDigest(t, kind, pattern, w)
				got[fmt.Sprintf("%v/%s/%d", kind, pattern, w)] = o
			}
		}
	}
	driveRuns = got
	return got
}

// TestDriveGolden pins Drive's observable output on every fabric kind and
// pattern at 64 cores against testdata/drive_golden.json: a sha256 per case
// over the Result, the fabric's Stats and the kernel's final Now and
// Pending. A change to how Drive schedules its injections, or to the
// kernel's same-cycle order, moves some of them.
func TestDriveGolden(t *testing.T) {
	got := map[string]string{}
	for name, o := range driveCases(t) {
		got[name] = o.digest
	}
	checkGolden(t, driveGolden, got, func(g, w string) string { return fmt.Sprintf("digest %s, want %s", g[:16], w) })
}

// TestDriveEventCounts pins, per TestDriveGolden case, how many kernel
// events the run executes (testdata/drive_events_golden.json). It is the
// cost gate's first count: a change that only makes event handlers cheaper
// leaves every count equal, and one that adds or drops a scheduled event
// moves one, even where the run's digest could not tell.
func TestDriveEventCounts(t *testing.T) {
	got := map[string]uint64{}
	for name, o := range driveCases(t) {
		got[name] = o.events
	}
	checkGolden(t, driveEventsGolden, got, func(g, w uint64) string { return fmt.Sprintf("%d events, want %d", g, w) })
}

// checkGolden compares got with the JSON map in file, or rewrites the file
// under -update; diff words one mismatch.
func checkGolden[V comparable](t *testing.T, file string, got map[string]V, diff func(got, want V) string) {
	t.Helper()
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]V{}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, test runs %d", len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok || w != g {
			t.Errorf("%s: %s", name, diff(g, w))
		}
	}
}
