package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/system"
)

// radix16 is the submit arguments of every job these tests run.
var radix16 = []string{"-bench", "radix", "-cores", "16"}

// daemon starts an in-process atacd on loopback and returns a client for
// it that does not retry.
func daemon(t *testing.T) *serve.Client {
	t.Helper()
	r := experiments.NewRunner(experiments.Options{Cores: 16, Scale: 1, Seed: 42})
	s := serve.New(r, serve.Options{QueueDepth: 4, Workers: 1}, t.Logf)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	})
	return &serve.Client{Base: ts.URL, Retries: -1}
}

// capture runs fn with os.Stdout redirected into a pipe and returns what
// it printed there; os.Stderr (submit -wait's progress) is discarded.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = w, null
	ferr := fn()
	os.Stdout, os.Stderr = stdout, stderr
	w.Close()
	null.Close()
	s := <-out
	r.Close()
	return s, ferr
}

// decode unmarshals one command's stdout into v.
func decode(t *testing.T, out string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(out), v); err != nil {
		t.Fatalf("stdout is not the expected JSON: %v\n%s", err, out)
	}
}

// checkResult asserts that out is the Result JSON of a finished 16-core
// radix run.
func checkResult(t *testing.T, out string) {
	t.Helper()
	var res system.Result
	decode(t, out, &res)
	if res.Benchmark != "radix" || res.Cfg.Cores != 16 || !res.Finished || res.Cycles == 0 {
		t.Errorf("result: benchmark %q, %d cores, finished %v, %d cycles",
			res.Benchmark, res.Cfg.Cores, res.Finished, res.Cycles)
	}
}

// TestSubmitWaitPrintsResult: submit -wait prints the run's Result JSON.
func TestSubmitWaitPrintsResult(t *testing.T) {
	c := daemon(t)
	out, err := capture(t, func() error { return submit(c, append(radix16, "-wait")) })
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, out)
}

// TestSubmitStatusWatchResult walks one job through every read command:
// submit prints the accepted job's status, status prints it by id and in
// the list, watch streams its events until it ends, and result prints the
// Result JSON.
func TestSubmitStatusWatchResult(t *testing.T) {
	c := daemon(t)
	out, err := capture(t, func() error { return submit(c, radix16) })
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	decode(t, out, &st)
	if st.ID == "" || st.Hash == "" || st.Bench != "radix" {
		t.Fatalf("submit printed %+v", st)
	}

	out, err = capture(t, func() error { return watch(c, []string{"-id", st.ID}) })
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for _, line := range lines {
		phase, data, _ := strings.Cut(line, " ")
		var ev experiments.RunEvent
		decode(t, strings.TrimSpace(data), &ev)
		if ev.Phase != phase || ev.Hash != st.Hash {
			t.Errorf("watch line %q: phase %q, hash %q", line, ev.Phase, ev.Hash)
		}
	}
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, experiments.PhaseDone+" ") {
		t.Errorf("watch ended on %q, want a %s event", last, experiments.PhaseDone)
	}

	out, err = capture(t, func() error { return status(c, []string{"-id", st.ID}) })
	if err != nil {
		t.Fatal(err)
	}
	var one serve.JobStatus
	decode(t, out, &one)
	if one.ID != st.ID || one.State != serve.StateDone {
		t.Errorf("status -id printed %+v, want job %s done", one, st.ID)
	}

	out, err = capture(t, func() error { return status(c, nil) })
	if err != nil {
		t.Fatal(err)
	}
	var all []serve.JobStatus
	decode(t, out, &all)
	if len(all) != 1 || all[0].ID != st.ID {
		t.Errorf("status printed %+v, want the one job %s", all, st.ID)
	}

	out, err = capture(t, func() error { return result(c, []string{"-id", st.ID}) })
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, out)
}

// TestHealthPrintsStatus: health prints the daemon's /healthz JSON.
func TestHealthPrintsStatus(t *testing.T) {
	c := daemon(t)
	out, err := capture(t, func() error { return health(c) })
	if err != nil {
		t.Fatal(err)
	}
	var h serve.Health
	decode(t, out, &h)
	if h.Status != "ok" || h.Version == "" || h.QueueCap != 4 {
		t.Errorf("health printed %+v", h)
	}
}

// TestCommandErrors: an unknown job id is an error, and watch and result
// refuse to run without -id.
func TestCommandErrors(t *testing.T) {
	c := daemon(t)
	if out, err := capture(t, func() error { return status(c, []string{"-id", "unknown"}) }); err == nil {
		t.Errorf("status -id unknown succeeded, printed %q", out)
	}
	for name, cmd := range map[string]func(*serve.Client, []string) error{"watch": watch, "result": result} {
		if _, err := capture(t, func() error { return cmd(c, nil) }); err == nil || !strings.Contains(err.Error(), "missing -id") {
			t.Errorf("%s without -id: %v, want a missing -id error", name, err)
		}
	}
}
