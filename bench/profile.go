package main

// The layer-cost table: a CPU profile the harness starts and stops
// around the traced ops, folded by `go tool pprof -top` into the flat
// sample share of each layer. Sampling from outside — no program change.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
)

// shareNames are the layers of the table, in the order they are printed.
var shareNames = []string{"cpu", "coherence", "noc", "sim", "system", "workload",
	"experiments", "serve", "runtime_sched", "runtime_chan", "runtime_gc", "other"}

// modulePkgLayer maps a package under repro/internal to its layer.
var modulePkgLayer = map[string]string{
	"cpu": "cpu", "coherence": "coherence", "mem": "coherence",
	"noc": "noc", "fault": "noc", "traffic": "noc",
	"sim":    "sim",
	"system": "system", "metrics": "system", "energy": "system", "config": "system",
	"dsent": "system", "mcpat": "system", "photonics": "system", "tech": "system",
	"stats": "system", "trace": "system",
	"workload":    "workload",
	"experiments": "experiments", "report": "experiments", "resultstore": "experiments", "plot": "experiments",
	"serve": "serve", "cluster": "serve",
}

// layerOf assigns a profile leaf function to a layer by its package.
// runtime splits three ways: channel operations, the collector with the
// allocator, and everything else (scheduler, futex, timers), which is
// where the core<->kernel goroutine handshake lands.
func layerOf(fn string) string {
	// Package path = everything before the first '.' after the last '/'.
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "other"
	}
	pkg, name := fn[:slash+1+dot], fn[slash+2+dot:]
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		if l, ok := modulePkgLayer[rest]; ok {
			return l
		}
		return "other"
	}
	if pkg != "runtime" && !strings.HasPrefix(pkg, "runtime/") && !strings.HasPrefix(pkg, "internal/runtime/") {
		return "other"
	}
	name = strings.TrimPrefix(name, "(*")
	switch {
	case hasAnyPrefix(name, "chan", "send", "recv", "selectgo", "sel", "closechan", "hchan", "sudog", "waitq", "acquireSudog", "releaseSudog"):
		return "runtime_chan"
	case hasAnyPrefix(name, "gc", "scan", "mark", "sweep", "bgsweep", "bgscavenge", "greyobject", "wbBuf", "wbZero", "wbMove",
		"malloc", "newobject", "newarray", "growslice", "makeslice", "nextFree", "mcache", "mcentral", "mheap", "mspan",
		"memclr", "heapBits", "spanOf", "findObject", "typePointers", "bulkBarrier", "deductAssist", "pageAlloc", "publicationBarrier"):
		return "runtime_gc"
	}
	return "runtime_sched"
}

func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// cpuProfile is a running CPU profile writing to path.
type cpuProfile struct {
	path string
	f    *os.File
}

func startProfile(path string) (*cpuProfile, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

// stop ends the profile and folds it into layer shares that sum to 1.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000", "-nodefraction=0", p.path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -top: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return foldTop(out)
}

// foldTop parses `pprof -top -unit=ms` text: after the header row
// ("flat flat% sum% cum cum%"), each line is
// "<flat>ms <flat%> <sum%> <cum>ms <cum%> <function>".
func foldTop(out []byte) (map[string]float64, error) {
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	inTable := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top: unreadable flat value %q", fields[0])
		}
		// A function name may contain spaces ("type..eq.[2]interface {}").
		flat[layerOf(strings.Join(fields[5:], " "))] += v
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -top: profile holds no samples")
	}
	shares := make(map[string]float64, len(shareNames))
	for _, l := range shareNames {
		shares[l] = flat[l] / total
	}
	return shares, nil
}
