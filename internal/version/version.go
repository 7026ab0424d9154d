// Package version is the single source of build and schema identity for
// every binary in the repository: the git revision of the working tree
// and the persistent result-cache schema stamp. It sits below every other
// internal package (it imports only the standard library), so the cache,
// the provenance manifest, the serving daemon's /healthz endpoint and the
// -version flag of each command all agree on what "this build" means.
package version

import (
	"fmt"
	"os/exec"
	"runtime"
	"strings"
)

// CacheSchema stamps every persisted result-cache entry. Bump it whenever
// the simulator's observable behavior changes (timing model, coherence
// protocol, workload generation, Result layout): a mismatched stamp makes
// every old entry a miss, so stale results can never leak into figures or
// served job results.
//
// History: 1 initial; 2 system.Result gained the Synth section for
// network-only synthetic-traffic runs; 3 the NoC moved to registered
// input staging (flits injected or landing off a link become arbitrable
// the next cycle) and canonical same-cycle ONet receive ordering — the
// determinism model that makes sharded PDES runs bit-identical to
// serial ones — shifting every timing-derived figure by about a percent;
// 4 Config gained the Tech/Optics technology-scenario fields, which
// enter both the run key and the serialized config inside every cache
// key, so schema-3 entries can no longer be matched to their runs;
// 5 the Corona crossbar and hybrid fabric backends arrived: Config
// gained the Hybrid.Radius field (part of the hybrid run key) and Stats
// gained the crossbar/express counters, so pre-crossbar entries neither
// parse into the new Result layout nor key identically;
// 6 one run identity: the cache key is the JSON of the run config
// (energy-only fields reset, scenario names canonical) instead of a
// hand-written key plus the raw config, and Stats lost the five counters
// that duplicated a twin and the per-class latency sums.
const CacheSchema = 6

// GitDescribe returns `git describe --always --dirty --tags` for the
// working tree, or "" when git or the repository is unavailable.
func GitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// Revision returns the best available build identity: the git describe
// string when the binary runs inside the repository, else "dev".
func Revision() string {
	if v := GitDescribe(); v != "" {
		return v
	}
	return "dev"
}

// String renders the full version line the -version flags and the daemon
// /healthz endpoint report: revision, cache schema, and Go runtime.
func String() string {
	return fmt.Sprintf("%s (cache schema %d, %s)", Revision(), CacheSchema, runtime.Version())
}
