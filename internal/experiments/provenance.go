// Run provenance: a machine-readable manifest written next to figure
// outputs recording exactly what produced them — the campaign parameters,
// a content hash of the deduplicated run-set, how much of it was fresh
// simulation vs persistent-cache recall, wall time, and the source
// revision — so any figure file can be traced back to the simulations and
// code that generated it.
package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/photonics"
	"repro/internal/recordlog"
	"repro/internal/tech"
	"repro/internal/version"
)

// Provenance describes one completed figure campaign.
type Provenance struct {
	Tool      string   `json:"tool"`
	CreatedAt string   `json:"created_at"` // RFC 3339, wall clock
	Cores     int      `json:"cores"`
	Scale     int      `json:"scale"`
	Seed      int64    `json:"seed"`
	Figures   []string `json:"figures"`

	// Tech and Optics are the campaign's default technology scenario
	// (canonical registry names); Scenarios lists the techsweep's
	// scenario set when a techsweep was part of the campaign. A scenario
	// only re-costs runs, so it is in no run hash (nor RunSetHash): these
	// fields are the manifest's record of it.
	Tech      string   `json:"tech"`
	Optics    string   `json:"optics"`
	Scenarios []string `json:"scenarios,omitempty"`

	// RunSetHash is a SHA-256 over the sorted, deduplicated run hashes
	// (RunHash): two campaigns with the same hash simulated the same
	// (config, benchmark) set at the same scale and horizon.
	RunSetHash string `json:"run_set_hash"`
	Runs       int    `json:"runs"`
	// FreshRuns counts simulations started, including ones in flight,
	// failed or interrupted.
	FreshRuns uint64 `json:"fresh_runs"`
	CacheHits uint64 `json:"cache_hits"`

	// Failure ledger. RecalledFailures counts failed runs recalled from
	// the journal without re-simulation; Failures lists every run that did
	// not complete (terminally failed or interrupted), with its attempt
	// count and final error, so a degraded figure set documents exactly
	// which cells are missing and why. Interrupted marks a campaign cut
	// short by SIGINT/SIGTERM.
	RecalledFailures uint64      `json:"recalled_failures,omitempty"`
	Failures         []RunRecord `json:"failures,omitempty"`
	Interrupted      bool        `json:"interrupted,omitempty"`

	WallSeconds float64 `json:"wall_seconds"`
	Jobs        int     `json:"jobs"`
	GitDescribe string  `json:"git_describe,omitempty"`
	GoVersion   string  `json:"go_version"`
	// CacheSchema is the result-cache schema stamp this build enforces
	// (internal/version), so a manifest records which cache generation its
	// recalled results came from.
	CacheSchema int `json:"cache_schema"`
}

// Provenance assembles the manifest for the given figure ids after a
// campaign has run. wall is the campaign's measured wall-clock duration.
func (r *Runner) Provenance(figures []string, wall time.Duration) Provenance {
	specs := r.CampaignRuns(figures)
	hashes := make([]string, len(specs))
	for i, s := range specs {
		hashes[i] = r.RunHash(s.Cfg, s.Bench)
	}
	sort.Strings(hashes)
	h := sha256.New()
	for _, rh := range hashes {
		fmt.Fprintln(h, rh)
	}
	var scenarios []string
	for _, id := range figures {
		if id == "techsweep" {
			for _, s := range r.techScenarios() {
				scenarios = append(scenarios, s.Name())
			}
		}
	}
	return Provenance{
		Tool:             "figures",
		CreatedAt:        time.Now().UTC().Format(time.RFC3339),
		Cores:            r.Opt.Cores,
		Scale:            r.Opt.Scale,
		Seed:             r.Opt.Seed,
		Figures:          figures,
		Tech:             tech.Canonical(r.Opt.Tech),
		Optics:           photonics.Canonical(r.Opt.Optics),
		Scenarios:        scenarios,
		RunSetHash:       hex.EncodeToString(h.Sum(nil)),
		Runs:             len(specs),
		FreshRuns:        r.FreshRuns(),
		CacheHits:        r.CacheHits(),
		RecalledFailures: r.RecalledFailures(),
		Failures:         r.FailedRuns(),
		Interrupted:      r.Interrupted(),
		WallSeconds:      wall.Seconds(),
		Jobs:             r.jobs(),
		GitDescribe:      version.GitDescribe(),
		GoVersion:        runtime.Version(),
		CacheSchema:      version.CacheSchema,
	}
}

// WriteManifest writes the manifest as indented JSON at path, via the same
// fsync-and-rename discipline as the cache and journal, so an interrupted
// write can never leave a torn manifest beside otherwise-valid figures.
func WriteManifest(path string, p Provenance) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return recordlog.AtomicWriteFile(path, append(data, '\n'), 0o644)
}
