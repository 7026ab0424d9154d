// Flag/API-level configuration building, shared by every front end.
//
// Every front end describes a machine the same way — a network name, a
// core count, and a handful of optional overrides, bound from the shared
// flags (flags.go) — and they must all resolve that description to the
// exact same config.Config, or a result served by the daemon would not be
// comparable to one produced by the CLI or a figure. Geometry and
// BuildConfig are that single resolution path: Options.Config, atacsim,
// sweep and the daemon all call BuildConfig, and no defaulting rule lives
// anywhere else.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/photonics"
	"repro/internal/tech"
)

// networkAliases are the short network names the front ends accept besides
// the config table's names; "" defaults to ATAC+.
var networkAliases = map[string]config.NetworkKind{
	"": config.ATACPlus, "pure": config.EMeshPure, "bcast": config.EMeshBCast,
	"atacplus": config.ATACPlus, "crossbar": config.Corona, "morpho": config.HybridMesh,
}

// ParseNetworkKind maps a user-facing network name to its config kind: a
// config name in any case (emesh-pure, atac+, corona, hybrid, ...) or one
// of networkAliases.
func ParseNetworkKind(s string) (config.NetworkKind, error) {
	if k, ok := config.NetworkKindNamed(s); ok {
		return k, nil
	}
	if k, ok := networkAliases[strings.ToLower(s)]; ok {
		return k, nil
	}
	return 0, fmt.Errorf("unknown network %q", s)
}

// ParseCoherenceKind maps a protocol name in any case to its config kind.
// The empty string defaults to ACKwise.
func ParseCoherenceKind(s string) (config.CoherenceKind, error) {
	if s == "" {
		return config.ACKwise, nil
	}
	if k, ok := config.CoherenceKindNamed(s); ok {
		return k, nil
	}
	return 0, fmt.Errorf("unknown coherence %q", s)
}

// Geometry is the flag/API-level description of one machine
// configuration. Zero values mean "default": ATAC+ network, 64 cores,
// ACKwise with the config package's default sharer count, default flit
// width, auto-scaled distance threshold.
type Geometry struct {
	Net       string `json:"net,omitempty"`
	Cores     int    `json:"cores,omitempty"`
	Sharers   int    `json:"sharers,omitempty"`
	Coherence string `json:"coherence,omitempty"`
	FlitBits  int    `json:"flit,omitempty"`
	RThres    int    `json:"rthres,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	// HybridRadius sets the photonic-gateway granularity of the hybrid
	// network (config.Hybrid.Radius); 0 means the fabric default (1).
	// Ignored for other network kinds.
	HybridRadius int `json:"hybrid_radius,omitempty"`
	// Tech and Optics name the device-technology scenario the energy
	// models run under (internal/tech and internal/photonics registries).
	// Empty means the paper's baseline ("11nm" electronics, "baseline"
	// optics).
	Tech   string `json:"tech,omitempty"`
	Optics string `json:"optics,omitempty"`
}

// BuildConfig resolves a Geometry into a validated config.Config with the
// defaulting rules every front end shares: machines below 64 cores get
// clusters of 2x2 cores (so they keep at least 4 clusters), larger ones
// the paper's 4x4, and config.Sized sizes the rest; the Geometry's fields
// then override it.
func BuildConfig(g Geometry) (config.Config, error) {
	kind, err := ParseNetworkKind(g.Net)
	if err != nil {
		return config.Config{}, err
	}
	cores := g.Cores
	if cores == 0 {
		cores = 64
	}
	clusterDim := 4
	if cores < 64 {
		clusterDim = 2
	}
	cfg := config.Sized(cores, clusterDim).WithNetwork(kind)
	cfg.Seed = g.Seed
	// Scenario names are canonicalized here so every front end stores and
	// reports the same strings in the config, however the user spelled
	// them. They are not part of the run's identity: runConfig resets
	// both, so one simulation is re-costed under every scenario.
	cfg.Tech = tech.Canonical(g.Tech)
	cfg.Optics = photonics.Canonical(g.Optics)
	if g.Sharers > 0 {
		cfg.Coherence.Sharers = g.Sharers
	}
	if g.FlitBits > 0 {
		cfg.Network.FlitBits = g.FlitBits
	}
	if g.Coherence != "" {
		ck, err := ParseCoherenceKind(g.Coherence)
		if err != nil {
			return config.Config{}, err
		}
		cfg.Coherence.Kind = ck
	}
	if kind == config.HybridMesh && g.HybridRadius > 0 {
		cfg.Hybrid.Radius = g.HybridRadius
	}
	if g.RThres > 0 {
		cfg.Network.RThres = g.RThres
	}
	return cfg, cfg.Validate()
}
