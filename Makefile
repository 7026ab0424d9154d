GO ?= go

.PHONY: build test check cover cover-check inline-check figures results-256 bench bench-trace bench-pair fuzz resume-smoke serve-smoke chaos-smoke cluster-smoke techsweep-smoke xtopo-smoke clean

# Per-target budget for `make fuzz` (go test -fuzztime syntax).
FUZZTIME ?= 10s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the full pre-merge gate: gofmt-clean sources, compile, vet, and
# the test suite under the race detector (the campaign engine's worker
# pool, the serving daemon and the record log under its journal and
# ledger run concurrently; a simulation itself is single-threaded). bench/
# is its own module, so ./... does not reach it: check also vets and tests
# the benchmark harness, which compiles it against the sim and system API.
check:
	@unformatted=$$(gofmt -l .); test -z "$$unformatted" || { echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; }
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Unit-test coverage of every package by the whole suite (-coverpkg): writes
# the profile to COVER and lists each function no test reaches (0.0 %).
# bench/ is its own module, so ./... leaves it out.
COVER ?= cover.out
cover:
	$(GO) test -coverpkg=./... -coverprofile=$(COVER) ./...
	@$(GO) tool cover -func=$(COVER) | awk '$$NF == "0.0%"'

# The coverage gate: the same run, failing (naming each) on a function at
# 0.0 % that scripts/cover_check.sh does not allowlist with a reason, or on
# an allowlisted one that is no longer at 0.0 %; and, block by block in the
# coherence directory and cache controller and the noc fabric base and
# mesh, on a never-run block that is not a lone panic or allowlisted by
# function and first line.
cover-check:
	GO=$(GO) COVER=$(COVER) bash scripts/cover_check.sh

# The mesh router's per-hop helpers (DESIGN.md, "Mesh router hot path") and
# the coherence controller's hot helpers must inline: fails, naming each, if
# the compiler's -m report does not say "can inline" for every one listed in
# scripts/inline_check.sh.
inline-check:
	GO=$(GO) bash scripts/inline_check.sh

figures:
	$(GO) run ./cmd/figures -cores 64

# Regenerate results_256.txt, the 256-core campaign EXPERIMENTS.md quotes
# (252 runs, about 3 min cold on 2 cores), through the cached Runner.
# REPRO_FULL=1 go test ./internal/experiments -run TestResults256 checks
# the committed file against a cold render.
results-256:
	$(GO) run ./cmd/figures -cores 256 -seed 42 -q > results_256.txt.tmp
	mv results_256.txt.tmp results_256.txt

# The repo's benchmark (BENCHMARK.json, bench/README.md): six workloads,
# end-to-end metrics. bench-trace is the traced set: per-layer metrics and
# the layer-cost table.
bench:
	bash bench/run.sh

bench-trace:
	bash bench/run.sh -trace

# The protocol a performance claim is judged by: N alternating pairs of one
# workload (W=all: of each workload in turn), parent commit REF against this
# working tree, with medians, quartiles, the win count and the must-not-move
# sim_* check; non-zero exit on a mismatch or on a loss outside the parent's
# inter-quartile spread.
#   make bench-pair REF=<commit> [W=paper-1024|all] [N=10] [SEED=42]
W ?= paper-1024
N ?= 10
SEED ?= 42
bench-pair:
	@test -n "$(REF)" || { echo "usage: make bench-pair REF=<commit> [W=$(W)|all] [N=$(N)] [SEED=$(SEED)]" >&2; exit 2; }
	bash scripts/bench_pair.sh $(REF) $(W) $(N) $(SEED)

# Fuzz the flit-conservation property (exactly-once delivery under
# randomized traffic and fault seeds) and the optical link budget (both
# solvers: finite powers, broadcast = readers x unicast, monotone in loss)
# for FUZZTIME per target, the event kernel's same-cycle order against an
# independent model, the cache tag store against a dense reference
# array, and the paged value store against a map of words. Go allows one
# -fuzz target per invocation, so the targets run back to back. The three
# optical conservation targets are one body (fuzzOpticalConservation)
# entered per fabric kind, so each optical fabric still gets a full
# FUZZTIME.
fuzz:
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzKernelOrder$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/noc -run '^$$' -fuzz '^FuzzMeshConservation$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/noc -run '^$$' -fuzz '^FuzzAtacConservation$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/noc -run '^$$' -fuzz '^FuzzCrossbarConservation$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/noc -run '^$$' -fuzz '^FuzzHybridConservation$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/photonics -run '^$$' -fuzz '^FuzzLinkBudget$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/coherence -run '^$$' -fuzz '^FuzzCacheArray$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/coherence -run '^$$' -fuzz '^FuzzValueStore$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/config -run '^$$' -fuzz '^FuzzConfigJSON$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/system -run '^$$' -fuzz '^FuzzConfigRuns$$' -fuzztime $(FUZZTIME)

# End-to-end crash-safety smoke: SIGINT a figure campaign mid-flight,
# resume it from the journal+cache, and require byte-identical output with
# zero duplicate simulations.
resume-smoke:
	bash scripts/interrupt_resume.sh

# End-to-end smoke of the serving daemon: start atacd, submit a run via
# atacctl with live SSE progress, require the served result to match a
# direct atacsim run, coalesce a resubmission, then SIGTERM-drain and
# check a restarted daemon serves the run from the persistent cache.
serve-smoke:
	bash scripts/serve_smoke.sh

# Crash-only contract of the serving stack: SIGKILL atacd at seeded random
# points mid-campaign, restart it, and require that every atacctl client
# rides across on its own retries, the resumed campaign completes with
# zero duplicate simulations (journal-verified), and the served results
# match a direct atacsim run. CHAOS_SEED / CHAOS_KILLS tune the schedule.
chaos-smoke:
	bash scripts/chaos_smoke.sh

# Fault-tolerance contract of the atacd cluster: three nodes (separate
# caches/ledgers) on one rendezvous-hash ring, a campaign submitted
# through the cluster, and the node owning the first run's hash is
# SIGKILLed mid-flight. Clients must survive on hedged reads + automatic
# resubmission, results must match a direct atacsim run byte for byte,
# the concatenated journals must show zero duplicate simulations, and
# the restarted node must rejoin and drain from its peers' caches.
cluster-smoke:
	bash scripts/cluster_smoke.sh

# End-to-end smoke of the technology-scenario layer: the techsweep figure
# (two scenarios, 16 cores) through the cached Runner — per-scenario rows
# and manifest provenance, a fully-cached second pass with byte-identical
# output, and quarantine of stale pre-current-schema cache entries.
techsweep-smoke:
	bash scripts/figure_smoke.sh techsweep

# End-to-end smoke of the crossbar backends: the xtopo figure (EMesh-BCast
# vs Corona, 16 cores) through the cached Runner — per-topology column
# groups, a fully-cached second pass with byte-identical output, and
# quarantine of pre-crossbar cache entries.
xtopo-smoke:
	bash scripts/figure_smoke.sh xtopo

clean:
	$(GO) clean ./...
