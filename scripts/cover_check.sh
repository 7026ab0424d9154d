#!/usr/bin/env bash
# scripts/cover_check.sh — no function goes untested without a reason.
#
#   make cover-check [COVER=cover.out]
#
# Runs the whole unit suite with -coverpkg=./... (as `make cover` does),
# writing the profile to COVER, and exits non-zero, naming each, if a
# function reports 0.0 % and is not on the allowlist below, or if an
# allowlisted function no longer does (it is tested or gone: drop its
# entry). bench/ is its own module, so ./... leaves it out.
set -euo pipefail

# One entry a line: the file (module path dropped) and the function as
# `go tool cover -func` names them (a method without its receiver), then
# the reason it may stay at 0.0 %.
allow='
cmd/atacctl/main.go main       process entry point: os.Exit(run())
cmd/atacctl/main.go usage      process entry point: -h text; the subcommands are tested against an in-process daemon
cmd/atacctl/main.go run        process entry point: flag parsing around the tested subcommands
cmd/atacd/main.go main         process entry point: os.Exit(run())
cmd/atacd/main.go run          process entry point: listens on a real port; tests drive serve.New on httptest
cmd/figures/main.go main       process entry point: os.Exit(run())
cmd/sweep/main.go main         process entry point: os.Exit(run())
internal/experiments/figures.go Xtopo   bench-only export (the campaign-64 workload); moves into bench with ROADMAP item 2
internal/sim/sharded.go Close           bench-only export (the window probe defers it); goes with ROADMAP item 2
'

cd "$(dirname "${BASH_SOURCE[0]}")/.."
go=${GO:-go}
cover=${COVER:-cover.out}
mod=$($go list -m)
if ! out=$($go test -coverpkg=./... -coverprofile="$cover" ./... 2>&1); then
  echo "$out" >&2
  echo "cover-check: the suite failed" >&2
  exit 1
fi
zero=$($go tool cover -func="$cover" | awk -v mod="$mod/" '
  $NF == "0.0%" { split($1, at, ":"); f = at[1]; sub("^" mod, "", f); print f, $2 }')
allowed=$(awk 'NF { print $1, $2 }' <<<"$allow")

fail=0
while read -r fn; do
  [ -n "$fn" ] || continue
  if ! grep -qxF -- "$fn" <<<"$allowed"; then
    echo "cover-check: $fn is at 0.0 % (test it, delete it, or allowlist it with a reason)" >&2
    fail=1
  fi
done <<<"$zero"
while read -r fn; do
  if ! grep -qxF -- "$fn" <<<"$zero"; then
    echo "cover-check: allowlisted $fn is no longer at 0.0 %: drop its entry" >&2
    fail=1
  fi
done <<<"$allowed"
[ "$fail" = 0 ] && echo "cover-check: $(grep -c . <<<"$allowed") zero-coverage functions, all allowlisted"
exit "$fail"
