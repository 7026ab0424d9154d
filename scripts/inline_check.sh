#!/usr/bin/env bash
# scripts/inline_check.sh — the mesh router's per-hop helpers must inline.
#
#   make inline-check
#
# DESIGN.md ("Mesh router hot path") rests on these functions of
# internal/noc inlining into router.tick and the landing event. This builds
# the package with -gcflags=-m and exits non-zero, naming each one, if the
# compiler does not report "can inline" for every function listed below.
set -euo pipefail

want=(
  '(*router).qpush' '(*router).qpop' '(*router).qfront'
  '(*router).foldCredits' '(*router).pushCredit' '(*router).wake' '(*router).route'
  '(*flitRing).push' '(*flitRing).pop' '(*flitRing).front'
  '(*flit).ready' '(*flit).head' '(*flit).tail' '(*flit).port' '(*flit).setPort' '(*flit).phase'
  'sign' 'rrPick'
)

cd "$(dirname "${BASH_SOURCE[0]}")/.."
inlined="$(${GO:-go} build -gcflags=-m ./internal/noc 2>&1 | awk '/: can inline / { print $NF }')"
fail=0
for f in "${want[@]}"; do
  if ! grep -qxF -- "$f" <<<"$inlined"; then
    echo "inline-check: $f does not inline" >&2
    fail=1
  fi
done
[ "$fail" = 0 ] && echo "inline-check: all ${#want[@]} hot-path helpers inline"
exit "$fail"
