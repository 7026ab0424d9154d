#!/usr/bin/env bash
# scripts/inline_check.sh — the hot path's per-message helpers must inline.
#
#   make inline-check
#
# DESIGN.md ("Mesh router hot path") rests on the functions of internal/noc
# listed below inlining into router.tick and the landing event, and the
# coherence controller's access and broadcast paths on its three listed
# below. This builds each package with -gcflags=-m and exits non-zero,
# naming each one, if the compiler does not report "can inline" for every
# function listed.
set -euo pipefail

noc=(
  '(*router).qpush' '(*router).qpop' '(*router).qfront'
  '(*router).foldCredits' '(*router).pushCredit' '(*router).wake' '(*router).route'
  '(*flitRing).push' '(*flitRing).pop' '(*flitRing).front'
  '(*flit).ready' '(*flit).head' '(*flit).tail' '(*flit).port' '(*flit).setPort' '(*flit).phase'
  'sign' 'rrPick'
)
coherence=(
  '(*Ctrl).mayHold' '(*holderGroup).get' 'hit'
)

cd "$(dirname "${BASH_SOURCE[0]}")/.."
fail=0
n=0
# check PKG FUNC...: every FUNC of internal/PKG inlines.
check() {
  local pkg=$1 inlined f
  shift
  inlined="$(${GO:-go} build -gcflags=-m "./internal/$pkg" 2>&1 | awk '/: can inline / { print $NF }')"
  for f in "$@"; do
    n=$((n + 1))
    if ! grep -qxF -- "$f" <<<"$inlined"; then
      echo "inline-check: $pkg $f does not inline" >&2
      fail=1
    fi
  done
}
check noc "${noc[@]}"
check coherence "${coherence[@]}"
[ "$fail" = 0 ] && echo "inline-check: all $n hot-path helpers inline"
exit "$fail"
