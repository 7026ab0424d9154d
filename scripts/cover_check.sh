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
#
# A second pass holds the coherence protocol's files and the fabric base
# and mesh of internal/noc block by block: a statement block that no
# package's run reaches (its counts summed over the profile) fails unless
# its body is a lone panic or block_allow names it, and a block_allow
# entry that names no such block fails too.
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

# The block pass's files, and its allowlist: one entry a line, the file,
# the enclosing function (a method without its receiver) and the trimmed
# source line the block starts on, then ` # ` and the reason the block may
# never run.
block_files='internal/coherence/directory.go internal/coherence/ctrl.go internal/noc/fabric.go internal/noc/mesh.go'
block_allow='
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

# Never-run blocks of block_files as "file line col endline endcol stmts".
blocks=$(awk -v mod="$mod/" -v files=" $block_files " '
  NR > 1 {
    split($1, at, ":"); f = at[1]; sub("^" mod, "", f)
    if (index(files, " " f " ")) { n[f ":" at[2]] += $NF; stmts[f ":" at[2]] = $2 }
  }
  END {
    for (b in n) if (n[b] == 0) {
      split(b, at, ":"); split(at[2], pos, "[.,]")
      print at[1], pos[1], pos[2], pos[3], pos[4], stmts[b]
    }
  }' "$cover" | sort -k1,1 -k2,2n)
block_keys=$(awk -F ' # ' 'NF { print $1 }' <<<"$block_allow")
seen=
while read -r f line col eline ecol stmts; do
  [ -n "$f" ] || continue
  # The enclosing function, the block's first source line and its text.
  IFS=$'\t' read -r fn first body < <(LC_ALL=C awk -v sl="$line" -v sc="$col" -v el="$eline" -v ec="$ecol" '
    NR <= sl && /^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[^A-Za-z0-9_].*/, "", fn) }
    NR == sl { first = $0 }
    NR >= sl && NR <= el {
      t = $0
      if (NR == el) t = substr(t, 1, ec - 1)
      if (NR == sl) t = substr(t, sc)
      body = body " " t
    }
    END {
      gsub(/^[ \t]+|[ \t]+$/, "", first); gsub(/[ \t]+/, " ", body); sub(/^ /, "", body); sub(/^[{] */, "", body)
      printf "%s\t%s\t%s\n", fn, first, body
    }' "$f")
  if [ "$stmts" = 1 ] && [[ $body == panic\(* ]]; then
    continue
  fi
  key="$f $fn $first"
  if grep -qxF -- "$key" <<<"$block_keys"; then
    seen+="$key"$'\n'
  else
    echo "cover-check: $f:$line ($fn: $first) never runs (test it, delete it, or allowlist it in block_allow with a reason)" >&2
    fail=1
  fi
done <<<"$blocks"
while read -r key; do
  [ -n "$key" ] || continue
  if ! grep -qxF -- "$key" <<<"$seen"; then
    echo "cover-check: block_allow entry '$key' names no never-run block: drop it" >&2
    fail=1
  fi
done <<<"$block_keys"

[ "$fail" = 0 ] && echo "cover-check: $(grep -c . <<<"$allowed") zero-coverage functions, all allowlisted; $(grep -c . <<<"$block_keys") never-run blocks of the block files besides lone panics, all allowlisted"
exit "$fail"
