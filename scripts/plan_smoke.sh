#!/usr/bin/env bash
# Compiled-plan smoke (DESIGN.md §14): compile a bundle — which carries the
# checksummed PLAN frame — into a state dir, warm-restart a serve from it,
# and require (a) the restart actually skipped the compile, (b) the bundle
# carries its plan sidecar, and (c) the timing-free responses of both the
# warm and a cold serve are identical to the recorded goldens
# (test/data/serve_micro.golden). Any response drift is a fusion or
# liveness bug, not noise.
#
# Usage: scripts/plan_smoke.sh  (expects a completed `dune build`)
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=_build/default/bin/chet_cli.exe
GOLDEN=test/data/serve_micro.golden
DIR=$(mktemp -d "${TMPDIR:-/tmp}/chet-plan-smoke.XXXXXX")
trap 'rm -rf "$DIR"' EXIT
STATE="$DIR/state"

# per-request lines minus the latency suffix — the timing-free part
# ("req NN: ok class=K via RUNG") must match the goldens
req_lines() { grep '^req ' "$1" | sed 's/ ([0-9].*//'; }

echo "-- compile into the state dir (bundle carries the PLAN frame)"
"$BIN" compile micro --state-dir "$STATE" --no-keys >/dev/null
test -n "$(ls "$STATE"/gen-*/plan.chet 2>/dev/null)" || {
  echo "plan smoke FAIL: bundle has no plan.chet sidecar" >&2
  exit 1
}

echo "-- cold serve"
"$BIN" serve micro --requests 8 --domains 2 >"$DIR/cold.out"
grep -q '^plan: ' "$DIR/cold.out" || {
  echo "plan smoke FAIL: serve printed no plan summary" >&2
  exit 1
}
req_lines "$DIR/cold.out" >"$DIR/cold.req"

echo "-- serve, warm-restarted from the bundle"
"$BIN" serve micro --requests 8 --domains 2 --state-dir "$STATE" >"$DIR/warm.out"
grep -q '^warm restart: generation' "$DIR/warm.out" || {
  echo "plan smoke FAIL: serve did not warm-restart from the bundle" >&2
  exit 1
}
req_lines "$DIR/warm.out" >"$DIR/warm.req"

echo "-- answers match the goldens"
diff -u "$GOLDEN" "$DIR/cold.req"
diff -u "$GOLDEN" "$DIR/warm.req"

echo "plan smoke OK"
