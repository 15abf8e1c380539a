#!/usr/bin/env bash
# Build the benchmark and the chet CLI from this checkout, then run one
# workload. Run from the repository root:
#   bash perfbench/run.sh --workload fhe-micro --seed 1 --seconds 30 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
# keep every build product inside the checkout
export DUNE_CACHE=disabled
command -v dune >/dev/null || eval "$(opam env)"
dune build --root . perfbench/main.exe bin/chet_cli.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
