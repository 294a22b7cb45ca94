#!/usr/bin/env bash
# Build rvu and the benchmark program (rvubench) from source, then run it.
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 32 --trace 0
#   bash perfbench/run.sh --smoke
#
# Run from the root of an rvu source tree. Build output goes to stderr, so
# the result object stays the last line of stdout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"

if [ ! -f dune-project ] || [ ! -f bin/rvu.ml ] || [ ! -d lib/service ]; then
  echo "perfbench: $root is not an rvu source tree (no dune-project, bin/ or lib/)" >&2
  exit 2
fi

# Keep every build artifact inside the checkout.
export DUNE_CACHE=disabled
if ! dune build --root . ./bin/rvu.exe ./perfbench/rvubench.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 3
fi

exec ./_build/default/perfbench/rvubench.exe --rvu ./_build/default/bin/rvu.exe "$@"
