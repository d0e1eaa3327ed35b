#!/usr/bin/env bash
# Build the benchmark from source and run it:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh pin [W...]     # regenerate the pinned answers
# Run from the root of the repository.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a crpq_injective checkout" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . -j 2 --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
