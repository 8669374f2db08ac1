#!/bin/sh
# Build the daemon and the load generator from source, then run one
# workload:
#   sh perfbench/run.sh --workload serve-hot --seed 1 --seconds 36 --trace 0
# Run from the repository root.  Build output goes to stderr; the last
# line of stdout is the JSON result.
set -e
# The build stays inside the checkout: no shared dune cache.
DUNE_CACHE=disabled dune build --root . ./bin/msts.exe ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe --msts ./_build/default/bin/msts.exe "$@"
