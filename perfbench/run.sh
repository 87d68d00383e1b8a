#!/bin/sh
# Build the benchmark from source, then run it.  Run from anywhere;
# arguments pass through:
#   sh perfbench/run.sh --workload cold-build --seed 1 --seconds 25 --trace 0
set -eu
cd "$(dirname "$0")/.."
# keep every build output inside the checkout
export DUNE_CACHE=disabled
# a build never takes this long; a wedged one must not hang the run
timeout 800 dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
