#!/bin/sh
# Build gmpbench from the checkout this script lives in, then run it with
# the given arguments, e.g.
#   sh benchmark/run.sh --workload sim-steady --seed 1 --seconds 12 --trace 0
# Build output goes to stderr so the last stdout line stays the result.
set -e
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet ./benchmark/gmpbench.exe 1>&2
exec ./_build/default/benchmark/gmpbench.exe "$@"
