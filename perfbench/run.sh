#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the root of the repository. Build output goes to .bench_build/.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --profile release -j 2 ./perfbench/main.exe 1>&2
exec ./.bench_build/default/perfbench/main.exe "$@"
