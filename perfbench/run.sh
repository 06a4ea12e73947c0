#!/usr/bin/env bash
# Build the benchmark and the paragraph CLI from source, then run the
# benchmark with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload serve_mixed --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare old.jsonl new.jsonl
#
# Run from the repository root. Build products, temporary files and the
# runs' scratch stores stay under .bench_build/ in that directory.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ] || [ ! -f BENCHMARK.json ]; then
  echo "perfbench: run from the repository root (needs dune-project, lib/, bin/, BENCHMARK.json)" >&2
  exit 2
fi

mkdir -p .bench_build/tmp
export TMPDIR="$PWD/.bench_build/tmp"
export DUNE_CACHE=disabled
build="$PWD/.bench_build/dune"

dune build --root . --build-dir "$build" --profile release \
  ./perfbench/bench/main.exe ./bin/paragraph.exe 1>&2

exec "$build/default/perfbench/bench/main.exe" \
  --paragraph "$build/default/bin/paragraph.exe" "$@"
