#!/usr/bin/env bash
# Builds Release and runs every bench that gates itself through
# bench/report.hpp — all of bench_* except bench_micro (E9, run by hand).
# Each writes BENCH_<bench>.json into <build-dir>/bench-results; contrast
# benches gate against the checked-in baselines of the same name at the
# repo root, which a run never rewrites (re-recording one is a deliberate
# copy of reviewed results).
#
#   bench/run_benches.sh [build-dir]
#
# A failing bench does not stop the others; the summary names them and
# the script exits 1.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-release}"

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD" -j
BUILD="$(cd "$BUILD" && pwd)"

mkdir -p "$BUILD/bench-results"
cd "$BUILD/bench-results"
total=0
failed=""
for exe in "$BUILD"/bench/bench_*; do
  name="$(basename "$exe")"
  [ -x "$exe" ] && [ "$name" != bench_micro ] || continue
  total=$((total + 1))
  echo "=== $name"
  "$exe" || failed="$failed $name"
done

echo
echo "$total benches run, results in $PWD, failed:${failed:- none}"
[ -z "$failed" ]
