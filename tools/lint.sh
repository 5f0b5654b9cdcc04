#!/usr/bin/env bash
# Lint lane driver (DESIGN.md §9): txlint is always enforced; clang-tidy
# runs when installed and is skipped with a note otherwise, so the script
# works on minimal local toolchains and still hard-fails CI on real
# findings.
#
# Usage: tools/lint.sh [build-dir]
#   (default build-dir: ./build)
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"
jobs="$(nproc 2>/dev/null || echo 2)"

if [[ ! -x "$build/tools/txlint/txlint" ]]; then
  cmake -B "$build" -S "$root"
  cmake --build "$build" --target txlint -j"$jobs"
fi

txlint="$build/tools/txlint/txlint"
scan_args=(
  --baseline "$root/tools/txlint/baseline.json"
  --relative-to "$root"
  --exclude tools/txlint/corpus
  "$root/src" "$root/tests" "$root/bench"
  "$root/tools/ipc_client" "$root/examples"
)

echo "== txlint: corpus ground truth =="
"$txlint" --verify-expectations "$root/tools/txlint/corpus"

echo "== txlint: full tree (baseline-gated) =="
"$txlint" --json "$build/txlint-report.json" "${scan_args[@]}"
echo "report: $build/txlint-report.json"

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy ($(clang-tidy --version | head -n1)) =="
  if [[ ! -f "$build/compile_commands.json" ]]; then
    cmake -B "$build" -S "$root"  # exports compile_commands.json
  fi
  # Library sources only: tests/benches are dominated by gtest/benchmark
  # macro expansions that drown the signal.
  find "$root/src" -name '*.cpp' -print0 |
    xargs -0 clang-tidy -p "$build" --quiet
else
  echo "== clang-tidy: not installed, skipping (txlint still enforced) =="
fi
