#!/usr/bin/env bash
# tools/check.sh — the project's correctness gauntlet.
#
# Full mode (default) runs the whole matrix, one preset at a time:
#
#   default     RelWithDebInfo       full ctest suite
#   asan-ubsan  ASan+UBSan+contracts full ctest suite
#   tsan        TSan+contracts       full ctest suite
#
# Quick mode (`tools/check.sh --quick`) is the inner-loop subset: the
# Release build plus the cheap static gates (`ctest -L lint`, which
# includes v6lint and the header self-containedness target — quick mode
# also re-runs v6lint with --format=json to leave a machine-readable
# build/LINT_REPORT.json behind, gated at 2s of wall time), the fuzz
# smoke runs (`ctest -L fuzz`), and the trace/report round-trip
# (`ctest -L report`: the reader/analyzer unit suite, the introspection
# plane — exposition/flight-recorder/watchdog units plus the expo_smoke
# serve -> scrape -> expo-check round trip — and a tiny traced sweep
# piped through `sos report --json`), the scan-engine bench smoke
# (`ctest -L bench`: bench_throughput's cross-shard bit-identity
# contract on a tiny target list,
# bench_serve's snapshot-consistency checks under concurrent refresh,
# plus bench_scale's flat-RSS and procedural/materialized equivalence
# gates at 1M-vs-12M hosts — docs/SCALE.md),
# the continuous-service suite (`ctest -L service`: the hitlist
# store, incremental TGA, scheduler/bandit, and epoch bit-identity
# tests from docs/SERVICE.md), and the TGA suites (`ctest -L tga`: the
# generator contract, behavior and structure tests under tests/tga/
# plus the golden_tga_streams golden — the layer that dominates the
# paper sweep's time), and the shard suites (`ctest -L shard`: the
# walk's coverage/disjointness tests, the stream scanner's cross-shard
# bit-identity, the service's epoch shard tests, and the
# golden_stream_shards golden of faulted per-lane runs), and the paper
# claims (`ctest -L claims`: EXPERIMENTS.md's qualitative findings as
# shape assertions over reduced-budget sweeps).
#
# Faults mode (`tools/check.sh --faults`) runs only the fault-injection
# suite (`ctest -L fault`) under every preset — the focused loop when
# iterating on src/fault or the robust-scanner path.
#
# Analyzer mode (`tools/check.sh --analyzer`) builds the library
# targets under the `gcc-analyzer` preset: GCC -fanalyzer with its
# path-sensitive memory checks (double-free, use-after-free,
# malloc-leak, free-of-non-heap) promoted to errors. It gets its own
# build tree (build-analyzer) and mode because the analyzer costs
# seconds per TU; the sweep covers src/ only (target v6_libs). The
# preset degrades to a plain build with a CMake warning when the
# compiler is not GCC or lacks -fanalyzer.
#
# Extra flags:
#   --jobs N    parallel build/test jobs (default: nproc)
#   --tidy      add -DV6_CLANG_TIDY=ON to every configure (warns and
#               skips when no clang-tidy binary is installed)
#
# Exits nonzero on the first failing step; every step is echoed first so
# CI logs show exactly where the matrix stopped.
set -euo pipefail

cd "$(dirname "$0")/.."

quick=0
faults=0
analyzer=0
tidy_flag=()
jobs="$(nproc 2>/dev/null || echo 2)"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) quick=1 ;;
    --faults) faults=1 ;;
    --analyzer) analyzer=1 ;;
    --tidy) tidy_flag=(-DV6_CLANG_TIDY=ON) ;;
    --jobs) jobs="$2"; shift ;;
    --jobs=*) jobs="${1#--jobs=}" ;;
    -h|--help)
      sed -n '2,56p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *) echo "error: unknown flag '$1' (try --help)" >&2; exit 2 ;;
  esac
  shift
done

run() {
  echo "+ $*" >&2
  "$@"
}

configure_and_build() {
  local preset="$1" bindir="$2"
  run cmake --preset "$preset" "${tidy_flag[@]}"
  run cmake --build "$bindir" -j "$jobs"
}

if [[ $analyzer -eq 1 ]]; then
  run cmake --preset gcc-analyzer "${tidy_flag[@]}"
  run cmake --build build-analyzer -j "$jobs" --target v6_libs
  echo "check.sh --analyzer: library targets OK under gcc-analyzer"
  exit 0
fi

if [[ $quick -eq 1 ]]; then
  configure_and_build default build
  run ctest --test-dir build -L lint --output-on-failure -j "$jobs"
  # Machine-readable lint artifact + the wall-time gate: the whole
  # multi-pass sweep of the tree must stay under ~2s in a Release build
  # so it remains an every-commit habit rather than a CI-only one.
  run ./build/tools/lint/v6lint --format=json --stats --jobs "$jobs" \
    --max-wall-ms 2000 src bench examples tests tools \
    > build/LINT_REPORT.json
  echo "wrote build/LINT_REPORT.json" >&2
  run ctest --test-dir build -L fuzz --output-on-failure -j "$jobs"
  run ctest --test-dir build -L report --output-on-failure -j "$jobs"
  run ctest --test-dir build -L bench --output-on-failure -j "$jobs"
  run ctest --test-dir build -L service --output-on-failure -j "$jobs"
  run ctest --test-dir build -L tga --output-on-failure -j "$jobs"
  run ctest --test-dir build -L shard --output-on-failure -j "$jobs"
  run ctest --test-dir build -L claims --output-on-failure -j "$jobs"
  echo "check.sh --quick: OK (Release build + lint + LINT_REPORT.json + fuzz + report + bench + service + tga + shard + claims smoke)"
  exit 0
fi

if [[ $faults -eq 1 ]]; then
  configure_and_build default build
  run ctest --test-dir build -L fault --output-on-failure -j "$jobs"
  configure_and_build asan-ubsan build-asan
  run ctest --test-dir build-asan -L fault --output-on-failure -j "$jobs"
  configure_and_build tsan build-tsan
  run ctest --test-dir build-tsan -L fault --output-on-failure -j "$jobs"
  echo "check.sh --faults: fault suite OK under default, asan-ubsan, tsan"
  exit 0
fi

configure_and_build default build
run ctest --test-dir build --output-on-failure -j "$jobs"

configure_and_build asan-ubsan build-asan
run ctest --test-dir build-asan --output-on-failure -j "$jobs"

configure_and_build tsan build-tsan
run ctest --test-dir build-tsan --output-on-failure -j "$jobs"

echo "check.sh: full matrix OK (default, asan-ubsan, tsan)"
