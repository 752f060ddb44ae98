#!/usr/bin/env bash
# CI gates, in order:
#
# 1. Static analysis (gating): scripts/lint.sh runs the fairsfe-lint fixture
#    self-test plus the determinism-contract lint over the whole tree, then
#    the fairsfe-analyze fixture self-test plus the cross-TU dataflow pass
#    (Rng stream lineage, secret-flow taint, message-schema conformance —
#    DESIGN.md §14; warm facts cache keeps the analyze stage well under 10 s),
#    and clang-tidy when installed. Any finding fails the build before a
#    single TU is compiled under TSan.
#
# 2. TSan gate for the parallel Monte-Carlo estimation engine: build the tsan
# preset and run the tier1 ctest label — the scheduling-independence suites
# (estimator, thread pool, RNG forking, hot-path goldens, fault injection)
# plus the scenario-registry, wire-codec/transport/mesh, and fairbenchd
# daemon suites — under ThreadSanitizer, so data races in the estimator/
# thread-pool/plan-cache/fault/daemon layer fail the build rather than
# silently perturbing estimates. The tier labels are assigned in
# tests/CMakeLists.txt.
#
# 3. Daemon smoke (gating): start the Release fairbenchd on a unix socket,
#    drive a small request mix through scripts/loadtest.py, and assert the
#    daemon drains and exits 0 on SIGTERM — the graceful-shutdown contract.
#
# Afterwards, a non-gating experiment and perf smoke against a Release build:
#   * `fairbench --list` must enumerate the registered scenario table (a
#     linker dropping scenario TUs would silently shrink it; gating);
#   * `fairbench --filter smoke --runs 32` sweeps every smoke-tagged
#     scenario end-to-end (deviations at 32 runs are noise, never fatal);
#   * bench/perf_protocols checks the two GMW speedup ratios (online phase
#     >= 3x inline on gmw_max_4party_8bit, bit-sliced >= 10x scalar on
#     gmw_millionaires_16). Wall-clock ratios differ between CI machines,
#     so a deviation is reported, never fatal;
#   * perfbench/smoke.py runs every benchmark workload (BENCHMARK.json) at
#     minimum size, untraced and traced, and checks each result's shape and
#     metric names (it builds into .bench_build/). Tracked performance lives
#     there, not in committed files: see perfbench/README.md.
#
# Usage: scripts/ci.sh [extra ctest -R regex]
set -euo pipefail
cd "$(dirname "$0")/.."

# --- gating lint + analyze stage ---------------------------------------------
scripts/lint.sh
echo "lint + analyze gate passed"

cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target fairsfe_tests
if [[ $# -ge 1 ]]; then
  ctest --test-dir build-tsan -R "$1" --output-on-failure -j "$(nproc)"
  echo "tsan gate passed (-R $1)"
else
  ctest --test-dir build-tsan -L tier1 --output-on-failure -j "$(nproc)"
  echo "tsan gate passed (-L tier1)"
fi

# --- non-gating perf + experiment smoke --------------------------------------
if cmake -S . -B build-perf -DCMAKE_BUILD_TYPE=Release >/dev/null 2>&1 &&
   cmake --build build-perf -j "$(nproc)" --target perf_protocols \
         --target fairbench --target fairbenchd >/dev/null 2>&1; then
  SCENARIOS=$(./build-perf/fairbench --list | tail -1)
  echo "fairbench --list: ${SCENARIOS}"
  case "${SCENARIOS}" in
    0\ scenarios*) echo "registry is empty — scenario TUs dropped?"; exit 1 ;;
  esac

  # --- gating daemon smoke ----------------------------------------------------
  # Spawn fairbenchd on a unix socket, drive a small concurrent request mix,
  # SIGTERM it, and require a clean drain (exit 0) with every request
  # answered — loadtest.py exits non-zero on any error event, missing
  # answer, or unclean shutdown. Small mix: this gates correctness of the
  # service path, not its throughput (perfbench's daemon_mix measures that).
  python3 scripts/loadtest.py --daemon build-perf/fairbenchd \
      --requests 8 --connections 2 --runs 32
  echo "daemon smoke passed"

  ./build-perf/fairbench --filter smoke --runs 32 ||
    echo "experiment smoke deviation (non-gating; 32 runs is noisy)"
  ./build-perf/bench/perf_protocols ||
    echo "GMW speedup check deviated (non-gating: online < 3x inline or sliced < 10x scalar)"
else
  echo "perf smoke skipped (Release build unavailable)"
fi

# --- non-gating benchmark smoke ----------------------------------------------
python3 perfbench/smoke.py || echo "perfbench smoke failed (non-gating)"
