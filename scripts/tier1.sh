#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then the sanitizer
# sweeps (TSan over the concurrency-sensitive engine suites, ASan over
# the memory-motion-heavy ones, fatal UBSan over the byte decoders),
# then the bench gates.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset default
cmake --build --preset default -j"$(nproc)"
# Fast loop first (*Hammer* stress tests carry the `slow` label), then
# the slow ones — same coverage, but a broken fast test fails sooner.
ctest --test-dir build --output-on-failure -j"$(nproc)" -LE slow
ctest --test-dir build --output-on-failure -j"$(nproc)" -L slow

# The sanitizer sweeps. The suite lists, and why each suite is in
# them, live in scripts/sanitizer_suites.sh (CI sources it too).
source scripts/sanitizer_suites.sh

cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)" --target "${TSAN_SUITES[@]}"
for suite in "${TSAN_SUITES[@]}"; do
  TSAN_OPTIONS=halt_on_error=1 "./build-tsan/tests/${suite}"
done

# ASan pass over the memory-motion-heavy suites.
cmake --preset asan
cmake --build --preset asan -j"$(nproc)" --target "${ASAN_SUITES[@]}"
for suite in "${ASAN_SUITES[@]}"; do
  "./build-asan/tests/${suite}"
done

# UBSan pass (fatal: any report aborts the binary).
cmake --preset ubsan
cmake --build --preset ubsan -j"$(nproc)" --target "${UBSAN_SUITES[@]}"
for suite in "${UBSAN_SUITES[@]}"; do
  "./build-ubsan/tests/${suite}"
done

# Keep the perf tree building and the map-side benchmark runnable: a
# --quick pass catches bit-rot in the frozen legacy arm (the seed's
# lexicographic map loop, the one baseline arm beside the production
# pipeline) and the JSON emission without waiting for stable timings. The quick pass also
# emits BENCH_trace_phases.json (per-phase totals from a traced run)
# and checks the disabled-recorder arm stays within its overhead gate.
cmake --preset bench
cmake --build --preset bench -j"$(nproc)" --target bench_map_pipeline \
  bench_engine_service bench_shuffle_transport bench_join_skew
./build-bench/bench/bench_map_pipeline --quick
# The multi-job fleet driver is a correctness gate, not just a timing:
# 72 queued jobs against one EngineService, every success bit-identical
# to its solo baseline, failed/cancelled namespaces left empty, partial
# results observed mid-run, and the warm-resubmission arm hitting the
# segment cache with zero map tasks (exits non-zero on any violation).
./build-bench/bench/bench_engine_service --quick
# Transport sweep: the socket data plane must reproduce the in-process
# run bit-identically (exits non-zero on divergence).
./build-bench/bench/bench_shuffle_transport --quick
# Skew-adaptive join gate: refined plan bit-identical to uniform, both
# matching the nested-loop oracle, p99 keyblock load improved >= 1.5x
# (exits non-zero on any violation).
./build-bench/bench/bench_join_skew --quick
