#!/usr/bin/env bash
# Tier-1 gate: full build + test suite, then the whole suite again
# under ThreadSanitizer, then under AddressSanitizer +
# UndefinedBehaviorSanitizer (error recovery
# paths unwind through partially-built state — exactly where leaks and
# UAFs hide). Run from anywhere; builds live in <repo>/build,
# <repo>/build-tsan, and <repo>/build-asan.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="${JOBS:-$(nproc)}"

echo "== tier 1: build + full test suite =="
cmake -B "$repo/build" -S "$repo"
cmake --build "$repo/build" -j "$jobs"
ctest --test-dir "$repo/build" --output-on-failure -j "$jobs"

echo "== tier 1: flake gate — pool, cancel, lock-step and service suites, 20 repeats =="
# These suites race workers against cancels, waiters and counters, and
# the service suites race loopback clients, retries and drains against
# the pool; the fair-queue suite carries the one-job-per-session rule.
# A race that fails one run in N would slip through the single pass
# above, so rerun them in parallel until one fails, 20 times over.
ctest --test-dir "$repo/build" --output-on-failure -j "$jobs" \
    -R 'ThreadPool|Cancel|LockStep|ServiceFairQueue|ServiceRetry|ServiceDrainResume|ServiceRuntime|DtmService|PopulationService' \
    --repeat until-fail:20

echo "== tier 1: perf smoke — fast transient kernel ablation vs seed kernel =="
# bench_transient_kernel exits non-zero when the quick-grid gates fail:
# < 2x speedup over the seed kernel (raised from 1.5x now the batched
# SoA + LU-reuse + lock-step kernel ships), period deviation > 0.05 %,
# NL-curve deviation > 0.01 pp, a lock-step vs solo bitwise mismatch,
# or a kernel counter (bypass hits, LU reuses, batch lanes, AVX2 groups
# on an AVX2 host) reading zero.
# The top-level CMakeLists defaults to
# RelWithDebInfo, so the stage-1 build is already optimized; a Debug
# build would fail the speedup gate for the wrong reason (the bench
# CMakeLists warns when benches are configured without optimization).
build_type="$(grep -E '^CMAKE_BUILD_TYPE:' "$repo/build/CMakeCache.txt" | cut -d= -f2)"
case "$build_type" in
  Debug|"") echo "perf smoke needs an optimized build, got '${build_type:-none}'" >&2
            exit 1 ;;
esac
cmake --build "$repo/build" --target bench_transient_kernel -j "$jobs"
"$repo/build/bench/bench_transient_kernel" --quick \
    --json="$repo/build/BENCH_transient_quick.json"

echo "== tier 1: degraded-mode thermal map under injected faults =="
# A fleet with deterministically injected hardware faults (stuck
# oscillators, drifted rings; fixed seed so the run is replayable) must
# still produce a complete, flagged, bounded-error map — and the
# fault-free resilient path must stay bitwise the legacy scan. The
# bench exits non-zero when any of its shape gates fail.
cmake --build "$repo/build" --target bench_thermal_map -j "$jobs"
STSENSE_FAULT_SEED=20260806 "$repo/build/bench/bench_thermal_map" --degraded --quick \
    --json="$repo/build/BENCH_thermal_map.json"

echo "== tier 1: traced Fig. 2 sweep + trace validation =="
# The Fig. 2 bench rerun with tracing armed (STSENSE_TRACE): the run
# must still pass its own figure shape gates, and the emitted Chrome
# trace JSON must be well-formed, with balanced per-thread span nesting
# and spans from all four instrumented layers — spice (Newton/transient
# kernel), ring (sweep + per-point tasks), sensor (optimizer
# candidates), exec (cache lookups, pool fan-out).
cmake --build "$repo/build" --target bench_fig2_ratio_nonlinearity -j "$jobs"
STSENSE_TRACE="$repo/build/trace_fig2.json" \
    "$repo/build/bench/bench_fig2_ratio_nonlinearity" \
    --csv="$repo/build/fig2_ratio_nl_traced.csv" \
    --json="$repo/build/BENCH_fig2_traced.json"
python3 "$repo/scripts/check_trace.py" "$repo/build/trace_fig2.json" \
    --require ring.sweep --require ring.sweep.point \
    --require spice.transient --require spice.newton.solve \
    --require sensor.optimize.candidate \
    --require exec.cache.get --require exec.parallel_for

echo "== tier 1: supervised DTM fleet — parity gates + chaos envelope =="
# Fault-free: the supervised fleet must be bitwise the unsupervised one
# (supervision is pure observation until something breaks), regulate
# under the trip line, and settle. --chaos replays the seeded fault
# matrix (dead region, stuck actuator, drifting/NaN sensors): every
# scenario must latch FaultedSafe with the expected fault kind and no
# region may exceed trip + 5 degC. The bench exits non-zero when any
# gate fails.
cmake --build "$repo/build" --target bench_dtm -j "$jobs"
STSENSE_FAULT_SEED=20260808 "$repo/build/bench/bench_dtm" --chaos --quick \
    --json="$repo/build/BENCH_dtm.json"

echo "== tier 1: population study — streaming stats + kill/resume parity =="
# The sharded Monte Carlo population engine on the quick grid (10^4
# dice): shard-size and serial-vs-parallel bitwise invariance, a seeded
# mid-population shard kill whose resume must reproduce the reference
# statistics bitwise, streaming Welford/P^2 summaries within 0.5% of an
# exact two-pass on every gated quantile, and the yield-vs-calibration-
# budget ordering (per-die two-point < one-point < golden on the error
# distributions). The bench exits non-zero when any shape check fails.
cmake --build "$repo/build" --target bench_population -j "$jobs"
STSENSE_FAULT_SEED=20260808 "$repo/build/bench/bench_population" --quick \
    --json="$repo/build/BENCH_population.json"

echo "== tier 1: telemetry-service loopback smoke + seeded cancel chaos =="
# The resident daemon's full protocol stack over the in-process
# loopback: the --demo tour (serve -> scripted requests -> deadline
# shed -> mid-burn deadline expiry -> drain) must answer every request,
# the transcript must conform to the wire contract (check_service.py)
# including the typed deadline-unmet verdicts, and the exec.cancel.* /
# service.shed.* counters surfaced by `query path:"metrics"` must show
# the shed and the mid-run cancellation. The service bench's quick
# matrix then gates admission control, cancel latency (typed answer
# within 50 ms, pool drained to zero), and the seeded CancelStorm
# chaos matrix (no torn checkpoints, bitwise resume) — the bench exits
# non-zero when any shape check fails.
cmake --build "$repo/build" --target telemetry_service bench_service -j "$jobs"
"$repo/build/examples/telemetry_service" --demo \
    | python3 "$repo/scripts/check_service.py" - --expect-responses 16 \
        --require-metric 'exec.cancel.fired>=1' \
        --require-metric 'service.cancelled>=1' \
        --require-metric 'service.shed.deadline>=1' \
        --require-metric 'service.shed.queued' \
        --require-metric 'exec.cancel.tasks_skipped' \
        --require-metric 'exec.cancel.sweeps' \
        --require-metric 'exec.cancel.optimizes'
"$repo/build/bench/bench_service" --quick \
    --json="$repo/build/BENCH_service_quick.json"

echo "== tier 1: whole suite under ThreadSanitizer =="
cmake -B "$repo/build-tsan" -S "$repo" -DSTSENSE_SANITIZE=thread
cmake --build "$repo/build-tsan" --target stsense_tests -j "$jobs"
# Every suite, not a hand-kept filter: the filter missed each new
# concurrent suite until someone added it (exec::Checkpoint, whose
# record() pool workers call concurrently in sweeps and optimizer
# searches, was one). The whole suite took 87 s at -j4 on the 4-core
# host and ran clean. A TSan report exits the test with status 66, so
# ctest fails it.
ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs"

echo "== tier 1: whole suite under AddressSanitizer + UBSan =="
# STSENSE_SANITIZE=address builds with
# -fsanitize=address,undefined,float-cast-overflow and
# -fno-sanitize-recover=undefined,float-cast-overflow, so a UB report —
# an out-of-range float-to-int cast included — fails the run.
cmake -B "$repo/build-asan" -S "$repo" -DSTSENSE_SANITIZE=address
cmake --build "$repo/build-asan" --target stsense_tests -j "$jobs"
# Every suite, not a hand-kept filter (which went stale with each new
# suite): recovery and policy paths unwind through exceptions and
# partial results, the kernel's batched evaluator scatters through
# precomputed flat offsets, and the service, DTM and cancellation
# layers tear down mid-flight — ASan gates them all for leaks,
# overflows and use-after-free, and UBSan fails on undefined arithmetic.
ctest --test-dir "$repo/build-asan" --output-on-failure -j "$jobs"

echo "tier 1: all gates passed"
