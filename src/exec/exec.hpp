// stsense::exec — the parallel execution runtime.
//
// Sits between util and every simulation layer in the dependency order
// (util -> exec -> phys -> ...). The pieces:
//
//   * ThreadPool / TaskGroup (thread_pool.hpp): fixed-size work-stealing
//     pool with a chunked, deterministic parallel_for. The process-wide
//     pool is ThreadPool::global(), sized by the STSENSE_THREADS
//     environment variable (default: hardware concurrency).
//   * Fingerprint (fingerprint.hpp) + ResultCache (result_cache.hpp):
//     content-addressed, in-memory memoization of simulation results
//     with an LRU byte budget and hit/miss statistics.
//   * Checkpoint (checkpoint.hpp): crash-safe, fingerprint-keyed
//     progress files, and run_checkpointed(), the one lifecycle every
//     long job (sweep, optimizer search, population study) shares:
//     open and load, flush on cancel, keep or delete on success.
//   * MetricsRegistry (metrics.hpp): counters/gauges/scoped wall-clock
//     timers the pool, the cache, and the benches publish into;
//     dumpable as JSON.
//   * CancelToken / CancelScope (cancel.hpp): hierarchical cooperative
//     cancellation + deadline propagation. The ambient token crosses
//     layer boundaries via the pool (submit captures, execute
//     re-installs) and is polled at every natural loop boundary.
//   * FaultInjector (fault_injector.hpp): deterministic, seed-split
//     fault injection (forced solver failures, NaN states, torn
//     checkpoints, slow tasks) behind every robustness test and bench.
//
// The contract the consumers rely on: running a workload through the
// pool with ANY thread count produces bitwise identical results to the
// serial loop. Chunk boundaries are a pure function of (n, grain),
// results are committed by index, and per-trial randomness is derived
// by seed-splitting (util::Rng::split(stream_id)) — never from
// scheduling order.
#pragma once

#include "exec/cancel.hpp"         // IWYU pragma: export
#include "exec/checkpoint.hpp"     // IWYU pragma: export
#include "exec/fault_injector.hpp" // IWYU pragma: export
#include "exec/fingerprint.hpp"   // IWYU pragma: export
#include "exec/metrics.hpp"       // IWYU pragma: export
#include "exec/result_cache.hpp"  // IWYU pragma: export
#include "exec/thread_pool.hpp"   // IWYU pragma: export
