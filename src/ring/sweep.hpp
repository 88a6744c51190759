// Temperature sweeps: run a ring configuration across a temperature
// grid with either engine and collect the period/frequency series that
// Figs. 2 and 3 are computed from.
//
// Sweeps are the library's hot loop, and every point is independent, so
// the driver runs them through the stsense::exec runtime: points are
// dispatched to the work-stealing pool (deterministic chunk -> index
// mapping, results committed by index — bitwise identical to the serial
// loop at any thread count) and whole sweeps are memoized in the
// content-addressed result cache keyed by a fingerprint over
// (technology, ring config, engine, options, fault policy, grid).
//
// Fault tolerance: a sweep over hundreds of Newton solves must not die
// because one (config, T) point misbehaves. Each point's failure (a
// spice::SimError after the solver's own recovery ladder, or an
// injected fault) is handled by the runtime's per-point FaultPolicy —
// propagate, skip, retry with tightened resolution, or fall back to the
// analytic model — and every point's outcome is recorded in
// SweepResult::status, so consumers can rank partial series and benches
// can report recovery rates. Fault-free runs take the historical path
// bit for bit.
#pragma once

#include "exec/cancel.hpp"
#include "exec/fingerprint.hpp"
#include "exec/result_cache.hpp"
#include "exec/thread_pool.hpp"
#include "phys/technology.hpp"
#include "ring/config.hpp"
#include "ring/spice_ring.hpp"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace stsense::ring {

/// Which period engine computes a ring's periods — the one engine axis
/// of sweeps, the optimizer, the population study and the service.
enum class Engine {
    Analytic, ///< Closed-form delay model (fast; default for sweeps).
    Spice,    ///< Transistor-level transient simulation.
};

/// Engine name as used in metric names, trace tags and on the wire
/// ("analytic", "spice").
const char* to_string(Engine engine);
/// Inverse of to_string(Engine). Throws std::invalid_argument
/// ("'engine' must be \"analytic\" or \"spice\"") for any other name.
Engine engine_from_string(const std::string& name);

/// Feeds `fp` every technology and per-stage parameter that shapes a
/// ring's period, in a fixed order. The one hash of (technology, ring)
/// behind every fingerprint that keys periods.
void fingerprint_ring(exec::Fingerprint& fp, const phys::Technology& tech,
                      const RingConfig& config);
/// Feeds `fp` the engine and, for Engine::Spice, every SpiceRingOptions
/// field that shapes the period. record_waveform is left out (period
/// consumers run with it off) and so is kernel.lockstep_width (lock-step
/// is bitwise the solo run).
void fingerprint_engine(exec::Fingerprint& fp, Engine engine,
                        const SpiceRingOptions& spice_opt);

/// What the sweep does with a point whose evaluation fails.
enum class FaultPolicy {
    Propagate,          ///< Rethrow — the whole sweep fails (legacy).
    Skip,               ///< Record the point as skipped; series gets NaN.
    Retry,              ///< Re-run with tightened resolution, then fail the point.
    FallbackToAnalytic, ///< Substitute the analytic model's period.
};

const char* to_string(FaultPolicy policy);

/// Retry shaping for FaultPolicy::Retry.
struct FaultPolicySpec {
    FaultPolicy policy = FaultPolicy::Propagate;
    int max_retries = 2;            ///< Extra attempts after the first failure.
    /// Each retry multiplies steps_per_period by this (tightened time
    /// resolution is the lever that actually fixes marginal transients).
    double retry_steps_factor = 2.0;
};

/// Per-point outcome of a sweep. Ok and the Recovered* values carry a
/// valid period; Skipped/Failed points hold NaN in the series.
enum class PointStatus : std::uint8_t {
    Ok = 0,               ///< Plain solve, no assistance.
    RecoveredDamped = 1,  ///< Solver ladder: damped Newton.
    RecoveredGmin = 2,    ///< Solver ladder: gmin stepping.
    RecoveredSource = 3,  ///< Solver ladder: source stepping.
    RecoveredRetry = 4,   ///< Sweep-level retry succeeded.
    FallbackAnalytic = 5, ///< Analytic substitute recorded.
    Skipped = 6,          ///< Policy skipped the point.
    Failed = 7,           ///< Retries exhausted; point unusable.
};

const char* to_string(PointStatus status);

/// Period-vs-temperature series of one configuration.
struct SweepResult {
    std::vector<double> temps_c;      ///< Sweep grid [deg C].
    std::vector<double> period_s;     ///< Oscillation period at each point [s].
    std::vector<double> frequency_hz; ///< 1 / period [Hz].
    /// Outcome per point (same length as the grid; all Ok on the
    /// fault-free fast path).
    std::vector<PointStatus> status;

    std::size_t count(PointStatus s) const;
    /// Points whose period is usable (everything but Skipped/Failed).
    std::size_t valid_points() const;
    /// Points rescued by any mechanism (solver ladder, retry, fallback).
    std::size_t recovered_points() const;
    bool complete() const { return valid_points() == temps_c.size(); }
};

/// How a sweep executes. The defaults give the fast path: points run on
/// the global pool, whole results are memoized in the global cache, and
/// a failed point propagates (legacy behavior). Pool/cache knobs trade
/// time and memory, never values; the fault policy changes values only
/// for points that would otherwise have killed the sweep.
struct SweepRuntime {
    /// Pool for the parallel path; nullptr selects
    /// exec::ThreadPool::global() (honors STSENSE_THREADS).
    exec::ThreadPool* pool = nullptr;
    /// false forces the serial reference loop on the calling thread.
    bool parallel = true;
    /// Cache for whole-sweep memoization; nullptr selects
    /// exec::ResultCache::global().
    exec::ResultCache* cache = nullptr;
    /// false recomputes even when an identical sweep is cached. (The
    /// cache is also bypassed automatically while a FaultInjector is
    /// installed: injected outcomes must not be memoized.)
    bool use_cache = true;
    /// Per-point failure handling.
    FaultPolicySpec fault;

    /// Crash-safe checkpoint/resume. When non-empty, completed points
    /// are persisted to this path (fingerprint-keyed, per-row FNV-1a
    /// checksums, atomic tmp+rename writes) and a rerun of the *same*
    /// sweep resumes: persisted points are restored bitwise instead of
    /// recomputed, so a killed run plus a resumed run produce exactly
    /// the series an uninterrupted run would. A checkpoint left by a
    /// different sweep (or a corrupted row) is detected and ignored.
    /// Checkpointing changes no values and is not part of the sweep
    /// fingerprint.
    std::string checkpoint_path;
    /// Completed points between checkpoint flushes (1 = flush on every
    /// point; <= 0 selects the Checkpoint default, 8). The checkpoint
    /// opens only when the sweep computes: a cache hit reads no file.
    int checkpoint_every = 8;
    /// true keeps the checkpoint file after a completed sweep (tests /
    /// debugging); the default removes it so finished runs leave no
    /// stale state behind.
    bool keep_checkpoint = false;

    /// Cooperative cancellation/deadline token. When valid, it is
    /// installed as the ambient exec token for the whole sweep: every
    /// point dispatch (and lock-step group) polls it, the spice solver
    /// folds its deadline into the per-solve budget, and a fired token
    /// unwinds as exec::CancelledError *after* flushing the checkpoint
    /// (so a cancelled run resumes bitwise from where it stopped). An
    /// invalid token (the default) is free and leaves any enclosing
    /// ambient token — e.g. the service's per-request token — visible.
    exec::CancelToken cancel;

    /// A runtime that bypasses both the pool and the cache — the serial
    /// reference the determinism tests compare against.
    static SweepRuntime serial() {
        SweepRuntime rt;
        rt.parallel = false;
        rt.use_cache = false;
        return rt;
    }
};

/// Runs the sweep. The grid must be non-empty, finite (no NaN/Inf), and
/// strictly increasing; throws std::invalid_argument (naming the
/// offending index and value) otherwise.
SweepResult temperature_sweep(const phys::Technology& tech,
                              const RingConfig& config,
                              std::span<const double> temps_c,
                              Engine engine = Engine::Analytic,
                              const SpiceRingOptions& spice_opt = {},
                              const SweepRuntime& runtime = {});

/// Convenience: the paper grid (-50 ... 150 degC, step 12.5).
SweepResult paper_sweep(const phys::Technology& tech, const RingConfig& config,
                        Engine engine = Engine::Analytic,
                        const SpiceRingOptions& spice_opt = {},
                        const SweepRuntime& runtime = {});

/// How a lock-step sweep of n points splits into groups: G =
/// max(ceil(n / max_width), min(n, workers)) contiguous groups whose
/// sizes differ by at most one, so no group exceeds max_width and a
/// pool of `workers` gets at least one group per worker (n < workers
/// gives n one-point groups). Returns G + 1 ascending offsets; group g
/// covers [bounds[g], bounds[g + 1]). max_width and workers below 1
/// count as 1. Grouping is pure scheduling: lock-step results are
/// bitwise identical to solo solves whatever the split.
std::vector<std::size_t> lockstep_groups(std::size_t n, std::size_t max_width,
                                         std::size_t workers);

/// Content fingerprint of a sweep: hashes every input that influences
/// the result (all technology and per-stage parameters, the engine, the
/// SPICE options when the engine is Spice, the fault policy, and the
/// grid values). Equal fingerprints imply bitwise equal SweepResults.
/// This is the cache key temperature_sweep memoizes under.
std::uint64_t sweep_fingerprint(const phys::Technology& tech,
                                const RingConfig& config,
                                std::span<const double> temps_c, Engine engine,
                                const SpiceRingOptions& spice_opt = {},
                                const FaultPolicySpec& fault = {});

} // namespace stsense::ring
