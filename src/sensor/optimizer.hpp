// Design-space optimization of the ring sensor's linearity — the
// paper's two optimization axes, automated:
//   * transistor-level: sweep / minimize over the Wp/Wn ratio (Fig. 2);
//   * cell-based: enumerate stock-cell mixes and rank them (Fig. 3).
#pragma once

#include "exec/thread_pool.hpp"
#include "phys/technology.hpp"
#include "ring/config.hpp"
#include "ring/sweep.hpp"

#include <span>
#include <string>
#include <vector>

namespace stsense::sensor {

/// How an optimization run executes. Like ring::SweepRuntime, the knobs
/// trade time and robustness, never values: a checkpointed run produces
/// bitwise the results of an uncheckpointed one.
struct OptimizerRuntime {
    /// Pool for the candidate fan-out; nullptr selects the global pool.
    exec::ThreadPool* pool = nullptr;
    /// Per-point policy of each candidate's inner temperature sweep.
    ring::FaultPolicySpec fault;
    /// Crash-safe checkpoint/resume of the candidate evaluations. When
    /// non-empty, each candidate's figures are persisted here as they
    /// complete (fingerprint-keyed over every candidate's sweep
    /// fingerprint; atomic tmp+rename writes); a rerun of the same
    /// search restores completed candidates bitwise instead of
    /// re-evaluating them.
    std::string checkpoint_path;
    /// Completed candidates between checkpoint flushes (<= 0: the
    /// Checkpoint default, 8).
    int checkpoint_every = 4;
    /// Keep the checkpoint file after a completed run (tests/debugging).
    bool keep_checkpoint = false;
    /// Cooperative cancellation/deadline token for the whole search:
    /// polled at every candidate boundary (and, through the ambient
    /// scope, at every inner sweep point and Newton iteration). A fired
    /// token flushes the checkpoint, then unwinds as
    /// exec::CancelledError; invalid (default) is free.
    exec::CancelToken cancel;
};

/// One point of a ratio sweep.
struct RatioPoint {
    double ratio = 0.0;
    double max_nl_percent = 0.0;
    double period_27c_s = 0.0;
};

/// Non-linearity (max |NL| % over the paper grid) of an n-stage ring of
/// `kind` cells at each Wp/Wn ratio. Candidates evaluate concurrently on
/// `runtime.pool` (nullptr: the global pool); results are committed by
/// candidate index, so the output is identical at any thread count.
///
/// `runtime.fault` is the per-point policy of each candidate's inner
/// temperature sweep. Partial sweeps (Skip / exhausted Retry) are
/// consumed gracefully: the NL figure is computed over the valid points,
/// and a candidate with fewer than 3 valid points ranks as +infinity
/// instead of aborting the search.
std::vector<RatioPoint> ratio_sweep(const phys::Technology& tech,
                                    cells::CellKind kind, int n_stages,
                                    std::span<const double> ratios,
                                    const OptimizerRuntime& runtime = {});

/// Continuous optimum found by golden-section search on max |NL|(ratio).
struct RatioOptimum {
    double ratio = 0.0;
    double max_nl_percent = 0.0;
    int evaluations = 0;
};

/// Minimizes the non-linearity over ratio in [lo, hi]. Preconditions:
/// 0 < lo < hi, tol > 0. The NL-vs-ratio curve is unimodal for this
/// physics (one curvature-cancellation point), which golden-section
/// requires.
RatioOptimum optimize_ratio(const phys::Technology& tech, cells::CellKind kind,
                            int n_stages, double lo, double hi,
                            double tol = 1e-3,
                            const ring::FaultPolicySpec& fault = {});

/// One candidate from the cell-mix enumeration.
struct MixCandidate {
    ring::RingConfig config;
    std::string name;
    double max_nl_percent = 0.0;
    double period_27c_s = 0.0;
};

/// Enumerates every multiset of `n_stages` cells drawn from `kinds`
/// (at the library ratio), evaluates each ring, and returns candidates
/// sorted by ascending non-linearity. This is the "select an adequate
/// set of standard logic gates" search of the paper's abstract.
/// Enumeration order and the (stable) sort are deterministic; candidate
/// rings evaluate concurrently on `runtime.pool` (nullptr: the global
/// pool). A checkpoint persists only the per-candidate figures: the
/// enumeration itself is cheap and deterministic.
std::vector<MixCandidate> enumerate_mixes(const phys::Technology& tech,
                                          std::span<const cells::CellKind> kinds,
                                          int n_stages,
                                          const OptimizerRuntime& runtime = {});

} // namespace stsense::sensor
