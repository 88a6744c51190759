// Population-scale Monte-Carlo engine: sharded variability & lifetime
// study over 10^4..10^6 virtual dice.
//
// Each die is an independent trial: corner + die-to-die variation
// (phys::VariationStream substream), within-die stage mismatch, a
// per-die aging rate, calibration under a chosen budget, and an aged
// re-evaluation at the lifetime horizon under a recalibration policy.
// The die reduces to a fixed vector of output metrics (kMetricCount
// doubles) which the engine folds into streaming accumulators
// (population::MetricAccumulator) — no per-die result is ever
// materialized, so the memory footprint is O(shard_size), not O(dice).
//
// Determinism contract (the sum of the layers' contracts):
//   * die i's random draws come from base.split(i) continuations — pure
//     in (seed, i), independent of threads and shard boundaries;
//   * dice are folded in ascending die order, shard by shard, so the
//     final statistics are bitwise invariant to thread count AND shard
//     size;
//   * the accumulator state after folding shards 0..s is complete, so
//     the checkpoint (keyed by the config fingerprint) holds one point:
//     the newest state, overwritten after every fold. A killed run
//     restores it and continues at shard ceil(dice_done / shard_size)
//     with bitwise-identical final statistics (gated by
//     bench_population). A restored dice count off a shard boundary or
//     past the population is rejected, and the run starts fresh.
#pragma once

#include "analysis/calibration.hpp"
#include "digital/converter.hpp"
#include "digital/period_counter.hpp"
#include "exec/cancel.hpp"
#include "exec/thread_pool.hpp"
#include "phys/corners.hpp"
#include "phys/technology.hpp"
#include "population/aging.hpp"
#include "population/streaming_stats.hpp"
#include "ring/config.hpp"
#include "ring/spice_ring.hpp"
#include "ring/sweep.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace stsense::population {

/// Calibration budget per die, in increasing cost order.
enum class CalibrationPolicy : int {
    Golden = 0,   ///< Budget 0: shared two-point calibration from the
                  ///< nominal (un-cornered, un-varied) technology.
    OnePoint = 1, ///< Budget 1: per-die offset trim at one temperature,
                  ///< golden gain.
    TwoPoint = 2, ///< Budget 2: per-die two-point calibration.
};

const char* to_string(CalibrationPolicy policy);
CalibrationPolicy calibration_policy_from_string(const std::string& name);

/// In-field recalibration policy over the lifetime horizon.
enum class RecalPolicy : int {
    Never = 0,    ///< Ship-and-forget: the fresh calibration serves for life.
    Periodic = 1, ///< One-point offset re-trim every interval_hours.
};

/// Recalibration schedule.
struct RecalSpec {
    RecalPolicy policy = RecalPolicy::Never;
    double interval_hours = 0.0; ///< Re-trim period (> 0 when Periodic).
    double temp_c = 60.0;        ///< Field temperature of the re-trim.
};

/// Output metrics folded per die, in serialization order.
enum class Metric : int {
    FreshMaxAbsErrC = 0, ///< Max |error| over test_temps_c, fresh device.
    FreshRmsErrC = 1,    ///< RMS error over test_temps_c, fresh device.
    AgedMaxAbsErrC = 2,  ///< Max |error| at the horizon, after recal policy.
    AgedDriftC = 3,      ///< Signed fresh-converter error at recal.temp_c on
                         ///< the aged device — the raw drift recal fights.
    PeriodAtRefNs = 4,   ///< Fresh oscillation period at 25 degC [ns].
    GainCPerCode = 5,    ///< The die's calibrated gain [degC per code].
};
inline constexpr int kMetricCount = 6;

/// Metric name as used in reports ("fresh_max_abs_err_c", ...).
const char* to_string(Metric metric);

/// The default counter gate of the population study (same shape as
/// sensor::default_gate: ~0.06 degC/LSB against a 100 MHz reference).
/// Replicated here so the population layer does not depend on sensor.
digital::GateConfig default_population_gate();

/// The full study description — everything that determines the result
/// (and therefore everything the fingerprint hashes).
struct PopulationConfig {
    phys::Technology tech = phys::cmos350();
    ring::RingConfig ring = ring::RingConfig::uniform(cells::CellKind::Inv, 13);

    phys::Corner corner = phys::Corner::TT;       ///< Shared process corner.
    phys::CornerSpec corner_spec;                 ///< Corner shift magnitudes.
    phys::VariationSpec variation;                ///< Die-to-die variation.
    ring::MismatchSpec mismatch{0.0, 0.0};        ///< Within-die stage mismatch
                                                  ///< (both 0 = disabled).
    AgingSpec aging;                              ///< Lifetime degradation law.
    double horizon_hours = 10000.0;               ///< Lifetime horizon.
    RecalSpec recal;                              ///< In-field recalibration.

    CalibrationPolicy calibration = CalibrationPolicy::TwoPoint;
    double cal_low_c = 0.0;       ///< Lower two-point calibration temp.
    double cal_high_c = 100.0;    ///< Upper two-point calibration temp.
    double cal_one_point_c = 50.0;///< One-point trim temperature.

    /// Temperatures the accuracy metrics are evaluated at.
    std::vector<double> test_temps_c = {-50, -25, 0, 25, 50,
                                        75,  100, 125, 150};

    digital::GateConfig gate = default_population_gate();

    double yield_limit_c = 1.0;   ///< A die yields when max |error| <= this.
    std::vector<double> quantiles = {0.5, 0.9, 0.99}; ///< Tracked per metric.

    std::uint64_t dice = 10000;   ///< Population size.
    std::size_t shard_size = 1024;///< Dice folded per checkpoint unit.
    std::uint64_t seed = 1;       ///< Root of every per-die substream.

    /// Period engine per die. Spice is the expensive cross-check; a die
    /// whose transient fails falls back to the analytic period.
    ring::Engine engine = ring::Engine::Analytic;
    ring::SpiceRingOptions spice; ///< Used when engine == Spice.
};

/// Throws std::invalid_argument naming the offending field.
void validate(const PopulationConfig& config);

/// Content hash over every field of `config` (plus a format version
/// salt). Shard boundaries are part of the resume state, so shard_size
/// is hashed too: a checkpoint written under different sharding never
/// resumes into this run.
std::uint64_t population_fingerprint(const PopulationConfig& config);

/// One quantile estimate of a metric.
struct QuantileEstimate {
    double p = 0.0;
    double value = 0.0;
};

/// Streaming summary of one output metric.
struct MetricSummary {
    std::string name;
    std::uint64_t count = 0;
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::vector<QuantileEstimate> quantiles;
};

/// Live progress snapshot, published after every folded shard.
struct PopulationProgress {
    std::uint64_t dice_done = 0;
    std::uint64_t dice_total = 0;
    std::size_t shard_index = 0; ///< Shards folded so far.
    std::size_t shard_count = 0;
    double yield_fresh = 0.0;    ///< Fraction of folded dice within limit.
    double yield_aged = 0.0;
    std::vector<MetricSummary> metrics; ///< Running summaries, Metric order.
};

using ProgressFn = std::function<void(const PopulationProgress&)>;

/// Final study result. `metrics` is indexed by Metric.
struct PopulationResult {
    std::uint64_t dice = 0;
    std::size_t shards = 0;
    std::size_t shard_size = 0;
    std::uint64_t fingerprint = 0;
    std::uint64_t resumed_dice = 0; ///< Dice restored from the checkpoint.
    double yield_fresh = 0.0;
    double yield_aged = 0.0;
    std::vector<MetricSummary> metrics;
};

/// Execution knobs — the sweep runtime's shape. The checkpoint knobs
/// feed exec::run_checkpointed, the lifecycle every long job shares.
struct PopulationRuntime {
    exec::ThreadPool* pool = nullptr; ///< nullptr = the global pool.
    bool parallel = true;
    std::string checkpoint_path;      ///< Empty = no checkpointing.
    /// Shards per checkpoint flush; 0 selects the Checkpoint default (8).
    std::size_t checkpoint_every = 1;
    bool keep_checkpoint = false;     ///< Keep the file after success.
    exec::CancelToken cancel;         ///< Installed around the run if valid.
    ProgressFn on_shard;              ///< Called after every folded shard.
};

/// Per-die evaluator: the pure function die -> metric vector that both
/// the sharded engine and the exact two-pass cross-check in
/// bench_population execute — sharing the implementation is what makes
/// "streaming vs exact" a meaningful comparison.
class DieEvaluator {
public:
    /// Validates the config; precomputes the cornered technology and
    /// the golden (shared) calibration.
    explicit DieEvaluator(const PopulationConfig& config);

    /// Metrics of die `die`, Metric order. Thread-safe (const, no
    /// shared mutable state).
    std::array<double, kMetricCount> evaluate(std::uint64_t die) const;

    const phys::Technology& cornered() const { return cornered_; }
    const analysis::LinearCalibration& golden() const { return golden_; }

private:
    PopulationConfig config_;
    phys::Technology cornered_;          ///< tech moved to config.corner.
    phys::VariationStream stream_;       ///< Die-to-die variation source.
    analysis::LinearCalibration golden_; ///< Shared two-point calibration.
};

/// Runs the sharded study. Shards evaluate in parallel internally but
/// fold sequentially in ascending die order; see the header comment for
/// the determinism and resume contracts. Honors rt.cancel at shard
/// boundaries (flushing the checkpoint before rethrowing
/// exec::CancelledError) and the FaultInjector ShardKill site (for
/// kill/resume testing).
PopulationResult run_population(const PopulationConfig& config,
                                const PopulationRuntime& rt = {});

} // namespace stsense::population
