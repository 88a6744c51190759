#include "population/engine.hpp"

#include "exec/checkpoint.hpp"
#include "exec/fault_injector.hpp"
#include "exec/fingerprint.hpp"
#include "exec/metrics.hpp"
#include "phys/units.hpp"
#include "ring/analytic.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace stsense::population {

const char* to_string(CalibrationPolicy policy) {
    switch (policy) {
        case CalibrationPolicy::Golden: return "golden";
        case CalibrationPolicy::OnePoint: return "one_point";
        case CalibrationPolicy::TwoPoint: return "two_point";
    }
    return "unknown";
}

CalibrationPolicy calibration_policy_from_string(const std::string& name) {
    if (name == "golden") return CalibrationPolicy::Golden;
    if (name == "one_point") return CalibrationPolicy::OnePoint;
    if (name == "two_point") return CalibrationPolicy::TwoPoint;
    throw std::invalid_argument("unknown calibration policy '" + name +
                                "' (golden | one_point | two_point)");
}

const char* to_string(Metric metric) {
    switch (metric) {
        case Metric::FreshMaxAbsErrC: return "fresh_max_abs_err_c";
        case Metric::FreshRmsErrC: return "fresh_rms_err_c";
        case Metric::AgedMaxAbsErrC: return "aged_max_abs_err_c";
        case Metric::AgedDriftC: return "aged_drift_c";
        case Metric::PeriodAtRefNs: return "period_at_ref_ns";
        case Metric::GainCPerCode: return "gain_c_per_code";
    }
    return "unknown";
}

digital::GateConfig default_population_gate() {
    digital::GateConfig g;
    g.scheme = digital::GatingScheme::OscWindow;
    g.osc_cycles = 1u << 17;
    g.ref_cycles = 4096;
    g.ref_freq_hz = 100e6;
    return g;
}

namespace {

/// Code-domain pre-shift of every converter the study builds (matches
/// the smart unit's default barrel shift).
constexpr int kCodeShift = 6;

void check_field(bool ok, const char* message) {
    if (!ok) throw std::invalid_argument(message);
}

template <typename Fn>
void validate_part(const char* field, Fn&& fn) {
    try {
        fn();
    } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(std::string("PopulationConfig.") + field +
                                    ": " + e.what());
    }
}

/// Per-die period source: the analytic model always (it is also the
/// spice fallback), plus the transient engine when requested. The
/// analytic ring binds its stages once, at construction. Periods are
/// memoized by exact temperature: the calibration points and the 25 degC
/// reference usually sit on the test grid, and a period is a pure
/// function of (die, temperature).
class DiePeriods {
public:
    DiePeriods(const PopulationConfig& cfg, const phys::Technology& tech,
               const ring::RingConfig& ring_cfg)
        : cfg_(&cfg), analytic_(tech, ring_cfg) {
        if (cfg.engine == ring::Engine::Spice) {
            spice_.emplace(tech, ring_cfg);
        }
        // Every temperature a die asks one ring for: the test grid plus
        // at most the calibration points and the 25 degC reference.
        memo_.reserve(cfg.test_temps_c.size() + 3);
    }

    double at_c(double temp_c) {
        for (const auto& [t, p] : memo_) {
            if (t == temp_c) return p;
        }
        const double period = compute(temp_c);
        memo_.emplace_back(temp_c, period);
        return period;
    }

private:
    double compute(double temp_c) const {
        const double temp_k = phys::celsius_to_kelvin(temp_c);
        if (spice_) {
            auto r = spice_->try_simulate(temp_k, cfg_->spice);
            if (r.ok()) return r.value().period;
            // A non-converging die falls back to the analytic period
            // instead of aborting a million-die study; counted so a
            // noisy cross-check is visible in the metrics dump.
            exec::MetricsRegistry::global()
                .counter("population.spice_fallback")
                .add();
        }
        return analytic_.period(temp_k);
    }

    const PopulationConfig* cfg_;
    ring::AnalyticRingModel analytic_;
    std::optional<ring::SpiceRingModel> spice_;
    std::vector<std::pair<double, double>> memo_; ///< (temp_c, period).
};

/// The streaming state of a run: yield counters plus one
/// MetricAccumulator per output metric. Fold order is ascending die
/// order — the engine's determinism contract.
class Accumulators {
public:
    explicit Accumulators(std::span<const double> quantiles) {
        metrics_.reserve(kMetricCount);
        for (int m = 0; m < kMetricCount; ++m) metrics_.emplace_back(quantiles);
    }

    void fold(const std::array<double, kMetricCount>& v, double yield_limit_c) {
        dice_done_ += 1.0;
        if (v[static_cast<int>(Metric::FreshMaxAbsErrC)] <= yield_limit_c) {
            yield_fresh_ += 1.0;
        }
        if (v[static_cast<int>(Metric::AgedMaxAbsErrC)] <= yield_limit_c) {
            yield_aged_ += 1.0;
        }
        for (int m = 0; m < kMetricCount; ++m) metrics_[m].add(v[m]);
    }

    std::uint64_t dice_done() const {
        return static_cast<std::uint64_t>(dice_done_);
    }
    /// The dice count inside a serialized state.
    static double dice_done_of(std::span<const double> state) {
        return state[2];
    }
    double yield_fresh_fraction() const {
        return dice_done_ > 0.0 ? yield_fresh_ / dice_done_ : 0.0;
    }
    double yield_aged_fraction() const {
        return dice_done_ > 0.0 ? yield_aged_ / dice_done_ : 0.0;
    }

    std::size_t state_size() const {
        return 3 + static_cast<std::size_t>(kMetricCount) *
                       metrics_.front().state_size();
    }

    void serialize(std::span<double> out) const {
        out[0] = yield_fresh_;
        out[1] = yield_aged_;
        out[2] = dice_done_;
        std::size_t off = 3;
        for (const auto& m : metrics_) {
            m.serialize(out.subspan(off, m.state_size()));
            off += m.state_size();
        }
    }

    void restore(std::span<const double> in) {
        yield_fresh_ = in[0];
        yield_aged_ = in[1];
        dice_done_ = in[2];
        std::size_t off = 3;
        for (auto& m : metrics_) {
            m.restore(in.subspan(off, m.state_size()));
            off += m.state_size();
        }
    }

    std::vector<MetricSummary> summaries(
        std::span<const double> quantile_ps) const {
        std::vector<MetricSummary> out;
        out.reserve(kMetricCount);
        for (int m = 0; m < kMetricCount; ++m) {
            const MetricAccumulator& acc = metrics_[m];
            MetricSummary s;
            s.name = to_string(static_cast<Metric>(m));
            s.count = acc.moments().count();
            s.mean = acc.moments().mean();
            s.stddev = acc.moments().stddev();
            s.min = acc.moments().min();
            s.max = acc.moments().max();
            s.quantiles.reserve(quantile_ps.size());
            for (std::size_t j = 0; j < quantile_ps.size(); ++j) {
                s.quantiles.push_back(
                    {quantile_ps[j], acc.quantiles()[j].value()});
            }
            out.push_back(std::move(s));
        }
        return out;
    }

private:
    double yield_fresh_ = 0.0;
    double yield_aged_ = 0.0;
    double dice_done_ = 0.0;
    std::vector<MetricAccumulator> metrics_;
};

/// Whether a restored dice count is one this study can have
/// checkpointed: a whole number of dice in [1, dice], on a shard
/// boundary unless it is the whole population. The count comes from a
/// file, so it is checked like any outside input.
bool is_resume_point(double done, std::uint64_t dice, std::size_t shard_size) {
    if (!(done >= 1.0 && done <= static_cast<double>(dice))) return false;
    const auto n = static_cast<std::uint64_t>(done);
    return static_cast<double>(n) == done && (n == dice || n % shard_size == 0);
}

} // namespace

void validate(const PopulationConfig& config) {
    validate_part("tech", [&] { phys::validate(config.tech); });
    validate_part("ring", [&] { ring::validate(config.ring); });
    validate_part("gate", [&] { digital::validate(config.gate); });
    validate_part("aging", [&] { validate(config.aging); });

    check_field(config.variation.vth_sigma >= 0.0,
                "PopulationConfig.variation.vth_sigma must be >= 0");
    check_field(config.variation.kp_rel_sigma >= 0.0,
                "PopulationConfig.variation.kp_rel_sigma must be >= 0");
    check_field(config.variation.vdd_rel_sigma >= 0.0,
                "PopulationConfig.variation.vdd_rel_sigma must be >= 0");
    check_field(config.mismatch.drive_sigma >= 0.0,
                "PopulationConfig.mismatch.drive_sigma must be >= 0");
    check_field(config.mismatch.vth_sigma_v >= 0.0,
                "PopulationConfig.mismatch.vth_sigma_v must be >= 0");

    check_field(std::isfinite(config.horizon_hours) &&
                    config.horizon_hours >= 0.0,
                "PopulationConfig.horizon_hours must be finite and >= 0");
    if (config.recal.policy == RecalPolicy::Periodic) {
        check_field(std::isfinite(config.recal.interval_hours) &&
                        config.recal.interval_hours > 0.0,
                    "PopulationConfig.recal.interval_hours must be > 0 when "
                    "the policy is periodic");
    }
    check_field(std::isfinite(config.recal.temp_c),
                "PopulationConfig.recal.temp_c must be finite");

    check_field(std::isfinite(config.cal_low_c) &&
                    std::isfinite(config.cal_high_c) &&
                    config.cal_low_c < config.cal_high_c,
                "PopulationConfig.cal_low_c must be < cal_high_c (both finite)");
    check_field(std::isfinite(config.cal_one_point_c),
                "PopulationConfig.cal_one_point_c must be finite");

    check_field(!config.test_temps_c.empty(),
                "PopulationConfig.test_temps_c must not be empty");
    for (double t : config.test_temps_c) {
        check_field(std::isfinite(t),
                    "PopulationConfig.test_temps_c must be finite");
    }

    check_field(std::isfinite(config.yield_limit_c) &&
                    config.yield_limit_c > 0.0,
                "PopulationConfig.yield_limit_c must be > 0");
    for (double p : config.quantiles) {
        check_field(std::isfinite(p) && p > 0.0 && p < 1.0,
                    "PopulationConfig.quantiles must be in (0, 1)");
    }

    check_field(config.dice >= 1 && config.dice <= 10'000'000,
                "PopulationConfig.dice must be in [1, 10000000]");
    check_field(config.shard_size >= 1 && config.shard_size <= (1u << 20),
                "PopulationConfig.shard_size must be in [1, 1048576]");
}

std::uint64_t population_fingerprint(const PopulationConfig& config) {
    exec::Fingerprint fp;
    fp.add(std::uint64_t{0x706f7075'6c617431ULL}); // "popula1" format salt.
    ring::fingerprint_ring(fp, config.tech, config.ring);
    fp.add(static_cast<int>(config.corner))
        .add(config.corner_spec.vth_shift)
        .add(config.corner_spec.kp_rel)
        .add(config.variation.vth_sigma)
        .add(config.variation.kp_rel_sigma)
        .add(config.variation.vdd_rel_sigma)
        .add(config.variation.correlated_np)
        .add(config.mismatch.drive_sigma)
        .add(config.mismatch.vth_sigma_v)
        .add(config.aging.vth_drift_v)
        .add(config.aging.drive_degradation_rel)
        .add(config.aging.t0_hours)
        .add(config.aging.rate_sigma_ln)
        .add(config.horizon_hours)
        .add(static_cast<int>(config.recal.policy))
        .add(config.recal.interval_hours)
        .add(config.recal.temp_c)
        .add(static_cast<int>(config.calibration))
        .add(config.cal_low_c)
        .add(config.cal_high_c)
        .add(config.cal_one_point_c)
        .add(std::span<const double>(config.test_temps_c))
        .add(static_cast<int>(config.gate.scheme))
        .add(static_cast<std::uint64_t>(config.gate.ref_cycles))
        .add(static_cast<std::uint64_t>(config.gate.osc_cycles))
        .add(config.gate.ref_freq_hz)
        .add(config.gate.divider_log2)
        .add(config.yield_limit_c)
        .add(std::span<const double>(config.quantiles))
        .add(config.dice)
        .add(static_cast<std::uint64_t>(config.shard_size))
        .add(config.seed);
    ring::fingerprint_engine(fp, config.engine, config.spice);
    return fp.value();
}

DieEvaluator::DieEvaluator(const PopulationConfig& config)
    : config_(config),
      cornered_(phys::apply_corner(config.tech, config.corner,
                                   config.corner_spec)),
      stream_(cornered_, config.variation, util::Rng(config.seed)) {
    validate(config_);
    // Dice read only the period, never the probe trace.
    config_.spice.record_waveform = false;
    // Golden calibration: the datasheet characterization of the nominal
    // (un-cornered, un-varied) device — what a budget-0 flow ships to
    // every die.
    ring::AnalyticRingModel nominal(config_.tech, config_.ring);
    auto code = [&](double temp_c) {
        return static_cast<double>(digital::quantized_code(
            config_.gate, nominal.period(phys::celsius_to_kelvin(temp_c))));
    };
    golden_ = analysis::LinearCalibration::two_point(
        {config_.cal_low_c, code(config_.cal_low_c)},
        {config_.cal_high_c, code(config_.cal_high_c)});
}

std::array<double, kMetricCount> DieEvaluator::evaluate(
    std::uint64_t die) const {
    // Draw order is the per-die substream contract: variation first
    // (the VariationStream bitwise guarantee), then the aging rate
    // (always one normal), then stage mismatch. Toggling mismatch never
    // perturbs the aging draw; toggling aging never perturbs variation.
    util::Rng cont;
    const phys::Technology tech_i = stream_.at(die, cont);
    const double rate = sample_aging_rate(config_.aging, cont);
    std::optional<ring::RingConfig> mismatched;
    if (config_.mismatch.drive_sigma > 0.0 ||
        config_.mismatch.vth_sigma_v > 0.0) {
        mismatched = ring::sample_stage_mismatch(config_.ring,
                                                 config_.mismatch, cont);
    }
    const ring::RingConfig& ring_i = mismatched ? *mismatched : config_.ring;

    DiePeriods fresh(config_, tech_i, ring_i);
    auto code_at = [&](DiePeriods& periods, double temp_c) {
        return digital::quantized_code(config_.gate, periods.at_c(temp_c));
    };

    // Calibration under the configured budget, in the raw code domain.
    analysis::LinearCalibration cal;
    switch (config_.calibration) {
        case CalibrationPolicy::Golden:
            cal = golden_;
            break;
        case CalibrationPolicy::OnePoint:
            cal = analysis::LinearCalibration::one_point(
                {config_.cal_one_point_c,
                 static_cast<double>(code_at(fresh, config_.cal_one_point_c))},
                golden_.gain());
            break;
        case CalibrationPolicy::TwoPoint:
            cal = analysis::LinearCalibration::two_point(
                {config_.cal_low_c,
                 static_cast<double>(code_at(fresh, config_.cal_low_c))},
                {config_.cal_high_c,
                 static_cast<double>(code_at(fresh, config_.cal_high_c))});
            break;
    }
    const digital::LinearConverter conv(cal, kCodeShift);

    double fresh_max_abs = 0.0;
    double fresh_sum_sq = 0.0;
    for (double temp_c : config_.test_temps_c) {
        const double err = conv.convert_c(code_at(fresh, temp_c)) - temp_c;
        fresh_max_abs = std::max(fresh_max_abs, std::abs(err));
        fresh_sum_sq += err * err;
    }
    const double fresh_rms =
        std::sqrt(fresh_sum_sq /
                  static_cast<double>(config_.test_temps_c.size()));

    // Lifetime: age the die to the horizon at its own rate, pick the
    // in-field converter per the recalibration policy, re-measure.
    const phys::Technology aged_tech =
        apply_aging(tech_i, config_.aging, config_.horizon_hours, rate);
    DiePeriods aged(config_, aged_tech, ring_i);

    digital::LinearConverter conv_aged = conv;
    if (config_.recal.policy == RecalPolicy::Periodic &&
        config_.horizon_hours > 0.0) {
        // The last scheduled re-trim before the horizon: a one-point
        // offset trim at the field temperature, on the device as aged
        // at that time, reusing the die's calibrated gain.
        const double t_recal =
            std::floor(config_.horizon_hours / config_.recal.interval_hours) *
            config_.recal.interval_hours;
        const phys::Technology recal_tech =
            apply_aging(tech_i, config_.aging, t_recal, rate);
        DiePeriods at_recal(config_, recal_tech, ring_i);
        const auto recal_code = code_at(at_recal, config_.recal.temp_c);
        const auto recal_cal = analysis::LinearCalibration::one_point(
            {config_.recal.temp_c, static_cast<double>(recal_code)},
            cal.gain());
        conv_aged = digital::LinearConverter(recal_cal, kCodeShift);
    }

    double aged_max_abs = 0.0;
    for (double temp_c : config_.test_temps_c) {
        const double err = conv_aged.convert_c(code_at(aged, temp_c)) - temp_c;
        aged_max_abs = std::max(aged_max_abs, std::abs(err));
    }
    // The raw drift the recalibration fights: what the *fresh* converter
    // reads on the aged device at the field temperature (signed).
    const double drift =
        conv.convert_c(code_at(aged, config_.recal.temp_c)) -
        config_.recal.temp_c;

    std::array<double, kMetricCount> out{};
    out[static_cast<int>(Metric::FreshMaxAbsErrC)] = fresh_max_abs;
    out[static_cast<int>(Metric::FreshRmsErrC)] = fresh_rms;
    out[static_cast<int>(Metric::AgedMaxAbsErrC)] = aged_max_abs;
    out[static_cast<int>(Metric::AgedDriftC)] = drift;
    out[static_cast<int>(Metric::PeriodAtRefNs)] = fresh.at_c(25.0) * 1e9;
    out[static_cast<int>(Metric::GainCPerCode)] = cal.gain();
    return out;
}

PopulationResult run_population(const PopulationConfig& config,
                                const PopulationRuntime& rt) {
    const DieEvaluator eval(config); // Validates.
    const std::uint64_t fp = population_fingerprint(config);
    const std::uint64_t dice = config.dice;
    const std::size_t shard_size = config.shard_size;
    const std::size_t n_shards = static_cast<std::size_t>(
        (dice + shard_size - 1) / shard_size);

    Accumulators acc(config.quantiles);
    const std::size_t state_size = acc.state_size();

    // Ambient cancellation: installing an invalid token is a no-op, so
    // an enclosing request's token stays visible when rt.cancel is
    // unset.
    exec::CancelScope cancel_scope(rt.cancel);
    const exec::CancelToken& token = exec::CancelScope::current();

    auto& pool = rt.pool != nullptr ? *rt.pool : exec::ThreadPool::global();
    std::vector<std::array<double, kMetricCount>> shard_buf(shard_size);

    auto publish = [&](std::size_t shards_done) {
        if (!rt.on_shard) return;
        PopulationProgress progress;
        progress.dice_done = acc.dice_done();
        progress.dice_total = dice;
        progress.shard_index = shards_done;
        progress.shard_count = n_shards;
        progress.yield_fresh = acc.yield_fresh_fraction();
        progress.yield_aged = acc.yield_aged_fraction();
        progress.metrics = acc.summaries(config.quantiles);
        rt.on_shard(progress);
    };

    // The accumulator state after shard s already holds shards 0..s, so
    // the checkpoint keeps one point — the newest state — and every
    // fold overwrites it.
    std::uint64_t resumed_dice = 0;
    exec::run_checkpointed(
        {rt.checkpoint_path, fp, 1, state_size,
         static_cast<std::int64_t>(rt.checkpoint_every), rt.keep_checkpoint,
         "population.cancelled"},
        [&](exec::Checkpoint* ckpt) {
            std::size_t first_shard = 0;
            if (ckpt != nullptr && ckpt->completed(0)) {
                const auto state = ckpt->values(0);
                const double done = Accumulators::dice_done_of(state);
                if (is_resume_point(done, dice, shard_size)) {
                    acc.restore(state);
                    resumed_dice = static_cast<std::uint64_t>(done);
                    first_shard = static_cast<std::size_t>(
                        (resumed_dice + shard_size - 1) / shard_size);
                    exec::MetricsRegistry::global()
                        .counter("population.resumed_dice")
                        .add(resumed_dice);
                } else {
                    // Checksummed, but not a state this study can have
                    // written: start fresh, and drop it from memory so a
                    // cancel before the first fold cannot persist it
                    // again.
                    exec::MetricsRegistry::global()
                        .counter("population.rejected_checkpoints")
                        .add();
                    ckpt->clear();
                }
            }

            for (std::size_t s = first_shard; s < n_shards; ++s) {
                token.check();
                const std::uint64_t begin =
                    static_cast<std::uint64_t>(s) * shard_size;
                const std::uint64_t end =
                    std::min<std::uint64_t>(dice, begin + shard_size);
                const std::size_t n = static_cast<std::size_t>(end - begin);

                // Evaluate the shard in parallel (independent dice), then
                // fold serially in ascending die order — the fold order is
                // part of the deterministic result.
                auto fill = [&](std::size_t b, std::size_t e) {
                    for (std::size_t i = b; i < e; ++i) {
                        shard_buf[i] = eval.evaluate(
                            begin + static_cast<std::uint64_t>(i));
                    }
                };
                if (rt.parallel && n > 1) {
                    pool.parallel_for(n, 0, fill);
                } else {
                    fill(0, n);
                }
                for (std::size_t i = 0; i < n; ++i) {
                    acc.fold(shard_buf[i], config.yield_limit_c);
                }

                auto& metrics = exec::MetricsRegistry::global();
                metrics.counter("population.dice").add(n);
                metrics.counter("population.shards").add();

                if (ckpt != nullptr) {
                    std::vector<double> state(state_size);
                    acc.serialize(state);
                    ckpt->record(0, state);
                }
                // The kill site models process death *after* the shard
                // completed (record done, no explicit flush): resume must
                // recompute any unflushed tail bitwise.
                if (auto* injector = exec::FaultInjector::active();
                    injector != nullptr &&
                    injector->trip(exec::FaultInjector::Site::ShardKill, s)) {
                    throw exec::InjectedKill(s);
                }
                publish(s + 1);
            }
        });

    PopulationResult result;
    result.dice = dice;
    result.shards = n_shards;
    result.shard_size = shard_size;
    result.fingerprint = fp;
    result.resumed_dice = resumed_dice;
    result.yield_fresh = acc.yield_fresh_fraction();
    result.yield_aged = acc.yield_aged_fraction();
    result.metrics = acc.summaries(config.quantiles);
    return result;
}

} // namespace stsense::population
