// The sharded population engine's determinism and resume contracts:
// thread-count and shard-size invariance (bitwise), kill-at-every-
// shard-boundary resume through exec::Checkpoint, cooperative
// cancellation with a typed cause, and progress publication.
#include "population/engine.hpp"

#include "exec/cancel.hpp"
#include "exec/checkpoint.hpp"
#include "exec/fault_injector.hpp"
#include "exec/metrics.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace stsense::population {
namespace {

struct TempFile {
    std::string path;
    explicit TempFile(const std::string& name)
        : path(testing::TempDir() + name) {}
    ~TempFile() { std::remove(path.c_str()); }
};

bool file_exists(const std::string& path) {
    return std::ifstream(path).good();
}

/// Small but structured study: variation, mismatch, aging spread and a
/// recal policy, so every draw site and metric is exercised.
PopulationConfig small_config(std::uint64_t dice = 300,
                              std::size_t shard = 64) {
    PopulationConfig cfg;
    cfg.dice = dice;
    cfg.shard_size = shard;
    cfg.seed = 99;
    cfg.variation.vdd_rel_sigma = 0.005;
    cfg.mismatch = {0.01, 0.004};
    cfg.aging.vth_drift_v = 0.002;
    cfg.aging.drive_degradation_rel = 0.004;
    cfg.aging.rate_sigma_ln = 0.2;
    cfg.recal.policy = RecalPolicy::Periodic;
    cfg.recal.interval_hours = 1000.0;
    return cfg;
}

std::size_t line_count(const std::string& path) {
    std::ifstream in(path);
    std::size_t n = 0;
    for (std::string line; std::getline(in, line);) ++n;
    return n;
}

/// Size of the engine's serialized accumulator state: yield counters
/// and dice count, then one MetricAccumulator per metric.
std::size_t state_size(const PopulationConfig& cfg) {
    return 3 + static_cast<std::size_t>(kMetricCount) *
                   MetricAccumulator(cfg.quantiles).state_size();
}

std::uint64_t counter_value(const char* name) {
    return exec::MetricsRegistry::global().counter(name).value();
}

bool results_bitwise_equal(const PopulationResult& a,
                           const PopulationResult& b) {
    if (a.yield_fresh != b.yield_fresh || a.yield_aged != b.yield_aged ||
        a.metrics.size() != b.metrics.size()) {
        return false;
    }
    for (std::size_t m = 0; m < a.metrics.size(); ++m) {
        const auto& x = a.metrics[m];
        const auto& y = b.metrics[m];
        if (x.count != y.count || x.mean != y.mean || x.stddev != y.stddev ||
            x.min != y.min || x.max != y.max) {
            return false;
        }
        for (std::size_t j = 0; j < x.quantiles.size(); ++j) {
            if (x.quantiles[j].value != y.quantiles[j].value) return false;
        }
    }
    return true;
}

TEST(PopulationEngine, SerialMatchesParallelBitwise) {
    const auto cfg = small_config();
    PopulationRuntime serial;
    serial.parallel = false;
    const auto a = run_population(cfg, serial);
    const auto b = run_population(cfg); // Parallel on the global pool.
    EXPECT_TRUE(results_bitwise_equal(a, b));
    EXPECT_EQ(a.dice, cfg.dice);
    EXPECT_EQ(a.metrics.size(), static_cast<std::size_t>(kMetricCount));
}

TEST(PopulationEngine, ShardSizeDoesNotChangeTheResult) {
    const auto r64 = run_population(small_config(300, 64));
    const auto r17 = run_population(small_config(300, 17));
    const auto r300 = run_population(small_config(300, 300));
    EXPECT_TRUE(results_bitwise_equal(r64, r17));
    EXPECT_TRUE(results_bitwise_equal(r64, r300));
    EXPECT_EQ(r17.shards, (300u + 16u) / 17u);
}

TEST(PopulationEngine, EvaluateDieIsPureRandomAccess) {
    const auto cfg = small_config();
    const DieEvaluator eval(cfg);
    const auto a = eval.evaluate(42);
    (void)eval.evaluate(0);
    (void)eval.evaluate(250);
    const auto b = eval.evaluate(42);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, DieEvaluator(cfg).evaluate(42));
}

TEST(PopulationEngine, KillAtEveryShardBoundaryResumesBitwise) {
    const auto cfg = small_config(200, 32); // 7 shards, last one partial.
    const auto reference = run_population(cfg);
    const std::size_t n_shards =
        static_cast<std::size_t>((cfg.dice + cfg.shard_size - 1) /
                                 cfg.shard_size);

    for (std::size_t kill_at = 0; kill_at < n_shards; ++kill_at) {
        TempFile f("population_kill_" + std::to_string(kill_at) + ".ckpt");
        PopulationRuntime rt;
        rt.checkpoint_path = f.path;
        rt.checkpoint_every = 3; // Unflushed tail must recompute bitwise.

        exec::FaultInjector::Config fc;
        fc.seed = 1;
        fc.p_shard_kill = 1.0;
        fc.only_units = {kill_at};
        bool killed = false;
        {
            exec::FaultInjector injector(fc);
            exec::FaultInjector::Scope scope(injector);
            try {
                (void)run_population(cfg, rt);
            } catch (const exec::InjectedKill&) {
                killed = true;
            }
        }
        ASSERT_TRUE(killed) << "shard " << kill_at;

        const auto resumed = run_population(cfg, rt);
        EXPECT_TRUE(results_bitwise_equal(reference, resumed))
            << "killed after shard " << kill_at;
        // checkpoint_every = 3 floors the persisted prefix; whatever
        // survived, the resumed prefix never exceeds the kill point.
        EXPECT_LE(resumed.resumed_dice, (kill_at + 1) * cfg.shard_size);
        // Success with keep_checkpoint unset removes the spool file.
        EXPECT_FALSE(file_exists(f.path));
    }
}

TEST(PopulationEngine, ResumeOfACompletedRunRecomputesNothing) {
    const auto cfg = small_config(128, 32);
    TempFile f("population_done.ckpt");
    PopulationRuntime rt;
    rt.checkpoint_path = f.path;
    rt.keep_checkpoint = true;
    const auto first = run_population(cfg, rt);
    EXPECT_EQ(first.resumed_dice, 0u);
    EXPECT_TRUE(file_exists(f.path));

    const auto again = run_population(cfg, rt);
    EXPECT_EQ(again.resumed_dice, cfg.dice);
    EXPECT_TRUE(results_bitwise_equal(first, again));
}

TEST(PopulationEngine, StaleFingerprintInvalidatesTheCheckpoint) {
    auto cfg = small_config(128, 32);
    TempFile f("population_stale.ckpt");
    PopulationRuntime rt;
    rt.checkpoint_path = f.path;
    rt.keep_checkpoint = true;
    (void)run_population(cfg, rt);

    cfg.seed += 1; // Different study: the old payload must not resume.
    const auto fresh = run_population(cfg, rt);
    EXPECT_EQ(fresh.resumed_dice, 0u);
}

TEST(PopulationEngine, CancelMidRunFlushesAndResumes) {
    const auto cfg = small_config(300, 32);
    const auto reference = run_population(cfg);

    TempFile f("population_cancel.ckpt");
    const exec::CancelToken token = exec::CancelToken::make();
    PopulationRuntime rt;
    rt.checkpoint_path = f.path;
    rt.checkpoint_every = 100; // Only the cancel-path flush persists.
    rt.cancel = token;
    std::size_t shards_seen = 0;
    rt.on_shard = [&](const PopulationProgress& p) {
        shards_seen = p.shard_index;
        if (p.shard_index == 3) token.cancel();
    };

    try {
        (void)run_population(cfg, rt);
        FAIL() << "expected CancelledError";
    } catch (const exec::CancelledError& e) {
        EXPECT_EQ(e.cause, exec::CancelCause::Cancelled);
    }
    EXPECT_EQ(shards_seen, 3u);
    EXPECT_TRUE(file_exists(f.path)); // The cancel path flushed.

    PopulationRuntime resume_rt;
    resume_rt.checkpoint_path = f.path;
    const auto resumed = run_population(cfg, resume_rt);
    EXPECT_EQ(resumed.resumed_dice, 3u * 32u);
    EXPECT_TRUE(results_bitwise_equal(reference, resumed));
}

TEST(PopulationEngine, ProgressIsMonotoneAndComplete) {
    const auto cfg = small_config(200, 64);
    PopulationRuntime rt;
    std::vector<PopulationProgress> seen;
    rt.on_shard = [&](const PopulationProgress& p) { seen.push_back(p); };
    const auto res = run_population(cfg, rt);

    ASSERT_EQ(seen.size(), res.shards);
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i].shard_index, i + 1);
        EXPECT_EQ(seen[i].shard_count, res.shards);
        EXPECT_GT(seen[i].dice_done, prev);
        prev = seen[i].dice_done;
        EXPECT_EQ(seen[i].metrics.size(),
                  static_cast<std::size_t>(kMetricCount));
    }
    EXPECT_EQ(seen.back().dice_done, cfg.dice);
    EXPECT_EQ(seen.back().yield_fresh, res.yield_fresh);
}

TEST(PopulationEngine, AgingKnobDoesNotPerturbVariationDraws) {
    // The per-die draw-order contract: toggling the aging spread only
    // changes aged metrics; fresh metrics stay bitwise identical.
    auto cfg = small_config();
    cfg.mismatch = {0.0, 0.0};
    auto aged = cfg;
    aged.aging.rate_sigma_ln = 0.5;

    const DieEvaluator a(cfg);
    const DieEvaluator b(aged);
    for (std::uint64_t die : {0u, 7u, 63u}) {
        const auto va = a.evaluate(die);
        const auto vb = b.evaluate(die);
        EXPECT_EQ(va[static_cast<int>(Metric::FreshMaxAbsErrC)],
                  vb[static_cast<int>(Metric::FreshMaxAbsErrC)]);
        EXPECT_EQ(va[static_cast<int>(Metric::PeriodAtRefNs)],
                  vb[static_cast<int>(Metric::PeriodAtRefNs)]);
        EXPECT_EQ(va[static_cast<int>(Metric::GainCPerCode)],
                  vb[static_cast<int>(Metric::GainCPerCode)]);
    }
}

TEST(PopulationEngine, ValidateNamesTheField) {
    auto cfg = small_config();
    cfg.quantiles = {0.0};
    try {
        validate(cfg);
        FAIL() << "expected rejection";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("quantiles"), std::string::npos);
    }
}

TEST(PopulationEngine, DefaultConfigValidates) {
    EXPECT_NO_THROW(validate(PopulationConfig{}));
}

TEST(PopulationEngine, RejectionsNameTheOffendingField) {
    const auto expect_rejects = [](const PopulationConfig& cfg,
                                   const std::string& field) {
        try {
            validate(cfg);
            FAIL() << "expected rejection naming '" << field << "'";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                << "message: " << e.what();
        }
    };
    PopulationConfig cfg;
    cfg.dice = 0;
    expect_rejects(cfg, "dice");
    cfg.dice = 20'000'000;
    expect_rejects(cfg, "dice");
    cfg = {};
    cfg.shard_size = 0;
    expect_rejects(cfg, "shard_size");
    cfg = {};
    cfg.quantiles = {0.5, 1.5};
    expect_rejects(cfg, "quantiles");
    cfg = {};
    cfg.cal_low_c = 100.0;
    cfg.cal_high_c = 0.0;
    cfg.cal_one_point_c = 50.0;
    expect_rejects(cfg, "cal_low_c");
    cfg = {};
    cfg.yield_limit_c = 0.0;
    expect_rejects(cfg, "yield_limit_c");
    cfg = {};
    cfg.test_temps_c = {};
    expect_rejects(cfg, "test_temps_c");
    cfg = {};
    cfg.horizon_hours = -1.0;
    expect_rejects(cfg, "horizon_hours");
    cfg = {};
    cfg.variation.vth_sigma = -0.01;
    expect_rejects(cfg, "vth_sigma");
    cfg = {};
    cfg.aging.vth_drift_v = -0.01;
    expect_rejects(cfg, "vth_drift_v");
}

TEST(PopulationEngine, FingerprintIsStableAndSeedSensitive) {
    PopulationConfig cfg;
    cfg.dice = 1000;
    cfg.seed = 1;
    const auto a = population_fingerprint(cfg);
    EXPECT_EQ(population_fingerprint(cfg), a);
    cfg.seed = 2;
    EXPECT_NE(population_fingerprint(cfg), a);
    // Shard boundaries are resume state, so sharding is part of the key.
    cfg.seed = 1;
    cfg.shard_size = 123;
    EXPECT_NE(population_fingerprint(cfg), a);
}

TEST(PopulationEngine, AnalyticFingerprintsKeepTheirValues) {
    // Checkpoint keys outlive a build. The default study, and the
    // population bench's quick study (BENCH_population.json's
    // fingerprint).
    EXPECT_EQ(population_fingerprint(PopulationConfig{}), 0x15f6396bec8382d2ULL);
    PopulationConfig bench;
    bench.dice = 10000;
    bench.seed = 20260808;
    bench.variation.vth_sigma = 0.015;
    bench.variation.kp_rel_sigma = 0.04;
    bench.variation.vdd_rel_sigma = 0.005;
    bench.mismatch = {0.01, 0.004};
    bench.aging.vth_drift_v = 0.0008;
    bench.aging.drive_degradation_rel = 0.0015;
    bench.aging.rate_sigma_ln = 0.2;
    EXPECT_EQ(population_fingerprint(bench), 0x756cb5caca31c85aULL);
}

TEST(PopulationEngine, SpiceFingerprintSeesEveryOptionThatShapesThePeriod) {
    // Each of these moves a SPICE period's bits, so a checkpoint written
    // under one value must not resume into a run under another.
    PopulationConfig base;
    base.engine = ring::Engine::Spice;
    const auto fp = population_fingerprint(base);
    PopulationConfig cfg = base;
    cfg.spice.kernel.reuse_lu = !base.spice.kernel.reuse_lu;
    EXPECT_NE(population_fingerprint(cfg), fp) << "kernel.reuse_lu";
    cfg = base;
    cfg.spice.kernel.bypass_tol_v = base.spice.kernel.bypass_tol_v + 1e-4;
    EXPECT_NE(population_fingerprint(cfg), fp) << "kernel.bypass_tol_v";
    cfg = base;
    cfg.spice.max_wall_ms = base.spice.max_wall_ms + 1000.0;
    EXPECT_NE(population_fingerprint(cfg), fp) << "max_wall_ms";
    cfg = base;
    cfg.spice.max_total_newton_iters = base.spice.max_total_newton_iters + 100000;
    EXPECT_NE(population_fingerprint(cfg), fp) << "max_total_newton_iters";
}

TEST(PopulationEngine, SpiceStudyRunsEndToEnd) {
    PopulationConfig cfg;
    cfg.ring = ring::RingConfig::uniform(cells::CellKind::Inv, 5);
    cfg.test_temps_c = {0.0, 50.0, 100.0};
    cfg.dice = 2;
    cfg.shard_size = 2;
    cfg.engine = ring::Engine::Spice;
    cfg.spice = ring::SpiceRingOptions::fast();
    const auto fallback0 = counter_value("population.spice_fallback");
    const auto spice = run_population(cfg);
    EXPECT_EQ(counter_value("population.spice_fallback"), fallback0);
    EXPECT_EQ(spice.dice, 2u);
    EXPECT_EQ(spice.shards, 1u);
    for (const auto& m : spice.metrics) {
        EXPECT_EQ(m.count, 2u) << m.name;
        EXPECT_TRUE(std::isfinite(m.mean) && std::isfinite(m.min) &&
                    std::isfinite(m.max))
            << m.name;
    }

    cfg.engine = ring::Engine::Analytic;
    const auto analytic = run_population(cfg);
    const auto ref = static_cast<std::size_t>(Metric::PeriodAtRefNs);
    EXPECT_NE(spice.metrics[ref].mean, analytic.metrics[ref].mean);
}

TEST(PopulationEngine, CalibrationPolicyStrings) {
    EXPECT_EQ(calibration_policy_from_string("golden"),
              CalibrationPolicy::Golden);
    EXPECT_EQ(calibration_policy_from_string("one_point"),
              CalibrationPolicy::OnePoint);
    EXPECT_EQ(calibration_policy_from_string("two_point"),
              CalibrationPolicy::TwoPoint);
    EXPECT_THROW(calibration_policy_from_string("bogus"),
                 std::invalid_argument);
    EXPECT_STREQ(to_string(CalibrationPolicy::Golden), "golden");
}

TEST(PopulationEngine, KeptCheckpointHoldsOneRowAfterAnyNumberOfShards) {
    // The state after shard s already holds shards 0..s: the file keeps
    // the header and the newest state only, however far the run got.
    const auto cfg = small_config(200, 32); // 7 shards.
    TempFile f("population_one_row.ckpt");
    PopulationRuntime rt;
    rt.checkpoint_path = f.path;
    rt.keep_checkpoint = true;
    std::vector<std::size_t> lines;
    rt.on_shard = [&](const PopulationProgress&) {
        lines.push_back(line_count(f.path));
    };
    const auto res = run_population(cfg, rt);
    ASSERT_EQ(lines.size(), res.shards);
    for (std::size_t s = 0; s < lines.size(); ++s) {
        EXPECT_EQ(lines[s], 2u) << "after shard " << s;
    }
    EXPECT_EQ(line_count(f.path), 2u);
}

TEST(PopulationEngine, MultiRowCheckpointLayoutIsIgnoredAsStale) {
    // A checkpoint in the earlier layout — one row per shard, n_points
    // = shard count — fails the header check and resumes nothing.
    const auto cfg = small_config(200, 32); // 7 shards.
    const auto reference = run_population(cfg);
    const std::uint64_t fp = population_fingerprint(cfg);
    const std::size_t n_shards = reference.shards;
    const std::size_t width = state_size(cfg);

    TempFile current("population_layout_now.ckpt");
    TempFile old_layout("population_layout_old.ckpt");
    exec::Checkpoint old(old_layout.path, fp, n_shards, width);
    old.set_flush_every(0);
    PopulationRuntime writer;
    writer.checkpoint_path = current.path;
    writer.keep_checkpoint = true;
    std::size_t shard = 0;
    writer.on_shard = [&](const PopulationProgress&) {
        // Copy each shard's state into the row the old layout gave it.
        exec::Checkpoint now(current.path, fp, 1, width);
        ASSERT_EQ(now.load(), 1u);
        old.record(shard++, now.values(0));
    };
    (void)run_population(cfg, writer);
    old.flush();
    ASSERT_EQ(line_count(old_layout.path), 1 + n_shards);

    const auto stale_before = counter_value("exec.checkpoint.stale_files");
    PopulationRuntime rt;
    rt.checkpoint_path = old_layout.path;
    const auto resumed = run_population(cfg, rt);
    EXPECT_EQ(counter_value("exec.checkpoint.stale_files"), stale_before + 1);
    EXPECT_EQ(resumed.resumed_dice, 0u);
    EXPECT_TRUE(results_bitwise_equal(reference, resumed));
}

TEST(PopulationEngine, RestoredDiceCountOutsideTheStudyIsRejected) {
    // The checkpoint is outside input: a checksummed state whose dice
    // count is off a shard boundary, past the population, or not a
    // count at all is discarded, counted, and the run starts fresh.
    const auto cfg = small_config(200, 32);
    const auto reference = run_population(cfg);
    const std::uint64_t fp = population_fingerprint(cfg);
    const std::size_t width = state_size(cfg);

    TempFile f("population_crafted.ckpt");
    std::vector<double> state;
    {
        PopulationRuntime rt;
        rt.checkpoint_path = f.path;
        rt.keep_checkpoint = true;
        (void)run_population(cfg, rt);
        exec::Checkpoint kept(f.path, fp, 1, width);
        ASSERT_EQ(kept.load(), 1u);
        const auto v = kept.values(0);
        state.assign(v.begin(), v.end());
        ASSERT_EQ(state[2], static_cast<double>(cfg.dice));
    }

    for (double done : {33.0, 64.5, 224.0, 0.0, -32.0,
                        std::numeric_limits<double>::quiet_NaN()}) {
        state[2] = done;
        exec::Checkpoint crafted(f.path, fp, 1, width);
        crafted.record(0, state);
        crafted.flush();

        const auto rejected_before =
            counter_value("population.rejected_checkpoints");
        PopulationRuntime rt;
        rt.checkpoint_path = f.path;
        const auto res = run_population(cfg, rt);
        EXPECT_EQ(counter_value("population.rejected_checkpoints"),
                  rejected_before + 1)
            << "dice_done " << done;
        EXPECT_EQ(res.resumed_dice, 0u) << "dice_done " << done;
        EXPECT_TRUE(results_bitwise_equal(reference, res))
            << "dice_done " << done;
    }
}

TEST(PopulationEngine, TornPopulationFlushResumesFromZero) {
    // The trade-off of keeping one row: a torn write of it leaves no
    // earlier shard to fall back on, so the resume starts at die 0 —
    // and still lands on the uninterrupted result bitwise.
    const auto cfg = small_config(200, 32);
    const auto reference = run_population(cfg);
    TempFile f("population_torn.ckpt");
    PopulationRuntime rt;
    rt.checkpoint_path = f.path;
    rt.checkpoint_every = 1;

    exec::FaultInjector::Config fc;
    fc.seed = 1;
    fc.p_ckpt_truncate = 1.0; // Every flush is torn.
    fc.p_shard_kill = 1.0;
    fc.only_units = {4};
    bool killed = false;
    {
        exec::FaultInjector injector(fc);
        exec::FaultInjector::Scope scope(injector);
        try {
            (void)run_population(cfg, rt);
        } catch (const exec::InjectedKill&) {
            killed = true;
        }
    }
    ASSERT_TRUE(killed);
    ASSERT_TRUE(file_exists(f.path));

    const auto resumed = run_population(cfg, rt);
    EXPECT_EQ(resumed.resumed_dice, 0u);
    EXPECT_TRUE(results_bitwise_equal(reference, resumed));
}

TEST(PopulationEngine, PopulationMcDiceMatchGoldenBits) {
    // The benchmark's population_mc study (seed 1). The hex bits were
    // taken before the analytic model formed mobility once per device
    // card and before die periods were memoized: neither may move one.
    PopulationConfig cfg;
    cfg.dice = 100000;
    cfg.shard_size = 1024;
    cfg.seed = 1;
    cfg.variation.vth_sigma = 0.015;
    cfg.variation.kp_rel_sigma = 0.04;
    cfg.variation.vdd_rel_sigma = 0.005;
    cfg.mismatch = {0.01, 0.004};
    cfg.aging.vth_drift_v = 0.0008;
    cfg.aging.drive_degradation_rel = 0.0015;
    cfg.aging.rate_sigma_ln = 0.2;
    cfg.horizon_hours = 10000.0;
    cfg.yield_limit_c = 1.0;

    struct Golden {
        std::uint64_t die;
        std::array<std::uint64_t, kMetricCount> bits;
    };
    const Golden golden[] = {
        {0, {0x3fee68c000000000ULL, 0x3fdd38da235d1dfaULL, 0x3ff3480000000000ULL,
             0x3ff3551000000000ULL, 0x3fe66c45ef95df3fULL, 0x3fa077e3acab9991ULL}},
        {1, {0x3fef704000000000ULL, 0x3fdf155f4674ea77ULL, 0x3ff56e8000000000ULL,
             0x3ff5b3d000000000ULL, 0x3fe55f8a32db2ec4ULL, 0x3fa15b1e5f75270dULL}},
        {1023, {0x3fed41e000000000ULL, 0x3fdb6324e2357d63ULL, 0x3ffdd05000000000ULL,
                0x3ffd4a5000000000ULL, 0x3fe5fc7b8de40e87ULL, 0x3fa0bb6610bb6611ULL}},
        {1024, {0x3fe947c000000000ULL, 0x3fd823be8b6d4e09ULL, 0x40007c0800000000ULL,
                0x400033b000000000ULL, 0x3fe53bb3171ef4dbULL, 0x3fa138bed0e614d7ULL}},
        {54321, {0x3ff0da6000000000ULL, 0x3fe091d42ec75e09ULL, 0x3ff913c000000000ULL,
                 0x3ff9278000000000ULL, 0x3fe66df1bb9bbb79ULL, 0x3fa09e3403a7ecb9ULL}},
        {99999, {0x3fec4b2000000000ULL, 0x3fdac60ae1704e3aULL, 0x3fff1d7000000000ULL,
                 0x3ffe6f8000000000ULL, 0x3fe5ed05c3dfc201ULL, 0x3fa0be333bc5bc06ULL}},
    };
    const DieEvaluator eval(cfg);
    for (const Golden& g : golden) {
        const auto v = eval.evaluate(g.die);
        for (int m = 0; m < kMetricCount; ++m) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(v[m]), g.bits[m])
                << "die " << g.die << ", " << to_string(static_cast<Metric>(m));
        }
    }
}

} // namespace
} // namespace stsense::population
