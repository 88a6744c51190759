// Per-point FaultPolicy semantics of ring::temperature_sweep under
// deterministic point-fault injection, the fault-free bitwise contract,
// and graceful partial-sweep consumption by the optimizer and monitor.
#include "ring/sweep.hpp"

#include "exec/fault_injector.hpp"
#include "exec/result_cache.hpp"
#include "phys/units.hpp"
#include "ring/analytic.hpp"
#include "sensor/monitor.hpp"
#include "sensor/optimizer.hpp"
#include "thermal/floorplan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace stsense::ring {
namespace {

using cells::CellKind;

exec::FaultInjector::Config point_faults(double p, std::uint64_t seed = 11) {
    exec::FaultInjector::Config cfg;
    cfg.seed = seed;
    cfg.p_point = p;
    return cfg;
}

SweepRuntime runtime_with(FaultPolicy policy) {
    SweepRuntime rt;
    rt.fault.policy = policy;
    return rt;
}

/// Seed chosen so ~10% of the 17 paper-grid points trip at attempt 0
/// (the deterministic draw gives at least one, not all).
constexpr std::uint64_t kSeed = 11;

struct SweepFaultPolicy : ::testing::Test {
    phys::Technology tech = phys::cmos350();
    RingConfig cfg = RingConfig::uniform(CellKind::Inv, 5, 2.75);

    SweepResult clean() {
        return paper_sweep(tech, cfg, Engine::Analytic, {}, SweepRuntime::serial());
    }

    /// Indices the injector kills on the first attempt.
    std::vector<std::size_t> tripped_points(const exec::FaultInjector& inj,
                                            std::size_t n) {
        std::vector<std::size_t> out;
        for (std::size_t i = 0; i < n; ++i) {
            if (inj.trip(exec::FaultInjector::Site::Point,
                         exec::FaultInjector::point_stream(i))) {
                out.push_back(i);
            }
        }
        return out;
    }
};

TEST_F(SweepFaultPolicy, FaultFreeRunIsBitwiseIdenticalToSerial) {
    const auto serial = clean();
    SweepRuntime parallel;
    parallel.use_cache = false;
    const auto par = paper_sweep(tech, cfg, Engine::Analytic, {}, parallel);
    ASSERT_EQ(par.period_s.size(), serial.period_s.size());
    for (std::size_t i = 0; i < serial.period_s.size(); ++i) {
        EXPECT_EQ(par.period_s[i], serial.period_s[i]);       // Bitwise.
        EXPECT_EQ(par.frequency_hz[i], serial.frequency_hz[i]);
        EXPECT_EQ(par.status[i], PointStatus::Ok);
    }
}

TEST_F(SweepFaultPolicy, PropagateRethrowsTheFirstFailure) {
    exec::FaultInjector inj(point_faults(0.1, kSeed));
    exec::FaultInjector::Scope scope(inj);
    ASSERT_FALSE(tripped_points(inj, 17).empty()) << "seed draws no faults";
    EXPECT_THROW(paper_sweep(tech, cfg, Engine::Analytic, {},
                             runtime_with(FaultPolicy::Propagate)),
                 spice::SimException);
}

TEST_F(SweepFaultPolicy, SkipYieldsNaNHolesAtExactlyTheTrippedPoints) {
    const auto reference = clean(); // Before the injector installs.
    exec::FaultInjector inj(point_faults(0.1, kSeed));
    exec::FaultInjector::Scope scope(inj);
    const auto sweep = paper_sweep(tech, cfg, Engine::Analytic, {},
                                   runtime_with(FaultPolicy::Skip));
    const auto tripped = tripped_points(inj, sweep.temps_c.size());
    ASSERT_FALSE(tripped.empty());
    EXPECT_EQ(sweep.count(PointStatus::Skipped), tripped.size());
    EXPECT_EQ(sweep.valid_points(), sweep.temps_c.size() - tripped.size());
    EXPECT_FALSE(sweep.complete());
    std::size_t t = 0;
    for (std::size_t i = 0; i < sweep.temps_c.size(); ++i) {
        if (t < tripped.size() && tripped[t] == i) {
            EXPECT_TRUE(std::isnan(sweep.period_s[i]));
            EXPECT_EQ(sweep.status[i], PointStatus::Skipped);
            ++t;
        } else {
            EXPECT_EQ(sweep.period_s[i], reference.period_s[i]);
            EXPECT_EQ(sweep.status[i], PointStatus::Ok);
        }
    }
}

TEST_F(SweepFaultPolicy, SkipOutcomeIsIndependentOfParallelism) {
    auto run = [&](bool parallel) {
        exec::FaultInjector inj(point_faults(0.1, kSeed));
        exec::FaultInjector::Scope scope(inj);
        SweepRuntime rt = runtime_with(FaultPolicy::Skip);
        rt.parallel = parallel;
        return paper_sweep(tech, cfg, Engine::Analytic, {}, rt);
    };
    const auto serial = run(false);
    const auto parallel = run(true);
    ASSERT_EQ(serial.status.size(), parallel.status.size());
    for (std::size_t i = 0; i < serial.status.size(); ++i) {
        EXPECT_EQ(serial.status[i], parallel.status[i]);
        if (serial.status[i] == PointStatus::Ok) {
            EXPECT_EQ(serial.period_s[i], parallel.period_s[i]);
        }
    }
}

TEST_F(SweepFaultPolicy, RetryCompletesTransientFaults) {
    // Faults are transient (each attempt is a fresh draw at p = 0.1), so
    // retrying completes the series and marks the rescued points.
    const auto reference = clean(); // Before the injector installs.
    exec::FaultInjector inj(point_faults(0.1, kSeed));
    exec::FaultInjector::Scope scope(inj);
    const auto sweep = paper_sweep(tech, cfg, Engine::Analytic, {},
                                   runtime_with(FaultPolicy::Retry));
    EXPECT_TRUE(sweep.complete());
    EXPECT_GT(sweep.count(PointStatus::RecoveredRetry), 0u);
    for (std::size_t i = 0; i < sweep.period_s.size(); ++i) {
        EXPECT_EQ(sweep.period_s[i], reference.period_s[i]);
    }
}

TEST_F(SweepFaultPolicy, RetryExhaustionFailsThePoint) {
    // p = 1: every attempt of every point trips; retries cannot help.
    exec::FaultInjector inj(point_faults(1.0));
    exec::FaultInjector::Scope scope(inj);
    const auto sweep = paper_sweep(tech, cfg, Engine::Analytic, {},
                                   runtime_with(FaultPolicy::Retry));
    EXPECT_EQ(sweep.count(PointStatus::Failed), sweep.temps_c.size());
    EXPECT_EQ(sweep.valid_points(), 0u);
    for (double p : sweep.period_s) EXPECT_TRUE(std::isnan(p));
}

TEST_F(SweepFaultPolicy, FallbackSubstitutesTheAnalyticModel) {
    const auto reference = clean(); // Before the injector installs.
    exec::FaultInjector inj(point_faults(0.1, kSeed));
    exec::FaultInjector::Scope scope(inj);
    const auto sweep = paper_sweep(tech, cfg, Engine::Analytic, {},
                                   runtime_with(FaultPolicy::FallbackToAnalytic));
    EXPECT_TRUE(sweep.complete());
    EXPECT_GT(sweep.count(PointStatus::FallbackAnalytic), 0u);
    // The attempted engine IS the analytic model here, so the fallback
    // values coincide with the fault-free series — only statuses differ.
    for (std::size_t i = 0; i < sweep.period_s.size(); ++i) {
        EXPECT_EQ(sweep.period_s[i], reference.period_s[i]);
    }
}

TEST_F(SweepFaultPolicy, SpiceEngineFallsBackToAnalyticOnHardFaults) {
    // p = 1 point faults: every SPICE evaluation dies before the solver
    // runs; the fallback series must be the analytic one.
    exec::FaultInjector inj(point_faults(1.0));
    exec::FaultInjector::Scope scope(inj);
    const std::vector<double> grid{-50.0, 50.0, 150.0};
    SweepRuntime rt = runtime_with(FaultPolicy::FallbackToAnalytic);
    const auto sweep = temperature_sweep(tech, cfg, grid, Engine::Spice, {}, rt);
    EXPECT_EQ(sweep.count(PointStatus::FallbackAnalytic), grid.size());
    const AnalyticRingModel analytic(tech, cfg);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(sweep.period_s[i],
                  analytic.period(phys::celsius_to_kelvin(grid[i])));
    }
}

TEST_F(SweepFaultPolicy, CacheIsBypassedWhileInjectorInstalled) {
    exec::ResultCache cache;
    SweepRuntime rt = runtime_with(FaultPolicy::Skip);
    rt.cache = &cache;
    {
        exec::FaultInjector inj(point_faults(0.1, kSeed));
        exec::FaultInjector::Scope scope(inj);
        (void)paper_sweep(tech, cfg, Engine::Analytic, {}, rt);
    }
    EXPECT_EQ(cache.stats().entries, 0u) << "injected outcomes were memoized";
    // Without the injector the same runtime memoizes (statuses included).
    const auto cold = paper_sweep(tech, cfg, Engine::Analytic, {}, rt);
    const auto warm = paper_sweep(tech, cfg, Engine::Analytic, {}, rt);
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    ASSERT_EQ(warm.status.size(), cold.status.size());
    for (std::size_t i = 0; i < warm.status.size(); ++i) {
        EXPECT_EQ(warm.status[i], PointStatus::Ok);
    }
}

TEST_F(SweepFaultPolicy, FingerprintSeparatesFaultPolicies) {
    const auto grid = paper_temperature_grid_c();
    FaultPolicySpec skip;
    skip.policy = FaultPolicy::Skip;
    FaultPolicySpec fallback;
    fallback.policy = FaultPolicy::FallbackToAnalytic;
    FaultPolicySpec retry2;
    retry2.policy = FaultPolicy::Retry;
    FaultPolicySpec retry5 = retry2;
    retry5.max_retries = 5;
    const auto base = sweep_fingerprint(tech, cfg, grid, Engine::Analytic);
    EXPECT_NE(sweep_fingerprint(tech, cfg, grid, Engine::Analytic, {}, skip), base);
    EXPECT_NE(sweep_fingerprint(tech, cfg, grid, Engine::Analytic, {}, fallback),
              sweep_fingerprint(tech, cfg, grid, Engine::Analytic, {}, skip));
    EXPECT_NE(sweep_fingerprint(tech, cfg, grid, Engine::Analytic, {}, retry2),
              sweep_fingerprint(tech, cfg, grid, Engine::Analytic, {}, retry5));
}

TEST_F(SweepFaultPolicy, PointStatusNamesAreStable) {
    EXPECT_STREQ(to_string(PointStatus::Ok), "ok");
    EXPECT_STREQ(to_string(PointStatus::RecoveredRetry), "recovered-retry");
    EXPECT_STREQ(to_string(PointStatus::FallbackAnalytic), "fallback-analytic");
    EXPECT_STREQ(to_string(PointStatus::Skipped), "skipped");
    EXPECT_STREQ(to_string(PointStatus::Failed), "failed");
}

TEST_F(SweepFaultPolicy, OptimizerRanksPartialSweeps) {
    // Skip policy under injection: candidate sweeps lose ~10% of their
    // points, and the ranking must still come out (finite NL from the
    // valid points).
    exec::FaultInjector inj(point_faults(0.1, kSeed));
    exec::FaultInjector::Scope scope(inj);
    sensor::OptimizerRuntime skip;
    skip.fault.policy = FaultPolicy::Skip;
    const std::vector<double> ratios{1.5, 2.0, 2.5, 3.0};
    const auto points = sensor::ratio_sweep(tech, CellKind::Inv, 5, ratios, skip);
    ASSERT_EQ(points.size(), ratios.size());
    for (const auto& p : points) {
        EXPECT_TRUE(std::isfinite(p.max_nl_percent)) << "ratio " << p.ratio;
    }
}

TEST_F(SweepFaultPolicy, OptimizerRanksUnmeasurableCandidatesLast) {
    // p = 1 with Skip: no candidate keeps 3 valid points, so every NL is
    // +infinity — ranked, not thrown.
    exec::FaultInjector inj(point_faults(1.0));
    exec::FaultInjector::Scope scope(inj);
    sensor::OptimizerRuntime skip;
    skip.fault.policy = FaultPolicy::Skip;
    const std::vector<double> ratios{2.0, 3.0};
    const auto points = sensor::ratio_sweep(tech, CellKind::Inv, 5, ratios, skip);
    ASSERT_EQ(points.size(), 2u);
    for (const auto& p : points) {
        EXPECT_TRUE(std::isinf(p.max_nl_percent));
    }
}

TEST_F(SweepFaultPolicy, MonitorExcludesDeadSitesFromStatistics) {
    const auto fp = thermal::demo_floorplan();
    auto sites = sensor::uniform_sites(fp, 3, 3);
    sensor::MonitorConfig mon_cfg;
    mon_cfg.grid_nx = 24;
    mon_cfg.grid_ny = 24;
    sensor::ThermalMonitor monitor(tech, cfg, fp, sites, mon_cfg);

    const auto clean_map = monitor.scan();
    EXPECT_EQ(clean_map.invalid_sites, 0u);

    exec::FaultInjector inj(point_faults(0.3, kSeed));
    exec::FaultInjector::Scope scope(inj);
    const auto map = monitor.scan();
    ASSERT_GT(map.invalid_sites, 0u);
    ASSERT_LT(map.invalid_sites, map.sites.size());
    std::size_t invalid_seen = 0;
    for (const auto& s : map.sites) {
        if (!s.valid) {
            EXPECT_TRUE(std::isnan(s.measured_c));
            EXPECT_TRUE(std::isnan(s.error_c));
            ++invalid_seen;
        } else {
            EXPECT_TRUE(std::isfinite(s.measured_c));
        }
    }
    EXPECT_EQ(invalid_seen, map.invalid_sites);
    // Statistics cover the surviving sites and stay finite.
    EXPECT_TRUE(std::isfinite(map.max_abs_error_c));
    EXPECT_TRUE(std::isfinite(map.rms_error_c));
}

} // namespace
} // namespace stsense::ring
