#include "ring/sweep.hpp"

#include "analysis/nonlinearity.hpp"
#include "exec/result_cache.hpp"
#include "util/sequence.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace stsense::ring {
namespace {

using cells::CellKind;

TEST(TemperatureSweep, AnalyticSeriesShapes) {
    const auto tech = phys::cmos350();
    const auto cfg = RingConfig::uniform(CellKind::Inv, 5);
    const auto grid = paper_temperature_grid_c();
    const auto sw = temperature_sweep(tech, cfg, grid);
    ASSERT_EQ(sw.temps_c.size(), grid.size());
    ASSERT_EQ(sw.period_s.size(), grid.size());
    ASSERT_EQ(sw.frequency_hz.size(), grid.size());
    for (std::size_t i = 1; i < sw.period_s.size(); ++i) {
        EXPECT_GT(sw.period_s[i], sw.period_s[i - 1]);
        EXPECT_LT(sw.frequency_hz[i], sw.frequency_hz[i - 1]);
    }
}

TEST(TemperatureSweep, PeriodNearlyLinearInTemperature) {
    const auto tech = phys::cmos350();
    const auto cfg = RingConfig::uniform(CellKind::Inv, 5, 2.75);
    const auto sw = paper_sweep(tech, cfg);
    const double nl = analysis::max_nonlinearity_percent(sw.temps_c, sw.period_s);
    EXPECT_LT(nl, 0.5);
}

TEST(TemperatureSweep, SpiceEngineTracksAnalyticShape) {
    const auto tech = phys::cmos350();
    const auto cfg = RingConfig::uniform(CellKind::Inv, 5, 2.5);
    const std::vector<double> grid{-50.0, 50.0, 150.0};

    SpiceRingOptions opt;
    opt.skip_cycles = 2;
    opt.measure_cycles = 4;
    opt.steps_per_period = 150;

    const auto spice = temperature_sweep(tech, cfg, grid, Engine::Spice, opt);
    const auto analytic = temperature_sweep(tech, cfg, grid, Engine::Analytic);

    // Same relative span (sensitivity), within a few percent.
    const double span_spice = spice.period_s.back() / spice.period_s.front();
    const double span_analytic = analytic.period_s.back() / analytic.period_s.front();
    EXPECT_NEAR(span_spice, span_analytic, 0.15 * span_analytic);
}

TEST(TemperatureSweep, EmptyGridThrows) {
    const auto tech = phys::cmos350();
    const auto cfg = RingConfig::uniform(CellKind::Inv, 5);
    EXPECT_THROW(temperature_sweep(tech, cfg, std::vector<double>{}),
                 std::invalid_argument);
}

TEST(TemperatureSweep, NonIncreasingGridThrows) {
    const auto tech = phys::cmos350();
    const auto cfg = RingConfig::uniform(CellKind::Inv, 5);
    const std::vector<double> bad{0.0, 0.0, 10.0};
    EXPECT_THROW(temperature_sweep(tech, cfg, bad), std::invalid_argument);
}

TEST(TemperatureSweep, NanInGridThrows) {
    const auto tech = phys::cmos350();
    const auto cfg = RingConfig::uniform(CellKind::Inv, 5);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    // NaN both mid-grid and first (a NaN front would defeat a
    // comparison-only monotonicity check, since NaN compares false).
    const std::vector<double> mid{0.0, nan, 10.0};
    const std::vector<double> front{nan, 0.0, 10.0};
    EXPECT_THROW(temperature_sweep(tech, cfg, mid), std::invalid_argument);
    EXPECT_THROW(temperature_sweep(tech, cfg, front), std::invalid_argument);
}

TEST(TemperatureSweep, GridErrorNamesOffendingIndexAndValue) {
    const auto tech = phys::cmos350();
    const auto cfg = RingConfig::uniform(CellKind::Inv, 5);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    try {
        temperature_sweep(tech, cfg, std::vector<double>{0.0, nan, 10.0});
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("index 1"), std::string::npos) << what;
        EXPECT_NE(what.find("NaN/Inf"), std::string::npos) << what;
    }
    try {
        temperature_sweep(tech, cfg, std::vector<double>{0.0, 10.0, 5.0});
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("temps_c[2]"), std::string::npos) << what;
        EXPECT_NE(what.find("5.0"), std::string::npos) << what;
        EXPECT_NE(what.find("10.0"), std::string::npos) << what;
    }
}

TEST(TemperatureSweep, InfInGridThrows) {
    const auto tech = phys::cmos350();
    const auto cfg = RingConfig::uniform(CellKind::Inv, 5);
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<double> pos{0.0, 10.0, inf};
    const std::vector<double> neg{-inf, 0.0, 10.0};
    EXPECT_THROW(temperature_sweep(tech, cfg, pos), std::invalid_argument);
    EXPECT_THROW(temperature_sweep(tech, cfg, neg), std::invalid_argument);
}

TEST(TemperatureSweep, CachedRunMatchesUncachedRun) {
    const auto tech = phys::cmos350();
    const auto cfg = RingConfig::uniform(CellKind::Inv, 5, 2.75);
    const auto uncached = paper_sweep(tech, cfg, Engine::Analytic, {},
                                      SweepRuntime::serial());
    exec::ResultCache cache;
    SweepRuntime rt;
    rt.cache = &cache;
    const auto cold = paper_sweep(tech, cfg, Engine::Analytic, {}, rt);
    const auto warm = paper_sweep(tech, cfg, Engine::Analytic, {}, rt);
    for (std::size_t i = 0; i < uncached.period_s.size(); ++i) {
        EXPECT_EQ(uncached.period_s[i], cold.period_s[i]);
        EXPECT_EQ(uncached.period_s[i], warm.period_s[i]);
    }
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(TemperatureSweep, FingerprintKeepsItsValue) {
    // Sweep cache and checkpoint keys outlive a build: a refactor of the
    // hash must not move them. Values captured before (technology, ring)
    // and the SPICE options got one shared hash.
    const auto tech = phys::cmos350();
    const auto cfg = RingConfig::uniform(CellKind::Inv, 13);
    const auto grid = paper_temperature_grid_c();
    EXPECT_EQ(sweep_fingerprint(tech, cfg, grid, Engine::Analytic),
              0xefb7eb9d4cac98c9ULL);
    EXPECT_EQ(sweep_fingerprint(tech, cfg, grid, Engine::Spice),
              0x55fc9ae3064c9e38ULL);
}

TEST(Engine, NamesRoundTrip) {
    for (const Engine e : {Engine::Analytic, Engine::Spice}) {
        EXPECT_EQ(engine_from_string(to_string(e)), e);
    }
    EXPECT_STREQ(to_string(Engine::Analytic), "analytic");
    EXPECT_STREQ(to_string(Engine::Spice), "spice");
    EXPECT_THROW(engine_from_string("Spice"), std::invalid_argument);
    EXPECT_THROW(engine_from_string(""), std::invalid_argument);
}

TEST(PaperSweep, UsesPaperGrid) {
    const auto tech = phys::cmos350();
    const auto cfg = RingConfig::uniform(CellKind::Inv, 5);
    const auto sw = paper_sweep(tech, cfg);
    EXPECT_EQ(sw.temps_c.size(), 17u);
    EXPECT_DOUBLE_EQ(sw.temps_c.front(), -50.0);
}

} // namespace
} // namespace stsense::ring
