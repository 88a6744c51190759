#include "thermal/self_heating.hpp"

#include "cells/cell.hpp"
#include "phys/technology.hpp"
#include "phys/units.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace stsense::thermal {
namespace {

using cells::CellKind;
using ring::RingConfig;

TEST(RingDynamicPower, MilliwattScaleAndTemperatureTrend) {
    const auto tech = phys::cmos350();
    const auto cfg = RingConfig::uniform(CellKind::Inv, 5);
    const double p300 = ring_dynamic_power(tech, cfg, 300.0);
    EXPECT_GT(p300, 1e-4);
    EXPECT_LT(p300, 1e-2);
    // Hotter ring runs slower -> less dynamic power.
    EXPECT_LT(ring_dynamic_power(tech, cfg, 400.0), p300);
}

TEST(RingDynamicPower, MoreStagesMorePower) {
    const auto tech = phys::cmos350();
    const double p5 = ring_dynamic_power(tech, RingConfig::uniform(CellKind::Inv, 5), 300.0);
    const double p21 = ring_dynamic_power(tech, RingConfig::uniform(CellKind::Inv, 21), 300.0);
    // f drops ~21/5 while C rises ~21/5: power is roughly constant,
    // certainly within 2x.
    EXPECT_NEAR(p21 / p5, 1.0, 0.6);
}

TEST(SelfHeating, FixpointSettlesAboveDieTemperature) {
    const auto tech = phys::cmos350();
    const auto cfg = RingConfig::uniform(CellKind::Inv, 5);
    const auto r = solve_self_heating(tech, cfg, 85.0);
    EXPECT_GT(r.junction_c, 85.0);
    EXPECT_NEAR(r.junction_c, 85.0 + r.delta_c, 1e-9);
    EXPECT_GT(r.avg_power_w, 0.0);
    // With r_local = 2000 K/W and ~1.5 mW: a few degrees.
    EXPECT_GT(r.delta_c, 0.5);
    EXPECT_LT(r.delta_c, 10.0);
}

TEST(SelfHeating, DutyCyclingShrinksError) {
    const auto tech = phys::cmos350();
    const auto cfg = RingConfig::uniform(CellKind::Inv, 5);
    SelfHeatingParams p;
    p.duty = 1.0;
    const double full = solve_self_heating(tech, cfg, 85.0, p).delta_c;
    p.duty = 0.1;
    const double tenth = solve_self_heating(tech, cfg, 85.0, p).delta_c;
    p.duty = 0.0;
    const double off = solve_self_heating(tech, cfg, 85.0, p).delta_c;
    EXPECT_LT(tenth, full);
    EXPECT_NEAR(tenth / full, 0.1, 0.03);
    EXPECT_NEAR(off, 0.0, 1e-9);
}

TEST(SelfHeating, ConsistentAcrossDieTemperatures) {
    const auto tech = phys::cmos350();
    const auto cfg = RingConfig::uniform(CellKind::Inv, 5);
    // The rise shrinks slightly at hot die temperatures (slower ring,
    // less power) but stays the same order.
    const double cold = solve_self_heating(tech, cfg, -50.0).delta_c;
    const double hot = solve_self_heating(tech, cfg, 150.0).delta_c;
    EXPECT_GT(cold, hot);
    EXPECT_GT(hot, 0.2);
}

TEST(SelfHeating, InvalidParamsThrow) {
    const auto tech = phys::cmos350();
    const auto cfg = RingConfig::uniform(CellKind::Inv, 5);
    SelfHeatingParams p;
    p.duty = 1.5;
    EXPECT_THROW(solve_self_heating(tech, cfg, 85.0, p), std::invalid_argument);
    p = SelfHeatingParams{};
    p.r_local = -1.0;
    EXPECT_THROW(solve_self_heating(tech, cfg, 85.0, p), std::invalid_argument);
}

TEST(SelfHeating, NonFiniteOrEmptyParamsThrowBeforeIterating) {
    const auto tech = phys::cmos350();
    const auto cfg = RingConfig::uniform(CellKind::Inv, 5);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    auto expect_rejected = [&](const SelfHeatingParams& p, double die_c,
                               const char* what) {
        EXPECT_THROW(solve_self_heating(tech, cfg, die_c, p),
                     std::invalid_argument)
            << what;
    };
    SelfHeatingParams p;
    p.tolerance_k = inf; // Used to "settle" after one iteration.
    expect_rejected(p, 85.0, "tolerance +inf");
    p.tolerance_k = nan;
    expect_rejected(p, 85.0, "tolerance NaN");
    p.tolerance_k = 0.0;
    expect_rejected(p, 85.0, "tolerance 0");
    p = SelfHeatingParams{};
    p.max_iters = 0;
    expect_rejected(p, 85.0, "max_iters 0");
    for (double r : {nan, inf}) {
        p = SelfHeatingParams{};
        p.r_local = r;
        expect_rejected(p, 85.0, "r_local");
    }
    p = SelfHeatingParams{};
    p.duty = nan;
    expect_rejected(p, 85.0, "duty NaN");
    for (double die_c : {nan, inf, -inf}) {
        expect_rejected(SelfHeatingParams{}, die_c, "die temperature");
    }
}

TEST(SelfHeating, PowerMatchesTheOneShotRingPowerBitForBit) {
    // The solve binds the ring once; each iteration's power must be the
    // one-shot ring_dynamic_power at that junction temperature.
    const auto tech = phys::cmos350();
    const auto cfg = RingConfig::uniform(CellKind::Inv, 5);
    SelfHeatingParams p;
    p.duty = 0.5;
    const SelfHeatingResult r = solve_self_heating(tech, cfg, 85.0, p);
    // avg_power_w is the power at the junction temperature before the
    // last update; rerun the fixed point by hand to find it.
    double tj = 85.0;
    double power = 0.0;
    for (int it = 0; it < p.max_iters; ++it) {
        power = p.duty * ring_dynamic_power(tech, cfg, phys::celsius_to_kelvin(tj));
        const double next = 85.0 + p.r_local * power;
        const bool done = std::abs(next - tj) < p.tolerance_k;
        tj = next;
        if (done) break;
    }
    EXPECT_EQ(r.avg_power_w, power);
    EXPECT_EQ(r.junction_c, tj);
}

} // namespace
} // namespace stsense::thermal
