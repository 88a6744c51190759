#include "ring/spice_ring.hpp"

#include "ring/analytic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

namespace stsense::ring {
namespace {

using cells::CellKind;

SpiceRingOptions fast_options() {
    SpiceRingOptions opt;
    opt.skip_cycles = 2;
    opt.measure_cycles = 4;
    opt.steps_per_period = 200;
    return opt;
}

TEST(SpiceRing, OscillatesAndMeasuresStablePeriod) {
    const SpiceRingModel m(phys::cmos350(), RingConfig::uniform(CellKind::Inv, 5, 2.5));
    const auto r = m.simulate(300.0, fast_options());
    EXPECT_GT(r.period, 50e-12);
    EXPECT_LT(r.period, 2e-9);
    EXPECT_GT(r.cycles_measured, 2);
    // Cycle-to-cycle jitter of a noiseless simulation is numerical only.
    EXPECT_LT(r.period_stddev / r.period, 0.02);
    EXPECT_NEAR(r.frequency * r.period, 1.0, 1e-9);
}

TEST(SpiceRing, DutyCycleNearHalfForBalancedInverters) {
    const SpiceRingModel m(phys::cmos350(), RingConfig::uniform(CellKind::Inv, 5, 2.5));
    const auto r = m.simulate(300.0, fast_options());
    EXPECT_GT(r.duty_cycle, 0.35);
    EXPECT_LT(r.duty_cycle, 0.65);
}

TEST(SpiceRing, AgreesWithAnalyticWithinFactorTwo) {
    const auto tech = phys::cmos350();
    const auto cfg = RingConfig::uniform(CellKind::Inv, 5, 2.5);
    const double analytic = AnalyticRingModel(tech, cfg).period(300.0);
    const double spice = SpiceRingModel(tech, cfg).simulate(300.0, fast_options()).period;
    EXPECT_GT(spice / analytic, 0.6);
    EXPECT_LT(spice / analytic, 2.0);
}

TEST(SpiceRing, PeriodIncreasesWithTemperature) {
    const SpiceRingModel m(phys::cmos350(), RingConfig::uniform(CellKind::Inv, 5, 2.5));
    const auto opt = fast_options();
    const double cold = m.simulate(250.0, opt).period;
    const double room = m.simulate(300.0, opt).period;
    const double hot = m.simulate(400.0, opt).period;
    EXPECT_LT(cold, room);
    EXPECT_LT(room, hot);
}

TEST(SpiceRing, WaveformRecordingOptional) {
    const SpiceRingModel m(phys::cmos350(), RingConfig::uniform(CellKind::Inv, 5, 2.5));
    SpiceRingOptions opt = fast_options();
    opt.record_waveform = true;
    EXPECT_FALSE(m.simulate(300.0, opt).waveform.empty());
    opt.record_waveform = false;
    EXPECT_TRUE(m.simulate(300.0, opt).waveform.empty());
}

TEST(SpiceRing, WaveformSwingsRailToRail) {
    const auto tech = phys::cmos350();
    const SpiceRingModel m(tech, RingConfig::uniform(CellKind::Inv, 5, 2.5));
    const auto r = m.simulate(300.0, fast_options());
    double vmin = tech.vdd;
    double vmax = 0.0;
    // Look after startup (second half of the record).
    for (std::size_t i = r.waveform.size() / 2; i < r.waveform.size(); ++i) {
        vmin = std::min(vmin, r.waveform.value[i]);
        vmax = std::max(vmax, r.waveform.value[i]);
    }
    EXPECT_LT(vmin, 0.15 * tech.vdd);
    EXPECT_GT(vmax, 0.85 * tech.vdd);
}

TEST(SpiceRing, MixedCellRingOscillates) {
    const auto cfg = RingConfig::mix({{CellKind::Inv, 2}, {CellKind::Nand2, 3}});
    const SpiceRingModel m(phys::cmos350(), cfg);
    const auto r = m.simulate(300.0, fast_options());
    EXPECT_GT(r.period, 0.0);
}

TEST(SpiceRing, NorRingOscillates) {
    const SpiceRingModel m(phys::cmos350(), RingConfig::uniform(CellKind::Nor2, 5));
    EXPECT_GT(m.simulate(300.0, fast_options()).period, 0.0);
}

TEST(SpiceRing, SupplyPowerCrossChecksAnalyticModel) {
    // The metered Vdd power of the oscillating ring must agree with the
    // C*Vdd^2*f estimate the self-heating model uses.
    const auto tech = phys::cmos350();
    const auto cfg = RingConfig::uniform(CellKind::Inv, 5, 2.5);
    const SpiceRingModel m(tech, cfg);
    const auto r = m.simulate(300.0, fast_options());
    EXPECT_GT(r.avg_supply_power_w, 1e-4);
    EXPECT_LT(r.avg_supply_power_w, 1e-2);
}

TEST(SpiceRing, EarlyExitMatchesFullRunPeriod) {
    const SpiceRingModel m(phys::cmos350(), RingConfig::uniform(CellKind::Inv, 5, 2.5));
    const SpiceRingOptions full = fast_options();
    SpiceRingOptions exits = fast_options();
    exits.early_exit = true;

    const auto r_full = m.simulate(300.0, full);
    const auto r_exit = m.simulate(300.0, exits);

    EXPECT_FALSE(r_full.early_exit);
    ASSERT_TRUE(r_exit.early_exit);
    // The truncated run integrates strictly less simulated time but
    // still banks skip + measure clean cycles...
    EXPECT_LT(r_exit.sim_time_s, r_full.sim_time_s);
    EXPECT_GE(r_exit.cycles_measured, exits.measure_cycles);
    // ...and measures the same period to the 0.05 % kernel gate.
    EXPECT_NEAR(r_exit.period, r_full.period, 5e-4 * r_full.period);
}

TEST(SpiceRing, FastPresetMatchesSeedKernelPeriod) {
    const SpiceRingModel m(phys::cmos350(), RingConfig::uniform(CellKind::Inv, 5, 2.5));
    const SpiceRingOptions seed = fast_options();
    SpiceRingOptions fast = fast_options();
    fast.kernel = spice::TransientOptions::fast();
    fast.early_exit = true;

    const auto r_seed = m.simulate(300.0, seed);
    const auto r_fast = m.simulate(300.0, fast);
    EXPECT_TRUE(r_fast.early_exit);
    EXPECT_NEAR(r_fast.period, r_seed.period, 5e-4 * r_seed.period);
    EXPECT_NEAR(r_fast.duty_cycle, r_seed.duty_cycle, 0.02);
}

TEST(SpiceRing, BadOptionsThrow) {
    const SpiceRingModel m(phys::cmos350(), RingConfig::uniform(CellKind::Inv, 5));
    SpiceRingOptions opt;
    opt.measure_cycles = 0;
    EXPECT_THROW(m.simulate(300.0, opt), std::invalid_argument);
    opt = SpiceRingOptions{};
    opt.steps_per_period = 5;
    EXPECT_THROW(m.simulate(300.0, opt), std::invalid_argument);
}

void expect_non_finite_estimate(const spice::Result<RingSimResult>& r) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().kind, spice::SimErrorKind::NonFiniteState);
    EXPECT_NE(r.error().message.find("period estimate "), std::string::npos)
        << r.error().message;
    EXPECT_NE(r.error().message.find("nan s at"), std::string::npos)
        << r.error().message;
}

TEST(SpiceRing, NonFiniteEstimateIsATypedErrorBeforeAnySimulation) {
    // At 1e300 K the analytic estimate that paces the transient is NaN;
    // dt and t_stop built from it used to reach a float-to-long cast.
    const SpiceRingModel m(phys::cmos350(), RingConfig::uniform(CellKind::Inv, 5));
    const double too_hot = 1e300;
    ASSERT_FALSE(std::isfinite(AnalyticRingModel(phys::cmos350(),
                                                 RingConfig::uniform(CellKind::Inv, 5))
                                   .period(too_hot)));
    expect_non_finite_estimate(m.try_simulate(too_hot, SpiceRingOptions::fast()));
    expect_non_finite_estimate(m.try_simulate(too_hot, fast_options()));
}

TEST(SpiceRing, BatchRefusesOnlyThePointWithANonFiniteEstimate) {
    const SpiceRingModel m(phys::cmos350(), RingConfig::uniform(CellKind::Inv, 5));
    SpiceRingOptions opt = SpiceRingOptions::fast();
    opt.skip_cycles = 2;
    opt.measure_cycles = 4;
    opt.steps_per_period = 200;
    const double temps_k[] = {1e300, 300.0, 1e300};
    const auto rs = m.try_simulate_batch(temps_k, opt);
    ASSERT_EQ(rs.size(), 3u);
    expect_non_finite_estimate(rs[0]);
    expect_non_finite_estimate(rs[2]);
    ASSERT_TRUE(rs[1].ok()) << rs[1].error().to_string();
    const auto solo = m.try_simulate(300.0, opt);
    ASSERT_TRUE(solo.ok());
    EXPECT_EQ(rs[1].value().period, solo.value().period);

    // A batch of only refused points simulates nothing.
    const double hot_only[] = {1e300};
    expect_non_finite_estimate(m.try_simulate_batch(hot_only, opt).at(0));
    // fault_ctx must still match the points.
    const std::uint64_t ctx[] = {1, 2};
    EXPECT_THROW((void)m.try_simulate_batch(temps_k, opt, ctx), std::invalid_argument);
}

} // namespace
} // namespace stsense::ring
