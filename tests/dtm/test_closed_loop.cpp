#include "dtm/closed_loop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace stsense::dtm {
namespace {

using cells::CellKind;

ring::RingConfig sensor_ring() {
    return ring::RingConfig::uniform(CellKind::Inv, 5, 2.75);
}

ClosedLoopConfig fast_config() {
    ClosedLoopConfig c;
    c.grid_nx = 16;
    c.grid_ny = 16;
    c.t_end_s = 2.0;
    c.dt_s = 1e-2;
    c.sample_interval_s = 2e-2;
    c.policy.trip_c = 110.0;
    c.policy.release_c = 100.0;
    c.policy.throttle_factor = 0.4;
    c.sensor_site = {"hotspot", 2.5e-3, 7.0e-3};
    return c;
}

ClosedLoopResult run(const ClosedLoopConfig& cfg) {
    return ClosedLoopSim(phys::cmos350(), sensor_ring(),
                         thermal::demo_floorplan(), cfg)
        .run();
}

TEST(ClosedLoop, WithoutDtmDieOverheats) {
    ClosedLoopConfig cfg = fast_config();
    cfg.dtm_enabled = false;
    const auto r = run(cfg);
    EXPECT_GT(r.peak_c, cfg.policy.trip_c + 5.0);
    EXPECT_DOUBLE_EQ(r.avg_power_factor, 1.0);
    EXPECT_EQ(r.throttle_transitions, 0);
}

TEST(ClosedLoop, DtmCapsThePeak) {
    ClosedLoopConfig cfg = fast_config();
    const auto with_dtm = run(cfg);
    cfg.dtm_enabled = false;
    const auto without = run(cfg);

    EXPECT_LT(with_dtm.peak_c, without.peak_c - 3.0);
    EXPECT_LT(with_dtm.avg_power_factor, 1.0);
    EXPECT_GE(with_dtm.throttle_transitions, 1);
    EXPECT_LT(with_dtm.time_above_trip_s, without.time_above_trip_s);
}

TEST(ClosedLoop, TraceIsWellFormed) {
    const auto r = run(fast_config());
    ASSERT_FALSE(r.trace.empty());
    EXPECT_EQ(r.trace.size(), 200u); // 2 s / 10 ms.
    for (std::size_t i = 1; i < r.trace.size(); ++i) {
        EXPECT_GT(r.trace[i].time_s, r.trace[i - 1].time_s);
        EXPECT_GE(r.trace[i].peak_c, r.trace[i].sensor_true_c - 1e-9);
        EXPECT_GT(r.trace[i].total_power_w, 0.0);
    }
    // Peak field matches the trace maximum.
    double max_peak = 0.0;
    for (const auto& s : r.trace) max_peak = std::max(max_peak, s.peak_c);
    EXPECT_DOUBLE_EQ(r.peak_c, max_peak);
}

TEST(ClosedLoop, ThrottleActuallyCutsPower) {
    const auto r = run(fast_config());
    double p_full = 0.0;
    double p_throttled = 1e9;
    for (const auto& s : r.trace) {
        if (s.power_factor == 1.0) p_full = std::max(p_full, s.total_power_w);
        if (s.power_factor < 1.0) p_throttled = std::min(p_throttled, s.total_power_w);
    }
    EXPECT_GT(p_full, p_throttled + 5.0);
}

TEST(ClosedLoop, SlowerSamplingMeansMoreOvershoot) {
    ClosedLoopConfig fast_sampling = fast_config();
    fast_sampling.sample_interval_s = 2e-2;
    ClosedLoopConfig slow_sampling = fast_config();
    slow_sampling.sample_interval_s = 5e-1;

    const auto fast_r = run(fast_sampling);
    const auto slow_r = run(slow_sampling);
    EXPECT_GT(slow_r.peak_c, fast_r.peak_c);
}

TEST(ClosedLoop, MeasuredTracksTrueAtTheSite) {
    const auto r = run(fast_config());
    // The reading is held between samples while the bang-bang loop
    // swings the die by tens of degrees, so instantaneous lag of several
    // degrees is expected and correct; it must stay bounded by the
    // inter-sample thermal swing, and the *time-averaged* reading must
    // be unbiased.
    double sum_diff = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 20; i < r.trace.size(); ++i) {
        EXPECT_NEAR(r.trace[i].measured_c, r.trace[i].sensor_true_c, 20.0)
            << "t=" << r.trace[i].time_s;
        sum_diff += r.trace[i].measured_c - r.trace[i].sensor_true_c;
        ++n;
    }
    EXPECT_NEAR(sum_diff / static_cast<double>(n), 0.0, 2.0);
}

TEST(ClosedLoop, ConfigValidation) {
    ClosedLoopConfig cfg = fast_config();
    cfg.sensor_site.x = 1.0; // Off a 10 mm die.
    EXPECT_THROW(ClosedLoopSim(phys::cmos350(), sensor_ring(),
                               thermal::demo_floorplan(), cfg),
                 std::invalid_argument);

    cfg = fast_config();
    cfg.dt_s = 0.0;
    EXPECT_THROW(ClosedLoopSim(phys::cmos350(), sensor_ring(),
                               thermal::demo_floorplan(), cfg),
                 std::invalid_argument);

    cfg = fast_config();
    cfg.policy.release_c = cfg.policy.trip_c; // No hysteresis.
    EXPECT_THROW(ClosedLoopSim(phys::cmos350(), sensor_ring(),
                               thermal::demo_floorplan(), cfg),
                 std::invalid_argument);
}

TEST(ClosedLoop, NonFiniteTimesAndSitesRejectedBeforeRunning) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    auto expect_rejected = [](const ClosedLoopConfig& cfg, const char* what) {
        EXPECT_THROW(ClosedLoopSim(phys::cmos350(), sensor_ring(),
                                   thermal::demo_floorplan(), cfg),
                     std::invalid_argument)
            << what;
    };
    ClosedLoopConfig cfg = fast_config();
    cfg.sample_interval_s = nan; // Used to sample once, then never again.
    expect_rejected(cfg, "sample_interval_s NaN");
    cfg.sample_interval_s = inf;
    expect_rejected(cfg, "sample_interval_s inf");
    for (double t_end : {nan, inf}) {
        cfg = fast_config();
        cfg.t_end_s = t_end; // Used to cast a non-finite step count to long.
        expect_rejected(cfg, "t_end_s");
    }
    cfg = fast_config();
    cfg.dt_s = nan;
    expect_rejected(cfg, "dt_s NaN");
    cfg.dt_s = 1e-300; // t_end_s / dt_s does not fit a long.
    expect_rejected(cfg, "dt_s 1e-300");
    cfg = fast_config();
    cfg.sensor_site.x = nan;
    expect_rejected(cfg, "site.x NaN");
    cfg = fast_config();
    cfg.sensor_site.y = nan;
    expect_rejected(cfg, "site.y NaN");
}

TEST(ClosedLoop, EmptyThrottleListThrottlesEverything) {
    ClosedLoopConfig cfg = fast_config();
    cfg.throttleable_blocks.clear(); // All blocks.
    const auto all = run(cfg);
    cfg = fast_config(); // Only core + fpu.
    const auto some = run(cfg);
    // Throttling everything removes more power -> cooler peak.
    EXPECT_LE(all.peak_c, some.peak_c + 1e-9);
}

} // namespace
} // namespace stsense::dtm
