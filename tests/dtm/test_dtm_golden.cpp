// DtmFleetGolden / ClosedLoopGolden — the closed loops pinned to digests
// captured from the tick-per-cycle smart unit, the lexicographic SOR
// sweep and the pool-fanned site transduction. The fleet is the one a
// default service session builds for `dtm_run` (24x24 grid, 0.75 s).
#include "dtm/closed_loop.hpp"
#include "dtm/fleet.hpp"
#include "service/session.hpp"

#include "golden.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace stsense::dtm {
namespace {

using golden::digest;

DtmFleet session_fleet(bool supervised) {
    const service::SessionSpec spec;
    const auto layout = fleet_layout_from_floorplan(spec.floorplan);
    sensor::MonitorConfig mc = spec.monitor;
    mc.grid_nx = 24;
    mc.grid_ny = 24;
    const auto options = ControlOptions()
                             .target(95.0)
                             .trip(110.0)
                             .duration(0.75)
                             .supervised(supervised);
    return DtmFleet(spec.tech, spec.ring, spec.floorplan, layout.regions,
                    layout.sites, mc, options);
}

/// Every FleetStep field, step by step, then the run's aggregates.
std::vector<double> run_values(const FleetResult& res) {
    std::vector<double> v;
    for (const auto& s : res.steps) {
        v.push_back(s.t_s);
        v.push_back(s.die_peak_c);
        for (const auto* series : {&s.u, &s.u_achieved, &s.true_c,
                                   &s.measured_c, &s.predicted_c, &s.trust}) {
            v.insert(v.end(), series->begin(), series->end());
        }
        for (const auto state : s.state) v.push_back(static_cast<double>(state));
    }
    v.push_back(res.die_peak_c);
    v.push_back(res.settling_time_s);
    v.push_back(res.max_overshoot_c);
    v.push_back(static_cast<double>(res.fault_latches));
    v.push_back(static_cast<double>(res.tune_solves));
    return v;
}

TEST(DtmFleetGolden, TuneProducts) {
    auto fleet = session_fleet(true);
    fleet.tune();
    std::vector<double> v;
    for (std::size_t r = 0; r < fleet.region_count(); ++r) {
        const auto& m = fleet.model(r);
        const auto& g = fleet.gains(r);
        v.insert(v.end(), {m.gain_c, m.tau_s, m.dead_time_s, m.valid ? 1.0 : 0.0,
                           g.kp, g.ki, g.kd});
        for (std::size_t q = 0; q < fleet.region_count(); ++q) {
            v.push_back(fleet.static_gain(r, q));
        }
    }
    EXPECT_EQ(digest(v), "93a1dc8d009a8ece");
}

TEST(DtmFleetGolden, SupervisedRun) {
    auto fleet = session_fleet(true);
    const auto res = fleet.run();
    EXPECT_EQ(res.steps.size(), 38u);
    EXPECT_EQ(digest(run_values(res)), "3f2ef4b5d81c2962");
}

TEST(DtmFleetGolden, RawRun) {
    // Fault-free supervision only observes, so the unsupervised run has
    // the supervised run's digest.
    auto fleet = session_fleet(false);
    const auto res = fleet.run();
    EXPECT_EQ(digest(run_values(res)), "3f2ef4b5d81c2962");
}

TEST(ClosedLoopGolden, HysteresisThrottleRun) {
    ClosedLoopConfig cfg;
    cfg.t_end_s = 1.0;
    cfg.policy.throttle_factor = 0.4;
    const auto res = ClosedLoopSim(phys::cmos350(),
                                   ring::RingConfig::uniform(cells::CellKind::Inv, 5, 2.75),
                                   thermal::demo_floorplan(), cfg)
                         .run();
    std::vector<double> v;
    for (const auto& s : res.trace) {
        v.insert(v.end(), {s.time_s, s.peak_c, s.sensor_true_c, s.measured_c,
                           s.power_factor, s.total_power_w});
    }
    v.insert(v.end(), {res.peak_c, res.time_above_trip_s, res.avg_power_factor,
                       static_cast<double>(res.throttle_transitions)});
    EXPECT_EQ(digest(v), "6b081f6a87630e52");
}

} // namespace
} // namespace stsense::dtm
