#include "sensor/site_health.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace stsense::sensor {
namespace {

SiteHealthConfig fast_policy() {
    SiteHealthConfig c;
    c.degraded_after = 1;
    c.quarantine_after = 3;
    c.dead_after = 8;
    c.recover_after = 2;
    c.backoff_base_scans = 2;
    c.backoff_max_scans = 16;
    return c;
}

TEST(SiteHealth, ValidatesConfig) {
    SiteHealthConfig c = fast_policy();
    c.degraded_after = 0;
    EXPECT_THROW(SiteHealthSupervisor(c, 4), std::invalid_argument);

    c = fast_policy();
    c.quarantine_after = c.dead_after + 1; // Disordered thresholds.
    EXPECT_THROW(SiteHealthSupervisor(c, 4), std::invalid_argument);

    c = fast_policy();
    c.recover_after = 0;
    EXPECT_THROW(SiteHealthSupervisor(c, 4), std::invalid_argument);

    c = fast_policy();
    c.max_retries = -1;
    EXPECT_THROW(SiteHealthSupervisor(c, 4), std::invalid_argument);

    c = fast_policy();
    c.backoff_max_scans = c.backoff_base_scans - 1;
    EXPECT_THROW(SiteHealthSupervisor(c, 4), std::invalid_argument);

    SiteHealthSupervisor ok(fast_policy(), 4);
    EXPECT_EQ(ok.size(), 4u);
    EXPECT_THROW(ok.state(4), std::out_of_range);
}

TEST(SiteHealth, RejectsConfigsTheResilientScanCannotUse) {
    // Each of these breaks the resilient scan: a NaN quorum tolerance or
    // an inverted band reads no site, a NaN mad_k turns the drift
    // self-test off, and a NaN or negative watchdog margin reaches an
    // out-of-range float-to-int cast.
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<std::pair<const char*,
                                std::function<void(SiteHealthConfig&)>>>
        cases = {
            {"inverted band",
             [](SiteHealthConfig& c) {
                 c.temp_min_c = 200.0;
                 c.temp_max_c = 100.0;
             }},
            {"empty band",
             [](SiteHealthConfig& c) { c.temp_min_c = c.temp_max_c; }},
            {"NaN temp_min_c", [&](SiteHealthConfig& c) { c.temp_min_c = nan; }},
            {"NaN temp_max_c", [&](SiteHealthConfig& c) { c.temp_max_c = nan; }},
            {"infinite temp_max_c",
             [&](SiteHealthConfig& c) { c.temp_max_c = inf; }},
            {"NaN quorum_tol_c",
             [&](SiteHealthConfig& c) { c.quorum_tol_c = nan; }},
            {"negative quorum_tol_c",
             [](SiteHealthConfig& c) { c.quorum_tol_c = -1.0; }},
            {"infinite quorum_tol_c",
             [&](SiteHealthConfig& c) { c.quorum_tol_c = inf; }},
            {"NaN mad_floor_c", [&](SiteHealthConfig& c) { c.mad_floor_c = nan; }},
            {"negative mad_floor_c",
             [](SiteHealthConfig& c) { c.mad_floor_c = -0.5; }},
            {"NaN mad_k", [&](SiteHealthConfig& c) { c.mad_k = nan; }},
            {"zero mad_k", [](SiteHealthConfig& c) { c.mad_k = 0.0; }},
            {"infinite mad_k", [&](SiteHealthConfig& c) { c.mad_k = inf; }},
            {"NaN watchdog_margin",
             [&](SiteHealthConfig& c) { c.watchdog_margin = nan; }},
            {"negative watchdog_margin",
             [](SiteHealthConfig& c) { c.watchdog_margin = -4.0; }},
            {"zero watchdog_margin",
             [](SiteHealthConfig& c) { c.watchdog_margin = 0.0; }},
            {"infinite watchdog_margin",
             [&](SiteHealthConfig& c) { c.watchdog_margin = inf; }},
        };
    for (const auto& [what, mutate] : cases) {
        SiteHealthConfig c = fast_policy();
        mutate(c);
        EXPECT_THROW(SiteHealthSupervisor(c, 4), std::invalid_argument) << what;
    }
    // The boundaries that stay legal: a zero tolerance and a zero floor.
    SiteHealthConfig edge = fast_policy();
    edge.quorum_tol_c = 0.0;
    edge.mad_floor_c = 0.0;
    EXPECT_NO_THROW(SiteHealthSupervisor(edge, 4));
}

TEST(SiteHealth, StrikesWalkTheLadderDown) {
    SiteHealthSupervisor sup(fast_policy(), 2);

    EXPECT_EQ(sup.state(0), SiteState::Healthy);
    sup.begin_scan();
    sup.record_fault(0, SiteFault::Readout);
    EXPECT_EQ(sup.state(0), SiteState::Degraded);
    EXPECT_EQ(sup.record(0).last_fault, SiteFault::Readout);

    sup.begin_scan();
    sup.record_fault(0, SiteFault::NonFinite);
    EXPECT_EQ(sup.state(0), SiteState::Degraded); // 2 strikes: not yet.
    sup.begin_scan();
    sup.record_fault(0, SiteFault::Drift);
    EXPECT_EQ(sup.state(0), SiteState::Quarantined); // 3rd strike.

    // The other site is untouched.
    EXPECT_EQ(sup.state(1), SiteState::Healthy);
    const auto counts = sup.state_counts();
    EXPECT_EQ(counts[static_cast<int>(SiteState::Healthy)], 1u);
    EXPECT_EQ(counts[static_cast<int>(SiteState::Quarantined)], 1u);
}

TEST(SiteHealth, QuarantineBacksOffExponentiallyAndDeathIsTerminal) {
    SiteHealthSupervisor sup(fast_policy(), 1);

    // Three straight faulted scans: quarantined with the base interval.
    for (int i = 0; i < 3; ++i) {
        sup.begin_scan();
        ASSERT_TRUE(sup.should_probe(0));
        sup.record_fault(0, SiteFault::Stuck);
    }
    ASSERT_EQ(sup.state(0), SiteState::Quarantined);
    EXPECT_EQ(sup.record(0).backoff_scans, 2);

    // The next backoff_scans-1 epochs skip the site entirely.
    sup.begin_scan();
    EXPECT_FALSE(sup.should_probe(0));
    sup.begin_scan();
    EXPECT_TRUE(sup.should_probe(0)); // Probe epoch reached.

    // Failing the probe doubles the interval: 2 -> 4 -> 8 -> 16 -> 16.
    sup.record_fault(0, SiteFault::Stuck);
    EXPECT_EQ(sup.record(0).backoff_scans, 4);
    for (int i = 0; i < 4; ++i) sup.begin_scan();
    ASSERT_TRUE(sup.should_probe(0));
    sup.record_fault(0, SiteFault::Stuck);
    EXPECT_EQ(sup.record(0).backoff_scans, 8);

    // Strikes 6..8 finish the ladder; 8 == dead_after is terminal.
    for (int i = 0; i < 8; ++i) sup.begin_scan();
    sup.record_fault(0, SiteFault::Stuck);
    sup.record_fault(0, SiteFault::Stuck);
    sup.record_fault(0, SiteFault::Stuck);
    EXPECT_EQ(sup.state(0), SiteState::Dead);
    EXPECT_FALSE(sup.should_probe(0));

    // Dead ignores both further faults and successes.
    sup.record_success(0);
    sup.record_fault(0, SiteFault::Readout);
    EXPECT_EQ(sup.state(0), SiteState::Dead);
    EXPECT_EQ(sup.record(0).strikes, 8);
}

TEST(SiteHealth, RecoveryClimbsOneLevelPerCleanStreak) {
    SiteHealthSupervisor sup(fast_policy(), 1);

    for (int i = 0; i < 3; ++i) {
        sup.begin_scan();
        sup.record_fault(0, SiteFault::Quorum);
    }
    ASSERT_EQ(sup.state(0), SiteState::Quarantined);

    // One clean probe is not enough (recover_after = 2) ...
    sup.record_success(0);
    EXPECT_EQ(sup.state(0), SiteState::Quarantined);
    // ... two are: climb to Degraded with that level's strike budget,
    // and the backoff schedule resets.
    sup.record_success(0);
    EXPECT_EQ(sup.state(0), SiteState::Degraded);
    EXPECT_EQ(sup.record(0).strikes, 1); // == degraded_after
    EXPECT_EQ(sup.record(0).backoff_scans, 0);
    sup.begin_scan();
    EXPECT_TRUE(sup.should_probe(0));

    // Another clean streak reaches Healthy with zero strikes — the site
    // is NOT one strike from quarantine forever.
    sup.record_success(0);
    sup.record_success(0);
    EXPECT_EQ(sup.state(0), SiteState::Healthy);
    EXPECT_EQ(sup.record(0).strikes, 0);

    // A fault mid-streak resets the clean counter.
    sup.begin_scan();
    sup.record_fault(0, SiteFault::Drift);
    ASSERT_EQ(sup.state(0), SiteState::Degraded);
    sup.record_success(0);
    sup.record_fault(0, SiteFault::Drift);
    sup.record_success(0);
    EXPECT_EQ(sup.state(0), SiteState::Degraded); // Streak restarted.
}

TEST(SiteHealth, MedianOf) {
    EXPECT_TRUE(std::isnan(median_of({})));
    EXPECT_DOUBLE_EQ(median_of({3.0}), 3.0);
    EXPECT_DOUBLE_EQ(median_of({5.0, 1.0, 3.0}), 3.0);
    EXPECT_DOUBLE_EQ(median_of({4.0, 1.0}), 2.5); // Even: middle-pair mean.
    EXPECT_DOUBLE_EQ(median_of({1.0, 100.0, 2.0, 3.0, 2.5}), 2.5); // Robust.
}

TEST(SiteHealth, IdwPredict) {
    EXPECT_THROW(idw_predict({0.0}, {}, {1.0}, 0.0, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(idw_predict({0.0}, {0.0}, {1.0}, 0.0, 0.0, 0),
                 std::invalid_argument);
    EXPECT_TRUE(std::isnan(idw_predict({}, {}, {}, 0.0, 0.0)));

    // Coincident support point wins outright.
    EXPECT_DOUBLE_EQ(idw_predict({1e-3, 2e-3}, {0.0, 0.0}, {40.0, 90.0},
                                 1e-3, 0.0),
                     40.0);

    // Midpoint of two equidistant supports: plain average.
    EXPECT_DOUBLE_EQ(idw_predict({0.0, 2e-3}, {0.0, 0.0}, {20.0, 40.0},
                                 1e-3, 0.0),
                     30.0);

    // k limits the support: the far point (value 1000) is dropped when
    // only the 2 nearest are kept.
    const std::vector<double> xs = {0.0, 2e-3, 50e-3};
    const std::vector<double> ys = {0.0, 0.0, 0.0};
    const std::vector<double> vs = {20.0, 40.0, 1000.0};
    EXPECT_DOUBLE_EQ(idw_predict(xs, ys, vs, 1e-3, 0.0, 2), 30.0);

    // Closer support dominates the weighting.
    const double v = idw_predict({0.0, 10e-3}, {0.0, 0.0}, {20.0, 40.0},
                                 1e-3, 0.0);
    EXPECT_GT(v, 20.0);
    EXPECT_LT(v, 25.0);
}

TEST(SiteHealth, MedianNeighborPredictIsRobustToOneBadSupport) {
    EXPECT_THROW(median_neighbor_predict({0.0}, {}, {1.0}, 0.0, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(median_neighbor_predict({0.0}, {0.0}, {1.0}, 0.0, 0.0, 0),
                 std::invalid_argument);
    EXPECT_TRUE(std::isnan(median_neighbor_predict({}, {}, {}, 0.0, 0.0)));

    // Four nearby supports, one wildly corrupted: the median shrugs it
    // off, while an IDW mean would be dragged tens of degrees.
    const std::vector<double> xs = {1e-3, -1e-3, 0.0, 0.0, 50e-3};
    const std::vector<double> ys = {0.0, 0.0, 1e-3, -1e-3, 0.0};
    const std::vector<double> vs = {40.0, 41.0, 42.0, 500.0, 30.0};
    const double m = median_neighbor_predict(xs, ys, vs, 0.0, 0.0, 4);
    EXPECT_DOUBLE_EQ(m, 41.5); // median of {40, 41, 42, 500}
    // k larger than the support: uses everything.
    EXPECT_DOUBLE_EQ(median_neighbor_predict({0.0}, {0.0}, {7.0}, 1.0, 1.0, 9),
                     7.0);
}

} // namespace
} // namespace stsense::sensor
