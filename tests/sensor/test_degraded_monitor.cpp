// Degraded-mode readout of the ThermalMonitor: injected hardware faults
// (stuck oscillators, drifted rings, dead readouts) must never wedge a
// scan or poison the map — faulty sites are voted down, interpolated
// from their neighbors, and walked down the health ladder.
#include "sensor/monitor.hpp"

#include "exec/fault_injector.hpp"
#include "exec/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace stsense::sensor {
namespace {

using cells::CellKind;

ring::RingConfig sensor_ring() {
    return ring::RingConfig::uniform(CellKind::Inv, 5, 2.75);
}

MonitorConfig resilient_config(int redundancy = 1) {
    MonitorConfig c;
    c.grid_nx = 24;
    c.grid_ny = 24;
    c.enable_health = true;
    c.redundancy = redundancy;
    return c;
}

ThermalMonitor make_monitor(const MonitorConfig& cfg) {
    const auto fp = thermal::demo_floorplan();
    return ThermalMonitor(phys::cmos350(), sensor_ring(), fp,
                          uniform_sites(fp, 3, 3), cfg);
}

TEST(DegradedMonitor, ValidatesConfig) {
    const auto fp = thermal::demo_floorplan();
    const auto sites = uniform_sites(fp, 3, 3);
    MonitorConfig cfg = resilient_config();
    cfg.redundancy = 0;
    EXPECT_THROW(ThermalMonitor(phys::cmos350(), sensor_ring(), fp, sites, cfg),
                 std::invalid_argument);
    cfg = resilient_config(29); // 9 sites x 29 replicas > 256 channels.
    EXPECT_THROW(ThermalMonitor(phys::cmos350(), sensor_ring(), fp, sites, cfg),
                 std::invalid_argument);
}

TEST(DegradedMonitor, RejectsHealthConfigsThatReadNoSite) {
    // A MonitorConfig is the only route to the health config, so the
    // monitor refuses what the supervisor refuses: either config would
    // build a monitor whose scan measures 0 of 9 sites.
    const auto fp = thermal::demo_floorplan();
    const auto sites = uniform_sites(fp, 3, 3);
    MonitorConfig cfg = resilient_config();
    cfg.health.quorum_tol_c = std::nan("");
    EXPECT_THROW(ThermalMonitor(phys::cmos350(), sensor_ring(), fp, sites, cfg),
                 std::invalid_argument);
    cfg = resilient_config();
    cfg.health.temp_min_c = 200.0;
    cfg.health.temp_max_c = 100.0;
    EXPECT_THROW(ThermalMonitor(phys::cmos350(), sensor_ring(), fp, sites, cfg),
                 std::invalid_argument);
    // A finite margin whose watchdog deadline is past 2^63 ref cycles:
    // its cast to an integer deadline is undefined.
    cfg = resilient_config();
    cfg.health.watchdog_margin = 1e300;
    EXPECT_THROW(ThermalMonitor(phys::cmos350(), sensor_ring(), fp, sites, cfg),
                 std::invalid_argument);
    // With supervision off the health config is never read.
    cfg.enable_health = false;
    EXPECT_NO_THROW(
        ThermalMonitor(phys::cmos350(), sensor_ring(), fp, sites, cfg));
}

TEST(DegradedMonitor, FaultFreeScanMatchesLegacyPath) {
    MonitorConfig legacy;
    legacy.grid_nx = 24;
    legacy.grid_ny = 24;
    const auto base = make_monitor(legacy).scan();
    const auto res = make_monitor(resilient_config()).scan();

    ASSERT_EQ(res.sites.size(), base.sites.size());
    for (std::size_t i = 0; i < base.sites.size(); ++i) {
        EXPECT_DOUBLE_EQ(res.sites[i].measured_c, base.sites[i].measured_c)
            << base.sites[i].name;
        EXPECT_EQ(res.sites[i].code, base.sites[i].code);
        EXPECT_EQ(res.sites[i].health, SiteState::Healthy);
        EXPECT_EQ(res.sites[i].confidence, SiteConfidence::Measured);
    }
    EXPECT_DOUBLE_EQ(res.max_abs_error_c, base.max_abs_error_c);
    EXPECT_EQ(res.invalid_sites, 0u);
    EXPECT_EQ(res.interpolated_sites, 0u);
    EXPECT_EQ(res.degraded_sites, 0u);
    EXPECT_EQ(res.watchdog_trips, 0u);
    EXPECT_EQ(res.readout_retries, 0u);
}

TEST(DegradedMonitor, NanPeriodSiteIsInterpolatedAndQuarantined) {
    // Ring 4 (the center site) stops oscillating: a NaN drift offset
    // plants a non-finite period every scan, like real dead silicon.
    exec::FaultInjector::Config fc;
    fc.p_drift_site = 1.0;
    fc.drift_offset_c = std::numeric_limits<double>::quiet_NaN();
    fc.only_units = {4};
    exec::FaultInjector inj(fc);
    exec::FaultInjector::Scope scope(inj);

    auto mon = make_monitor(resilient_config());
    const auto map = mon.scan();

    ASSERT_EQ(map.sites.size(), 9u);
    for (const auto& r : map.sites) {
        EXPECT_TRUE(r.valid) << r.name; // The map has no holes.
        EXPECT_TRUE(std::isfinite(r.measured_c)) << r.name;
    }
    const auto& center = map.sites[4];
    EXPECT_EQ(center.confidence, SiteConfidence::Interpolated);
    EXPECT_EQ(center.health, SiteState::Degraded);
    EXPECT_NEAR(center.measured_c, center.true_c, 15.0);
    EXPECT_EQ(map.interpolated_sites, 1u);
    EXPECT_EQ(map.degraded_sites, 1u);
    EXPECT_GT(map.max_interp_error_c, 0.0);
    EXPECT_LT(map.max_interp_error_c, 15.0);
    // Everyone else measures directly and accurately.
    EXPECT_LT(map.max_abs_error_c, 0.5);

    // The fault is persistent: three strikes quarantine the site, and a
    // quarantined site still shows up in the map — interpolated.
    (void)mon.scan();
    const auto third = mon.scan();
    EXPECT_EQ(mon.health().state(4), SiteState::Quarantined);
    EXPECT_EQ(third.quarantined_sites, 1u);
    EXPECT_EQ(third.sites[4].confidence, SiteConfidence::Interpolated);
    EXPECT_TRUE(third.sites[4].valid);

    // In-backoff scans skip the site entirely but keep mapping it.
    const auto fourth = mon.scan();
    EXPECT_EQ(fourth.sites[4].confidence, SiteConfidence::Interpolated);
    EXPECT_TRUE(fourth.sites[4].valid);
}

TEST(DegradedMonitor, StuckZoneTripsWatchdogAndDiesMapStaysComplete) {
    // All three replicas of the center site (global rings 12..14 at
    // redundancy 3) are stuck slow: the watchdog must abort each
    // measurement instead of letting the gated count run ~10^4x long.
    exec::FaultInjector::Config fc;
    fc.p_stuck_osc = 1.0;
    fc.only_units = {12, 13, 14};
    exec::FaultInjector inj(fc);
    exec::FaultInjector::Scope scope(inj);

    MonitorConfig cfg = resilient_config(3);
    // Tight ladder so the site is provably Dead within a short test.
    cfg.health.degraded_after = 1;
    cfg.health.quarantine_after = 2;
    cfg.health.dead_after = 3;
    cfg.health.backoff_base_scans = 1;
    auto mon = make_monitor(cfg);

    const auto first = mon.scan();
    EXPECT_GE(first.watchdog_trips, 3u); // One abort per stuck replica.
    EXPECT_EQ(first.sites[4].health, SiteState::Degraded);
    EXPECT_EQ(first.sites[4].confidence, SiteConfidence::Interpolated);

    (void)mon.scan();
    const auto third = mon.scan();
    EXPECT_EQ(mon.health().state(4), SiteState::Dead);
    EXPECT_EQ(third.dead_sites, 1u);
    EXPECT_EQ(mon.health().record(4).last_fault, SiteFault::Stuck);

    // A dead site never wedges or empties the map.
    const auto after = mon.scan();
    EXPECT_EQ(after.watchdog_trips, 0u); // Dead: not probed at all.
    ASSERT_EQ(after.sites.size(), 9u);
    for (const auto& r : after.sites) EXPECT_TRUE(r.valid) << r.name;
    EXPECT_EQ(after.sites[4].confidence, SiteConfidence::Interpolated);
    EXPECT_LT(after.max_abs_error_c, 0.5);
}

TEST(DegradedMonitor, QuorumVoteRejectsSingleDriftedReplica) {
    // One of the center site's three replicas reads 25 degC hot. The
    // 2-of-3 quorum must outvote it and keep the site trusted.
    exec::FaultInjector::Config fc;
    fc.p_drift_site = 1.0;
    fc.drift_offset_c = 25.0;
    fc.only_units = {13};
    exec::FaultInjector inj(fc);
    exec::FaultInjector::Scope scope(inj);

    auto mon = make_monitor(resilient_config(3));
    const auto map = mon.scan();

    const auto& center = map.sites[4];
    EXPECT_EQ(center.confidence, SiteConfidence::Voted);
    EXPECT_EQ(center.rings_total, 3);
    EXPECT_EQ(center.rings_agreeing, 2);
    EXPECT_EQ(center.health, SiteState::Healthy);
    EXPECT_NEAR(center.measured_c, center.true_c, 1.0); // Outvoted.
    EXPECT_EQ(map.interpolated_sites, 0u);
    EXPECT_EQ(map.degraded_sites, 0u);
}

TEST(DegradedMonitor, QuorumDisagreementFallsBackToInterpolation) {
    // Redundancy 2 cannot outvote a drifted replica: the two rings
    // disagree by 25 degC, no majority forms, and the site must be
    // rejected (Quorum fault) rather than averaged into a lie.
    exec::FaultInjector::Config fc;
    fc.p_drift_site = 1.0;
    fc.drift_offset_c = 25.0;
    fc.only_units = {9}; // Second replica of site 4 at redundancy 2.
    exec::FaultInjector inj(fc);
    exec::FaultInjector::Scope scope(inj);

    auto mon = make_monitor(resilient_config(2));
    const auto map = mon.scan();

    const auto& center = map.sites[4];
    EXPECT_EQ(center.rings_agreeing, 0);
    EXPECT_EQ(center.confidence, SiteConfidence::Interpolated);
    EXPECT_EQ(center.health, SiteState::Degraded);
    EXPECT_EQ(mon.health().record(4).last_fault, SiteFault::Quorum);
    EXPECT_TRUE(center.valid);
    // The interpolated value ignores the drifted ring: nowhere near the
    // naive average (true + 12.5).
    EXPECT_LT(std::abs(center.measured_c - center.true_c), 12.0);
}

TEST(DegradedMonitor, TotalFleetLossYieldsUnavailableNotACrash) {
    // Every readout of every ring fails on every attempt. There is
    // nothing left to interpolate from — the scan must still return,
    // reporting every site Unavailable.
    exec::FaultInjector::Config fc;
    fc.p_point = 1.0;
    exec::FaultInjector inj(fc);
    exec::FaultInjector::Scope scope(inj);

    auto mon = make_monitor(resilient_config());
    const auto map = mon.scan();

    ASSERT_EQ(map.sites.size(), 9u);
    for (const auto& r : map.sites) {
        EXPECT_FALSE(r.valid) << r.name;
        EXPECT_EQ(r.confidence, SiteConfidence::Unavailable) << r.name;
        EXPECT_TRUE(std::isnan(r.measured_c)) << r.name;
    }
    EXPECT_EQ(map.invalid_sites, 9u);
    // Each ring burned its retry budget: max_retries counted per ring.
    EXPECT_EQ(map.readout_retries,
              9u * static_cast<std::uint64_t>(
                       resilient_config().health.max_retries));
    EXPECT_DOUBLE_EQ(map.rms_error_c, 0.0);
}

TEST(DegradedMonitor, ScanPublishesSiteMetrics) {
    auto& mx = exec::MetricsRegistry::global();
    const auto scans0 = mx.counter("sensor.site.scans").value();
    const auto faults0 = mx.counter("sensor.site.faults").value();
    const auto interp0 = mx.counter("sensor.site.interpolated").value();

    exec::FaultInjector::Config fc;
    fc.p_drift_site = 1.0;
    fc.drift_offset_c = std::numeric_limits<double>::quiet_NaN();
    fc.only_units = {4};
    exec::FaultInjector inj(fc);
    exec::FaultInjector::Scope scope(inj);

    auto mon = make_monitor(resilient_config());
    (void)mon.scan();

    EXPECT_EQ(mx.counter("sensor.site.scans").value(), scans0 + 1);
    EXPECT_EQ(mx.counter("sensor.site.faults").value(), faults0 + 1);
    EXPECT_EQ(mx.counter("sensor.site.interpolated").value(), interp0 + 1);
    EXPECT_DOUBLE_EQ(mx.gauge("sensor.site.healthy").value(), 8.0);
    EXPECT_DOUBLE_EQ(mx.gauge("sensor.site.degraded").value(), 1.0);
    EXPECT_DOUBLE_EQ(mx.gauge("sensor.site.quarantined").value(), 0.0);
    EXPECT_DOUBLE_EQ(mx.gauge("sensor.site.dead").value(), 0.0);
}

} // namespace
} // namespace stsense::sensor
