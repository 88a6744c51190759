// MonitorGolden — thermal-map scans pinned to digests captured from the
// tick-per-cycle smart unit, the lexicographic SOR sweep and the
// pool-fanned site transduction: the default service session's monitor
// (legacy scan, 48x48 steady state), per-site calibrated mismatched
// rings, and the resilient scan under injected hardware faults.
#include "sensor/monitor.hpp"

#include "exec/fault_injector.hpp"
#include "service/session.hpp"

#include "golden.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace stsense::sensor {
namespace {

using golden::digest;

/// Per site: code, measured_c and true_c.
std::vector<double> site_values(const MapResult& map) {
    std::vector<double> v;
    for (const auto& r : map.sites) {
        v.push_back(static_cast<double>(r.code));
        v.push_back(r.measured_c);
        v.push_back(r.true_c);
    }
    return v;
}

ThermalMonitor session_monitor(const service::SessionSpec& spec) {
    return ThermalMonitor(spec.tech, spec.ring, spec.floorplan,
                          uniform_sites(spec.floorplan, spec.sites_nx,
                                        spec.sites_ny),
                          spec.monitor);
}

TEST(MonitorGolden, DefaultSessionScan) {
    const service::SessionSpec spec;
    const auto map = session_monitor(spec).scan();
    EXPECT_EQ(digest(site_values(map)), "17850896bb566214");
    EXPECT_EQ(digest({map.die_peak_c, map.scan_time_s}), "5ce108bbb993bc4c");
    EXPECT_EQ(digest(map.true_map_c), "6d1ef37e6c896f4f");
}

TEST(MonitorGolden, IndividuallyCalibratedMismatchedRings) {
    service::SessionSpec spec;
    spec.monitor.grid_nx = 24;
    spec.monitor.grid_ny = 24;
    spec.monitor.enable_mismatch = true;
    spec.monitor.individual_calibration = true;
    spec.monitor.alarm_threshold_c = 105.0;
    const auto map = session_monitor(spec).scan();
    std::vector<double> v = site_values(map);
    v.push_back(map.die_peak_c);
    v.push_back(map.scan_time_s);
    v.push_back(map.alarm ? 1.0 : 0.0);
    EXPECT_EQ(digest(v), "2fad87371a04261a");
    EXPECT_EQ(map.alarm_site, "s20");
}

TEST(MonitorGolden, ResilientScanUnderInjectedFaults) {
    const auto fp = thermal::demo_floorplan();
    MonitorConfig cfg;
    cfg.grid_nx = 24;
    cfg.grid_ny = 24;
    cfg.enable_health = true;
    cfg.redundancy = 2;
    exec::FaultInjector::Config fc;
    fc.seed = 20260806;
    fc.p_stuck_osc = 0.1;
    fc.p_drift_site = 0.1;
    fc.p_point = 0.05;
    fc.drift_offset_c = 60.0;
    exec::FaultInjector injector(fc);
    exec::FaultInjector::Scope scope(injector);
    const ThermalMonitor mon(phys::cmos350(),
                             ring::RingConfig::uniform(cells::CellKind::Inv, 5, 2.75),
                             fp, uniform_sites(fp, 4, 4), cfg);
    std::vector<double> v;
    for (int scan = 0; scan < 3; ++scan) {
        const auto map = mon.scan();
        const auto sites = site_values(map);
        v.insert(v.end(), sites.begin(), sites.end());
        for (const auto& r : map.sites) {
            v.push_back(static_cast<double>(r.health));
            v.push_back(static_cast<double>(r.confidence));
            v.push_back(static_cast<double>(r.rings_agreeing));
        }
        v.push_back(map.scan_time_s);
        v.push_back(static_cast<double>(map.watchdog_trips));
        v.push_back(static_cast<double>(map.readout_retries));
        v.push_back(static_cast<double>(map.interpolated_sites));
    }
    EXPECT_EQ(digest(v), "6f1c9a7e28741596");
}

} // namespace
} // namespace stsense::sensor
