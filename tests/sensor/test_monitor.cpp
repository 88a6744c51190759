#include "sensor/monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

namespace stsense::sensor {
namespace {

using cells::CellKind;

ring::RingConfig sensor_ring() {
    return ring::RingConfig::uniform(CellKind::Inv, 5, 2.75);
}

MonitorConfig fast_config() {
    MonitorConfig c;
    c.grid_nx = 24;
    c.grid_ny = 24;
    return c;
}

TEST(UniformSites, CoversDieInteriorly) {
    const auto fp = thermal::demo_floorplan();
    const auto sites = uniform_sites(fp, 3, 3);
    ASSERT_EQ(sites.size(), 9u);
    for (const auto& s : sites) {
        EXPECT_GT(s.x, 0.0);
        EXPECT_LT(s.x, fp.die_width());
        EXPECT_GT(s.y, 0.0);
        EXPECT_LT(s.y, fp.die_height());
    }
    EXPECT_THROW(uniform_sites(fp, 0, 3), std::invalid_argument);
}

TEST(ThermalMonitor, ValidatesSites) {
    const auto fp = thermal::demo_floorplan();
    std::vector<SensorSite> off{{"bad", 99.0, 0.0}};
    EXPECT_THROW(ThermalMonitor(phys::cmos350(), sensor_ring(),
                                fp, off, fast_config()),
                 std::invalid_argument);
    EXPECT_THROW(ThermalMonitor(phys::cmos350(), sensor_ring(), fp, {},
                                fast_config()),
                 std::invalid_argument);
}

TEST(MonitorNonFinite, NanSiteCoordinateIsOffDie) {
    const auto fp = thermal::demo_floorplan();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const SensorSite& bad : {SensorSite{"nan_x", nan, 1e-3},
                                  SensorSite{"nan_y", 1e-3, nan}}) {
        EXPECT_THROW(ThermalMonitor(phys::cmos350(), sensor_ring(), fp, {bad},
                                    fast_config()),
                     std::invalid_argument)
            << bad.name;
    }
}

TEST(MonitorNonFinite, ScanFieldRejectsNanTemperature) {
    const auto fp = thermal::demo_floorplan();
    const ThermalMonitor mon(phys::cmos350(), sensor_ring(), fp,
                             uniform_sites(fp, 2, 2), fast_config());
    std::vector<double> field(24 * 24, 60.0);
    field[100] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(mon.scan_field(field), std::invalid_argument);
}

TEST(ThermalMonitor, ScanReadsEverySiteAccurately) {
    const auto fp = thermal::demo_floorplan();
    const auto sites = uniform_sites(fp, 3, 3);
    const ThermalMonitor mon(phys::cmos350(), sensor_ring(), fp, sites,
                             fast_config());
    const auto map = mon.scan();
    ASSERT_EQ(map.sites.size(), 9u);
    for (const auto& r : map.sites) {
        EXPECT_NEAR(r.measured_c, r.true_c, 0.5) << r.name;
        EXPECT_DOUBLE_EQ(r.error_c, r.measured_c - r.true_c);
    }
    EXPECT_LT(map.max_abs_error_c, 0.5);
    EXPECT_LE(map.rms_error_c, map.max_abs_error_c);
    EXPECT_GT(map.scan_time_s, 0.0);
}

TEST(ThermalMonitor, MapShowsHotspotGradient) {
    const auto fp = thermal::demo_floorplan();
    const auto sites = uniform_sites(fp, 3, 3);
    const ThermalMonitor mon(phys::cmos350(), sensor_ring(), fp, sites,
                             fast_config());
    const auto map = mon.scan();
    // The demo floorplan's core block sits top-left: the hottest site
    // reading must be near it and clearly hotter than the coolest.
    const auto hottest = std::max_element(
        map.sites.begin(), map.sites.end(),
        [](const SiteReading& a, const SiteReading& b) {
            return a.measured_c < b.measured_c;
        });
    const auto coolest = std::min_element(
        map.sites.begin(), map.sites.end(),
        [](const SiteReading& a, const SiteReading& b) {
            return a.measured_c < b.measured_c;
        });
    EXPECT_GT(hottest->measured_c - coolest->measured_c, 10.0);
    // Sensors see the gradient that the ground-truth map has.
    EXPECT_GT(map.die_peak_c, hottest->measured_c - 1.0);
}

TEST(ThermalMonitor, PeakAboveAmbient) {
    const auto fp = thermal::demo_floorplan();
    const auto sites = uniform_sites(fp, 2, 2);
    MonitorConfig cfg = fast_config();
    cfg.grid_params.ambient_c = 45.0;
    const ThermalMonitor mon(phys::cmos350(), sensor_ring(), fp, sites, cfg);
    const auto map = mon.scan();
    EXPECT_GT(map.die_peak_c, 60.0);
}

TEST(ThermalMonitor, MismatchWithSharedCalibrationLeavesResidual) {
    const auto fp = thermal::demo_floorplan();
    const auto sites = uniform_sites(fp, 2, 2);

    MonitorConfig matched = fast_config();
    MonitorConfig mismatched = fast_config();
    mismatched.enable_mismatch = true;

    const auto map_matched =
        ThermalMonitor(phys::cmos350(), sensor_ring(), fp, sites, matched).scan();
    const auto map_mm =
        ThermalMonitor(phys::cmos350(), sensor_ring(), fp, sites, mismatched)
            .scan();
    // Shared calibration constants on mismatched rings: errors grow well
    // beyond the matched case (this is the cost of the cheap flow).
    EXPECT_GT(map_mm.max_abs_error_c, 3.0 * map_matched.max_abs_error_c);
}

TEST(ThermalMonitor, IndividualCalibrationAbsorbsMismatch) {
    const auto fp = thermal::demo_floorplan();
    const auto sites = uniform_sites(fp, 2, 2);

    MonitorConfig shared = fast_config();
    shared.enable_mismatch = true;
    MonitorConfig individual = shared;
    individual.individual_calibration = true;

    const auto map_shared =
        ThermalMonitor(phys::cmos350(), sensor_ring(), fp, sites, shared).scan();
    const auto map_ind =
        ThermalMonitor(phys::cmos350(), sensor_ring(), fp, sites, individual)
            .scan();
    EXPECT_LT(map_ind.max_abs_error_c, 0.5 * map_shared.max_abs_error_c);
    EXPECT_LT(map_ind.max_abs_error_c, 0.5);
}

TEST(ThermalMonitor, MismatchDeterministicBySeed) {
    const auto fp = thermal::demo_floorplan();
    const auto sites = uniform_sites(fp, 2, 2);
    MonitorConfig cfg = fast_config();
    cfg.enable_mismatch = true;
    cfg.mismatch_seed = 77;
    const auto a =
        ThermalMonitor(phys::cmos350(), sensor_ring(), fp, sites, cfg).scan();
    const auto b =
        ThermalMonitor(phys::cmos350(), sensor_ring(), fp, sites, cfg).scan();
    for (std::size_t i = 0; i < a.sites.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.sites[i].measured_c, b.sites[i].measured_c);
    }
}

TEST(ThermalMonitor, AlarmFlagsHotSite) {
    const auto fp = thermal::demo_floorplan();
    const auto sites = uniform_sites(fp, 3, 3);
    MonitorConfig cfg = fast_config();
    cfg.alarm_threshold_c = 110.0; // Between the hottest and coolest site.
    const ThermalMonitor mon(phys::cmos350(), sensor_ring(), fp, sites, cfg);
    const auto map = mon.scan();
    ASSERT_TRUE(map.alarm);
    // The flagged site is genuinely above the threshold.
    for (const auto& r : map.sites) {
        if (r.name == map.alarm_site) {
            EXPECT_GT(r.true_c, cfg.alarm_threshold_c - 1.0);
        }
    }
}

TEST(ThermalMonitor, NoAlarmWhenThresholdAboveDie) {
    const auto fp = thermal::demo_floorplan();
    const auto sites = uniform_sites(fp, 2, 2);
    MonitorConfig cfg = fast_config();
    cfg.alarm_threshold_c = 200.0;
    const auto map =
        ThermalMonitor(phys::cmos350(), sensor_ring(), fp, sites, cfg).scan();
    EXPECT_FALSE(map.alarm);
    EXPECT_TRUE(map.alarm_site.empty());
}

TEST(ThermalMonitor, AlarmDisabledByDefault) {
    const auto fp = thermal::demo_floorplan();
    const auto sites = uniform_sites(fp, 2, 2);
    const auto map = ThermalMonitor(phys::cmos350(), sensor_ring(), fp, sites,
                                    fast_config())
                         .scan();
    EXPECT_FALSE(map.alarm);
}

TEST(ThermalMonitor, CalibrationAbsorbsConsistentSelfHeating) {
    // The smart unit calibrates each (self-heating) sensor in situ, so a
    // *consistent* self-heating offset is trimmed out — the residual is
    // only the temperature dependence of the heating itself. The scan
    // must therefore stay accurate to well under a degree even with
    // self-heating modelled.
    const auto fp = thermal::demo_floorplan();
    const auto sites = uniform_sites(fp, 2, 2);

    MonitorConfig heated = fast_config();
    heated.sensor_options.model_self_heating = true;

    const auto map =
        ThermalMonitor(phys::cmos350(), sensor_ring(), fp, sites, heated).scan();
    EXPECT_LT(map.max_abs_error_c, 1.0);
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Field, codes and readings of two scans agree bit for bit.
void expect_same_scan(const MapResult& got, const MapResult& want) {
    EXPECT_TRUE(bitwise_equal(got.true_map_c, want.true_map_c));
    ASSERT_EQ(got.sites.size(), want.sites.size());
    for (std::size_t i = 0; i < got.sites.size(); ++i) {
        EXPECT_EQ(got.sites[i].code, want.sites[i].code) << i;
        EXPECT_TRUE(bitwise_equal({got.sites[i].true_c, got.sites[i].measured_c},
                                  {want.sites[i].true_c, want.sites[i].measured_c}))
            << i;
    }
    EXPECT_EQ(got.scan_time_s, want.scan_time_s);
}

TEST(ThermalMonitor, RepeatedScansReadTheSameSteadyFieldBitForBit) {
    const auto fp = thermal::demo_floorplan();
    const ThermalMonitor mon(phys::cmos350(), sensor_ring(), fp,
                             uniform_sites(fp, 3, 3), fast_config());
    const auto want = mon.scan_field(mon.grid().steady_state(
        mon.floorplan().power_map(mon.config().grid_nx, mon.config().grid_ny)));
    for (int i = 0; i < 3; ++i) {
        SCOPED_TRACE(i);
        expect_same_scan(mon.scan(), want);
    }
}

TEST(ThermalMonitor, RacingFirstScansAllGetTheSameBits) {
    const auto fp = thermal::demo_floorplan();
    const ThermalMonitor mon(phys::cmos350(), sensor_ring(), fp,
                             uniform_sites(fp, 3, 3), fast_config());
    constexpr int kThreads = 4;
    std::vector<MapResult> maps(kThreads);
    std::atomic<int> ready{0};
    {
        std::vector<std::jthread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                // Release every thread at once onto the unsolved field.
                ready.fetch_add(1);
                while (ready.load() < kThreads) std::this_thread::yield();
                maps[static_cast<std::size_t>(t)] = mon.scan();
            });
        }
    }
    const ThermalMonitor fresh(phys::cmos350(), sensor_ring(), fp,
                               uniform_sites(fp, 3, 3), fast_config());
    const auto want = fresh.scan();
    for (int t = 0; t < kThreads; ++t) {
        SCOPED_TRACE(t);
        expect_same_scan(maps[static_cast<std::size_t>(t)], want);
    }
}

} // namespace
} // namespace stsense::sensor
