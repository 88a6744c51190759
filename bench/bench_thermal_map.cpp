// UNIT-MAP — the paper's thermal-mapping feature (Sec. 3): multiplexed
// readout of ring oscillators distributed over a die, against the
// ground-truth temperature field of the RC thermal model.
//
// `--degraded` runs the resilience variant instead: a sensor fleet with
// injected persistent hardware faults (stuck oscillators, drifted
// rings; rate and seed controllable, STSENSE_FAULT_SEED replayable)
// scanned repeatedly under the SiteHealth supervisor. The gates prove a
// faulty fleet still yields a complete, flagged, bounded-error map and
// that the fault-free resilient path is bitwise the legacy path.
// Writes BENCH_thermal_map.json, including the (ungated) wall time of one
// fault-free scan() (steady-state solve + readout). `--quick` shrinks the
// thermal grid.
#include "bench_common.hpp"

#include "exec/fault_injector.hpp"
#include "exec/metrics.hpp"
#include "sensor/monitor.hpp"
#include "sensor/presets.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>

using namespace stsense;

namespace {

int run_degraded(const util::Cli& cli, const phys::Technology& tech,
                 const thermal::Floorplan& fp) {
    const bool quick = cli.has("quick");
    const int nx = cli.get("sensors", 4);
    const auto sites = sensor::uniform_sites(fp, nx, nx);
    const auto ring_cfg = ring::RingConfig::uniform(cells::CellKind::Inv, 5, 2.75);

    sensor::MonitorConfig cfg;
    cfg.grid_nx = cli.get("grid", quick ? 24 : 48);
    cfg.grid_ny = cfg.grid_nx;
    cfg.enable_health = true;

    // Gate 0: with no injector installed, the resilient path must agree
    // with the legacy scan bit for bit — resilience is free until used.
    sensor::MonitorConfig legacy_cfg = cfg;
    legacy_cfg.enable_health = false;
    const sensor::ThermalMonitor legacy_mon(tech, ring_cfg, fp, sites, legacy_cfg);
    sensor::MapResult legacy;
    const double scan_wall_s = bench::wall_seconds([&] { legacy = legacy_mon.scan(); });
    const auto clean =
        sensor::ThermalMonitor(tech, ring_cfg, fp, sites, cfg).scan();
    std::size_t clean_mismatches = 0;
    for (std::size_t i = 0; i < sites.size(); ++i) {
        if (clean.sites[i].measured_c != legacy.sites[i].measured_c ||
            clean.sites[i].code != legacy.sites[i].code) {
            ++clean_mismatches;
        }
    }

    // Persistent faults on ~20 % of the rings, replayable via
    // STSENSE_FAULT_SEED: stuck-slow oscillators (watchdog fodder) and
    // calibration-drifted rings (spatial-MAD fodder).
    const std::uint64_t seed = exec::FaultInjector::seed_from_env(
        static_cast<std::uint64_t>(cli.get("seed", 20260806)));
    exec::FaultInjector::Config fc;
    fc.seed = seed;
    fc.p_stuck_osc = cli.get("p-stuck", 0.1);
    fc.p_drift_site = cli.get("p-drift", 0.1);
    // A flagrant drift: the die's own gradient spans ~50 degC, so a
    // subtle offset hides inside the spatial prediction error (that case
    // is what per-site redundancy + quorum voting exists for). 60 degC
    // is unambiguously outside both the MAD gate and, at the hot end,
    // the plausible temperature band.
    fc.drift_offset_c = cli.get("drift-offset", 60.0);
    exec::FaultInjector injector(fc);
    exec::FaultInjector::Scope scope(injector);

    // Several scans so persistent offenders walk the health ladder into
    // quarantine and the map switches them to interpolation.
    sensor::ThermalMonitor mon(tech, ring_cfg, fp, sites, cfg);
    const int scans = cli.get("scans", 4);
    sensor::MapResult map;
    std::uint64_t watchdog_total = 0;
    for (int s = 0; s < scans; ++s) {
        map = mon.scan();
        watchdog_total += map.watchdog_trips;
    }

    const std::size_t faulty =
        map.degraded_sites + map.quarantined_sites + map.dead_sites;
    std::size_t complete = 0;
    double healthy_max_err = 0.0;
    util::Table table({"sensor", "true (degC)", "measured (degC)",
                       "error (degC)", "state", "confidence"});
    for (const auto& r : map.sites) {
        if (r.valid && std::isfinite(r.measured_c)) ++complete;
        if (r.confidence == sensor::SiteConfidence::Measured ||
            r.confidence == sensor::SiteConfidence::Voted) {
            healthy_max_err = std::max(healthy_max_err, std::abs(r.error_c));
        }
        table.add_row({r.name, util::fixed(r.true_c, 2),
                       util::fixed(r.measured_c, 2), util::fixed(r.error_c, 3),
                       sensor::to_string(r.health),
                       sensor::to_string(r.confidence)});
    }
    std::cout << table.render();
    std::cout << "\nfault seed " << seed << " | " << faulty << "/"
              << sites.size() << " sites unhealthy after " << scans
              << " scans | " << map.interpolated_sites
              << " interpolated (max |err| "
              << util::fixed(map.max_interp_error_c, 2) << " degC) | "
              << watchdog_total << " watchdog aborts\n";
    std::cout << "wall time (not gated): fault-free steady-state solve + scan "
              << util::fixed(1e3 * scan_wall_s, 2) << " ms\n";

    const std::string json_path =
        cli.get("json", std::string("BENCH_thermal_map.json"));
    {
        std::ofstream json(json_path);
        json << "{\n"
             << "  \"workload\": \"degraded_thermal_map\",\n"
             << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
             << "  \"fault_seed\": " << seed << ",\n"
             << "  \"sites\": " << sites.size() << ",\n"
             << "  \"scans\": " << scans << ",\n"
             << "  \"clean_bitwise_mismatches\": " << clean_mismatches << ",\n"
             << "  \"faulty_sites\": " << faulty << ",\n"
             << "  \"degraded_sites\": " << map.degraded_sites << ",\n"
             << "  \"quarantined_sites\": " << map.quarantined_sites << ",\n"
             << "  \"dead_sites\": " << map.dead_sites << ",\n"
             << "  \"interpolated_sites\": " << map.interpolated_sites << ",\n"
             << "  \"max_interp_error_c\": " << map.max_interp_error_c << ",\n"
             << "  \"healthy_max_abs_error_c\": " << healthy_max_err << ",\n"
             << "  \"watchdog_trips\": " << watchdog_total << ",\n"
             << "  \"readout_retries\": " << map.readout_retries << ",\n"
             << "  \"scan_wall_s\": " << scan_wall_s << ",\n"
             << "  \"metrics\": " << exec::MetricsRegistry::global().to_json()
             << "\n"
             << "}\n";
    }
    std::cout << "degraded-map snapshot: " << json_path << "\n";

    bench::ShapeChecks checks;
    checks.expect("fault-free resilient scan is bitwise the legacy scan",
                  clean_mismatches == 0);
    checks.expect("the injected fleet actually has unhealthy sites",
                  faulty >= 1);
    checks.expect("every site still mapped (measured, voted or interpolated)",
                  complete == sites.size());
    checks.expect("unhealthy sites are flagged and served by interpolation",
                  map.interpolated_sites >= 1);
    checks.expect("interpolated readings stay within 20 degC of local truth",
                  map.max_interp_error_c < 20.0);
    checks.expect("healthy sites unaffected by their faulty neighbors "
                  "(< 0.5 degC)",
                  healthy_max_err < 0.5);
    checks.expect("stuck oscillators were watchdog-aborted, not waited out",
                  fc.p_stuck_osc == 0.0 || watchdog_total >= 1);
    return checks.report();
}

} // namespace

int main(int argc, char** argv) {
    const util::Cli cli(argc, argv);
    bench::banner("UNIT-MAP",
                  "thermal mapping via multiplexed ring-oscillator sensors "
                  "(3x3 grid on a 10x10 mm die)");

    const auto tech = phys::technology_by_name(cli.get("tech", std::string("cmos350")));
    const auto fp = thermal::demo_floorplan();

    if (cli.has("degraded")) return run_degraded(cli, tech, fp);

    std::cout << "floorplan blocks:\n";
    util::Table fpt({"block", "x (mm)", "y (mm)", "w (mm)", "h (mm)", "power (W)"});
    for (const auto& b : fp.blocks()) {
        fpt.add_row({b.name, util::fixed(b.x * 1e3, 2), util::fixed(b.y * 1e3, 2),
                     util::fixed(b.width * 1e3, 2), util::fixed(b.height * 1e3, 2),
                     util::fixed(b.power_w, 1)});
    }
    std::cout << fpt.render() << "\n";

    const int nx = cli.get("sensors", 3);
    const auto sites = sensor::uniform_sites(fp, nx, nx);
    sensor::MonitorConfig cfg;
    cfg.grid_nx = cli.get("grid", 48);
    cfg.grid_ny = cfg.grid_nx;
    cfg.alarm_threshold_c = cli.get("alarm", 110.0);
    const sensor::ThermalMonitor mon(
        tech, ring::RingConfig::uniform(cells::CellKind::Inv, 5, 2.75), fp, sites,
        cfg);
    sensor::MapResult map;
    const double scan_wall_s = bench::wall_seconds([&] { map = mon.scan(); });

    util::Table table({"sensor", "x (mm)", "y (mm)", "true (degC)",
                       "measured (degC)", "error (degC)", "code"});
    for (const auto& r : map.sites) {
        table.add_row({r.name, util::fixed(r.x * 1e3, 2), util::fixed(r.y * 1e3, 2),
                       util::fixed(r.true_c, 2), util::fixed(r.measured_c, 2),
                       util::fixed(r.error_c, 3), std::to_string(r.code)});
    }
    std::cout << table.render();

    std::cout << "\ndie peak " << util::fixed(map.die_peak_c, 2)
              << " degC | max |err| " << util::fixed(map.max_abs_error_c, 3)
              << " degC | rms err " << util::fixed(map.rms_error_c, 3)
              << " degC | full mux scan " << util::fixed(map.scan_time_s * 1e6, 1)
              << " us\n";
    std::cout << "wall time (not gated): steady-state solve + scan "
              << util::fixed(1e3 * scan_wall_s, 2) << " ms\n";
    std::cout << "over-temperature alarm (trip "
              << util::fixed(cfg.alarm_threshold_c, 1) << " degC): "
              << (map.alarm ? "LATCHED by site " + map.alarm_site
                            : std::string("clear"))
              << "\n";

    const std::string csv_path = cli.get("csv", std::string("thermal_map.csv"));
    util::CsvWriter csv(csv_path);
    csv.header({"x_mm", "y_mm", "true_c", "measured_c", "error_c"});
    for (const auto& r : map.sites) {
        csv.row({r.x * 1e3, r.y * 1e3, r.true_c, r.measured_c, r.error_c});
    }
    std::cout << "site csv: " << csv_path << "\n";

    const auto hottest =
        std::max_element(map.sites.begin(), map.sites.end(),
                         [](const auto& a, const auto& b) {
                             return a.measured_c < b.measured_c;
                         });
    const auto coolest =
        std::min_element(map.sites.begin(), map.sites.end(),
                         [](const auto& a, const auto& b) {
                             return a.measured_c < b.measured_c;
                         });

    bench::ShapeChecks checks;
    checks.expect("hotspots produce > 10 degC of on-die gradient to map",
                  hottest->measured_c - coolest->measured_c > 10.0);
    checks.expect("every site read within 0.5 degC of local truth",
                  map.max_abs_error_c < 0.5);
    checks.expect("measured field preserves the spatial ordering of the truth",
                  [&] {
                      for (const auto& a : map.sites) {
                          for (const auto& b : map.sites) {
                              if (a.true_c > b.true_c + 2.0 &&
                                  a.measured_c <= b.measured_c) {
                                  return false;
                              }
                          }
                      }
                      return true;
                  }());
    checks.expect("die peak in the paper's motivating regime (> 100 degC)",
                  map.die_peak_c > 100.0);
    checks.expect("the hardware alarm latched on a site above the 110 degC trip",
                  map.alarm && hottest->true_c > cfg.alarm_threshold_c);
    return checks.report();
}
