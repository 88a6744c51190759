// Thermal mapping: the paper's flagship application. Nine ring sensors
// distributed over a microprocessor-like die, read through the smart
// unit's channel multiplexer, reconstructing the hotspot field produced
// by the RC thermal model.
//
//   $ ./examples/thermal_mapping [--sensors=4]   # 4x4 instead of 3x3
//   $ ./examples/thermal_mapping --health --redundancy=3 \
//         --trace=/tmp/map_trace.json   # resilient scan, traced
#include "stsense.hpp"

#include <algorithm>
#include <iostream>
#include <string>

int main(int argc, char** argv) {
    using namespace stsense;
    const util::Cli cli(argc, argv);
    const int n = cli.get("sensors", 3);

    // The resilient readout (health supervision + replica voting) is
    // the monitor's own config; the trace path is a runtime knob (also
    // honors STSENSE_TRACE when --trace is not given).
    sensor::MonitorConfig mc;
    mc.enable_health = cli.has("health");
    mc.redundancy = cli.get("redundancy", 1);
    const auto rt =
        stsense::RuntimeOptions().trace(cli.get("trace", std::string{}));
    const auto trace = rt.trace_session();

    // A 10x10 mm die with a hot core, an FPU, a cache and an I/O column.
    const thermal::Floorplan fp = thermal::demo_floorplan();
    std::cout << "die: " << fp.die_width() * 1e3 << " x " << fp.die_height() * 1e3
              << " mm, " << fp.total_power() << " W across " << fp.blocks().size()
              << " blocks\n\n";

    // Identical ring sensors at an n x n grid of sites, one mux channel each.
    const auto sites = sensor::uniform_sites(fp, n, n);
    const sensor::ThermalMonitor monitor(
        phys::cmos350(), ring::RingConfig::uniform(cells::CellKind::Inv, 5, 2.75),
        fp, sites, mc);

    const sensor::MapResult map = monitor.scan();

    // Render the measured map as a coarse heat grid (bottom row last).
    std::cout << "measured thermal map (degC):\n";
    for (int iy = n - 1; iy >= 0; --iy) {
        for (int ix = 0; ix < n; ++ix) {
            std::cout << util::fixed(map.sites[static_cast<std::size_t>(iy) *
                                               static_cast<std::size_t>(n) + ix]
                                         .measured_c,
                                     1)
                      << (ix + 1 < n ? "  " : "\n");
        }
    }

    util::Table table({"sensor", "true (degC)", "measured (degC)", "error (degC)"});
    for (const auto& r : map.sites) {
        table.add_row({r.name, util::fixed(r.true_c, 2),
                       util::fixed(r.measured_c, 2), util::fixed(r.error_c, 3)});
    }
    std::cout << "\n" << table.render();

    const auto hottest = std::max_element(
        map.sites.begin(), map.sites.end(), [](const auto& a, const auto& b) {
            return a.measured_c < b.measured_c;
        });
    std::cout << "\nhottest sensor: " << hottest->name << " at "
              << util::fixed(hottest->measured_c, 2)
              << " degC (die peak between sites: " << util::fixed(map.die_peak_c, 2)
              << " degC)\nmap error: max " << util::fixed(map.max_abs_error_c, 3)
              << " degC, rms " << util::fixed(map.rms_error_c, 3)
              << " degC\nfull scan through the mux: "
              << util::fixed(map.scan_time_s * 1e6, 1) << " us\n";

    std::cout << "\nfor a resident multi-die version of this scan behind a "
                 "query protocol,\nsee examples/telemetry_service.cpp "
                 "(service::Session wraps this exact stack).\n";
    return 0;
}
