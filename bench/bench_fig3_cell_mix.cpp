// FIG3 — reproduces Fig. 3 of the paper: non-linearity error of 5-stage
// rings built from *stock standard cells* at the library Wp/Wn ratio
// (the paper's core cell-based optimization), plus the exhaustive
// enumeration of all stock-cell mixes.
#include "bench_common.hpp"

#include "analysis/nonlinearity.hpp"
#include "exec/exec.hpp"
#include "exec/metrics.hpp"
#include "ring/analytic.hpp"
#include "ring/spice_ring.hpp"
#include "ring/sweep.hpp"
#include "sensor/optimizer.hpp"
#include "sensor/presets.hpp"
#include "util/ascii_plot.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

#include <chrono>
#include <fstream>
#include <iostream>

using namespace stsense;

int main(int argc, char** argv) {
    const util::Cli cli(argc, argv);
    bench::banner("FIG3",
                  "non-linearity error for different cell-mix ring configurations "
                  "(library ratio, stock cells only)");

    const auto tech = phys::technology_by_name(cli.get("tech", std::string("cmos350")));
    const auto grid = ring::paper_temperature_grid_c();
    const auto configs = sensor::presets::fig3_configurations();

    std::vector<std::vector<double>> error_series;
    std::vector<std::string> names;
    std::vector<double> max_nls;
    for (const auto& [name, cfg] : configs) {
        const auto sw = ring::paper_sweep(tech, cfg);
        const auto nl = analysis::nonlinearity(sw.temps_c, sw.period_s);
        error_series.push_back(nl.error_percent);
        names.push_back(name);
        max_nls.push_back(nl.max_abs_percent);
    }

    util::PlotOptions popt;
    popt.width = 68;
    popt.height = 14;
    popt.x_label = "temperature (degC)";
    popt.y_label = "non-linearity error (% of full scale), " + tech.name +
                   " (library ratio = " + util::fixed(tech.library_ratio, 2) + ")";
    std::cout << util::ascii_plot_multi(grid, error_series, names, popt) << "\n";

    util::Table table({"configuration", "max |NL| (%)", "period @27C (ps)"});
    double nl_pure_inv = 0.0;
    double nl_best_named = 1e9;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const ring::AnalyticRingModel m(tech, configs[i].second);
        table.add_row({configs[i].first, util::fixed(max_nls[i], 4),
                       util::fixed(m.period(300.15) * 1e12, 1)});
        if (configs[i].first == "5xINV") nl_pure_inv = max_nls[i];
        nl_best_named = std::min(nl_best_named, max_nls[i]);
    }
    std::cout << table.render();

    // Exhaustive stock-cell mix search (abstract: "an adequate set of
    // standard logic gates"). Runs once on a 1-worker pool and once on
    // the global pool to report the runtime-layer speedup on the paper's
    // largest enumeration; both orderings must be identical. The cache
    // is cleared between the two runs, so the pooled run computes every
    // candidate instead of reading back the first run's values.
    exec::ThreadPool one_worker(1);
    sensor::OptimizerRuntime serial_rt;
    serial_rt.pool = &one_worker;
    const auto t_serial = std::chrono::steady_clock::now();
    const auto mixes_serial = sensor::enumerate_mixes(
        tech, cells::kAllCellKinds, sensor::presets::kPaperStages, serial_rt);
    exec::ResultCache::global().clear();
    const auto before_pooled = exec::ResultCache::global().stats();
    const auto t_parallel = std::chrono::steady_clock::now();
    const auto mixes = sensor::enumerate_mixes(tech, cells::kAllCellKinds,
                                               sensor::presets::kPaperStages);
    const auto t_done = std::chrono::steady_clock::now();
    const auto after_pooled = exec::ResultCache::global().stats();
    const bool pooled_computed_all =
        after_pooled.hits == before_pooled.hits &&
        after_pooled.misses - before_pooled.misses == mixes.size();
    const double serial_s = std::chrono::duration<double>(t_parallel - t_serial).count();
    const double parallel_s = std::chrono::duration<double>(t_done - t_parallel).count();
    bool enum_identical = mixes.size() == mixes_serial.size();
    for (std::size_t i = 0; enum_identical && i < mixes.size(); ++i) {
        enum_identical = mixes[i].name == mixes_serial[i].name &&
                         mixes[i].max_nl_percent == mixes_serial[i].max_nl_percent;
    }
    std::cout << "\nexhaustive mix enumeration over {INV, NAND2, NAND3, NOR2, NOR3} "
              << "(" << mixes.size() << " multisets), top 8:\n";
    util::Table best({"rank", "configuration", "max |NL| (%)"});
    for (std::size_t i = 0; i < mixes.size() && i < 8; ++i) {
        best.add_row({std::to_string(i + 1), mixes[i].name,
                      util::fixed(mixes[i].max_nl_percent, 4)});
    }
    std::cout << best.render();

    // Transistor-level spot check with the fast transient kernel on the
    // pure-inverter library ring: cross-checks the analytic series and
    // populates the kernel counters for the JSON dump below.
    const ring::SpiceRingModel spice_model(
        tech, ring::RingConfig::uniform(cells::CellKind::Inv, 5));
    ring::SpiceRingOptions spice_opt = ring::SpiceRingOptions::fast();
    spice_opt.record_waveform = false;
    const ring::AnalyticRingModel analytic_inv(
        tech, ring::RingConfig::uniform(cells::CellKind::Inv, 5));
    double max_spice_dev_pct = 0.0;
    for (double tc : {-50.0, 27.0, 150.0}) {
        const auto r = spice_model.simulate(tc + 273.15, spice_opt);
        const double ana = analytic_inv.period(tc + 273.15);
        max_spice_dev_pct = std::max(
            max_spice_dev_pct, 100.0 * std::abs(r.period - ana) / ana);
    }
    std::cout << "\nSPICE spot check (fast kernel, 5xINV library ratio): max "
              << "deviation vs analytic " << util::fixed(max_spice_dev_pct, 2)
              << " %\n";

    const std::string csv_path = cli.get("csv", std::string("fig3_cell_mix.csv"));
    util::CsvWriter csv(csv_path);
    std::vector<std::string> hdr{"temp_c"};
    for (const auto& n : names) hdr.push_back(n);
    csv.header(hdr);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        std::vector<double> row{grid[i]};
        for (const auto& s : error_series) row.push_back(s[i]);
        csv.row(row);
    }
    std::cout << "\nerror-series csv: " << csv_path << "\n";

    const auto cache_stats = exec::ResultCache::global().stats();
    std::cout << "runtime: enumeration 1 worker " << util::fixed(serial_s * 1e3, 1)
              << " ms, pool (cold cache) " << util::fixed(parallel_s * 1e3, 1)
              << " ms (" << util::fixed(parallel_s > 0.0 ? serial_s / parallel_s : 0.0, 1)
              << "x); sweep cache " << cache_stats.hits << " hits / "
              << cache_stats.misses << " misses (hit rate "
              << util::fixed(100.0 * cache_stats.hit_rate(), 1) << " %)\n";

    // JSON snapshot: named-configuration results, the enumeration
    // winner, and the full metrics registry (including the fast-kernel
    // counters populated by the SPICE spot check).
    const std::string json_path = cli.get("json", std::string("BENCH_fig3.json"));
    {
        std::ofstream json(json_path);
        json << "{\n  \"figure\": \"fig3_cell_mix\",\n"
             << "  \"tech\": \"" << tech.name << "\",\n"
             << "  \"max_nl_percent\": {";
        for (std::size_t i = 0; i < names.size(); ++i) {
            json << (i ? ", " : "") << "\"" << names[i] << "\": " << max_nls[i];
        }
        json << "},\n"
             << "  \"best_mix\": \"" << mixes.front().name << "\",\n"
             << "  \"best_mix_max_nl_percent\": " << mixes.front().max_nl_percent
             << ",\n"
             << "  \"spice_spot_check_max_dev_pct\": " << max_spice_dev_pct << ",\n"
             << "  \"metrics\": " << exec::MetricsRegistry::global().to_json() << "\n"
             << "}\n";
    }
    std::cout << "figure snapshot: " << json_path << "\n";

    bench::ShapeChecks checks;
    checks.expect("pooled enumeration ranking identical to serial", enum_identical);
    checks.expect("pooled enumeration computed every candidate (no cache hit)",
                  pooled_computed_all);
    checks.expect("repeated sweeps hit the result cache", cache_stats.hits > 0);
    checks.expect("SPICE spot check stays within factor two of the analytic model",
                  max_spice_dev_pct < 100.0);
    checks.expect("fast-kernel counters populated by the spot check",
                  exec::MetricsRegistry::global()
                          .counter("spice.eval.bypass_hits")
                          .value() > 0 &&
                      exec::MetricsRegistry::global()
                              .counter("ring.transient.early_exit_cycles")
                              .value() > 0);
    checks.expect("cell mixes span a wide NL range (selection is a real knob)",
                  [&] {
                      double lo = max_nls[0];
                      double hi = max_nls[0];
                      for (double v : max_nls) {
                          lo = std::min(lo, v);
                          hi = std::max(hi, v);
                      }
                      return hi / lo > 2.0;
                  }());
    checks.expect("an adequate mix beats the pure 5xINV library ring",
                  nl_best_named < nl_pure_inv);
    checks.expect("best mix overall reaches < 0.2 % (matches sizing-based tuning)",
                  mixes.front().max_nl_percent < 0.2);
    checks.expect("errors stay within the figure's ~+-1.2 % band",
                  [&] {
                      for (const auto& s : error_series) {
                          for (double e : s) {
                              if (std::abs(e) > 1.2) return false;
                          }
                      }
                      return true;
                  }());
    return checks.report();
}
