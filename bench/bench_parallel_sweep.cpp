// EXEC — the parallel execution runtime on the paper's heaviest
// workload: the Fig. 2 ratio family swept with the SPICE engine
// (4 ratios x 17 temperatures = 68 independent transistor-level
// transient simulations). Measures serial vs parallel wall clock for
// the default kernel (one point per pool task) and for the fast preset
// (lock-step groups of points per pool task), verifies the parallel
// periods are BITWISE identical to the serial ones (the determinism
// contract that keeps the paper figures unchanged), exercises the
// content-addressed sweep cache, and writes the numbers to a JSON
// snapshot (BENCH_exec.json).
#include "bench_common.hpp"

#include "exec/exec.hpp"
#include "obs/export.hpp"
#include "ring/sweep.hpp"
#include "sensor/presets.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

using namespace stsense;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

} // namespace

int main(int argc, char** argv) {
    const util::Cli cli(argc, argv);
    bench::banner("EXEC",
                  "parallel runtime: Fig. 2 SPICE ratio sweep, serial vs pool, "
                  "+ sweep cache");

    const auto tech = phys::technology_by_name(cli.get("tech", std::string("cmos350")));
    // threads=0 means auto; either way the pool is clamped to the
    // hardware thread count (oversubscription only measured scheduler
    // overhead — BENCH_exec.json once recorded 4 threads on 1 core at
    // 0.92x "speedup").
    const int threads_configured = cli.get("threads", 0);

    // Tracing: armed by --trace=PATH or STSENSE_TRACE, inert otherwise
    // (same contract as the figure benches).
    obs::TraceSession trace(cli.get("trace", std::string()));
    const int threads = exec::ThreadPool::clamp_to_hardware(threads_configured);
    const auto grid = ring::paper_temperature_grid_c();

    // Coarser transient settings than the figure benches: this bench
    // measures the runtime, not the physics, and 68 full-resolution
    // transients would dominate CI time.
    ring::SpiceRingOptions opt;
    opt.skip_cycles = 2;
    opt.measure_cycles = 4;
    opt.steps_per_period = cli.get("steps", 150);

    std::vector<ring::RingConfig> configs;
    for (double r : sensor::presets::kFig2Ratios) {
        configs.push_back(ring::RingConfig::uniform(cells::CellKind::Inv, 5, r));
    }

    // Sweeps every ratio with options `o` on runtime `rt`; stores the
    // wall time of the whole family in `wall_s`.
    const auto sweep_all = [&](const ring::SpiceRingOptions& o,
                               const ring::SweepRuntime& rt, double& wall_s) {
        std::vector<ring::SweepResult> out(configs.size());
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < configs.size(); ++i) {
            out[i] = ring::temperature_sweep(tech, configs[i], grid,
                                             ring::Engine::Spice, o, rt);
        }
        wall_s = seconds_since(t0);
        return out;
    };
    const auto same_series = [](const std::vector<ring::SweepResult>& a,
                                const std::vector<ring::SweepResult>& b) {
        bool same = a.size() == b.size();
        for (std::size_t i = 0; same && i < a.size(); ++i) {
            same = bitwise_equal(a[i].period_s, b[i].period_s) &&
                   bitwise_equal(a[i].frequency_hz, b[i].frequency_hz);
        }
        return same;
    };

    // --- default kernel: serial reference vs every point on the pool -------
    double serial_s = 0.0;
    const auto serial = sweep_all(opt, ring::SweepRuntime::serial(), serial_s);
    exec::ThreadPool pool(threads);
    ring::SweepRuntime parallel_rt;
    parallel_rt.pool = &pool;
    parallel_rt.use_cache = false;
    double parallel_s = 0.0;
    const auto parallel = sweep_all(opt, parallel_rt, parallel_s);
    const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
    const bool identical = same_series(serial, parallel);

    // --- lock-step: the fast preset, serial vs pool ------------------------
    // Same coarse transient, fast kernel: points advance in lock-step
    // groups of at most lockstep_width over one shared batched
    // evaluator, and a pooled sweep makes at least one group per worker.
    ring::SpiceRingOptions fast_opt = ring::SpiceRingOptions::fast();
    fast_opt.skip_cycles = opt.skip_cycles;
    fast_opt.measure_cycles = opt.measure_cycles;
    fast_opt.steps_per_period = opt.steps_per_period;
    const int width = fast_opt.kernel.lockstep_width;
    double fast_serial_s = 0.0;
    double fast_parallel_s = 0.0;
    const auto fast_serial =
        sweep_all(fast_opt, ring::SweepRuntime::serial(), fast_serial_s);
    const auto fast_parallel = sweep_all(fast_opt, parallel_rt, fast_parallel_s);
    const double fast_speedup =
        fast_parallel_s > 0.0 ? fast_serial_s / fast_parallel_s : 0.0;
    const bool fast_identical = same_series(fast_serial, fast_parallel);
    const std::size_t groups_serial =
        ring::lockstep_groups(grid.size(), static_cast<std::size_t>(width), 1).size() - 1;
    const std::size_t groups_pool =
        ring::lockstep_groups(grid.size(), static_cast<std::size_t>(width),
                              static_cast<std::size_t>(pool.size()))
            .size() - 1;

    // --- cache: cold pass populates, warm pass must be pure hits ----------
    exec::ResultCache cache;
    ring::SweepRuntime cached_rt;
    cached_rt.pool = &pool;
    cached_rt.cache = &cache;
    double cold_s = 0.0;
    double warm_s = 0.0;
    (void)sweep_all(opt, cached_rt, cold_s);
    const auto warm = sweep_all(opt, cached_rt, warm_s);
    const auto cache_stats = cache.stats();
    const bool warm_identical = same_series(serial, warm);

    const unsigned hw = std::thread::hardware_concurrency();
    util::Table table({"path", "wall (s)", "vs serial"});
    table.add_row({"serial", util::fixed(serial_s, 3), "1.00x"});
    table.add_row({"pool x" + std::to_string(threads), util::fixed(parallel_s, 3),
                   util::fixed(speedup, 2) + "x"});
    table.add_row({"fast serial (lock-step)", util::fixed(fast_serial_s, 3),
                   util::fixed(fast_serial_s > 0.0 ? serial_s / fast_serial_s : 0.0, 2) +
                       "x"});
    table.add_row({"fast pool x" + std::to_string(threads) + " (lock-step)",
                   util::fixed(fast_parallel_s, 3),
                   util::fixed(fast_parallel_s > 0.0 ? serial_s / fast_parallel_s : 0.0,
                               2) +
                       "x"});
    table.add_row({"cache cold", util::fixed(cold_s, 3),
                   util::fixed(cold_s > 0.0 ? serial_s / cold_s : 0.0, 2) + "x"});
    table.add_row({"cache warm", util::fixed(warm_s, 3),
                   util::fixed(warm_s > 0.0 ? serial_s / warm_s : 0.0, 2) + "x"});
    std::cout << table.render();
    std::cout << "\nhardware threads: " << hw << ", threads configured: "
              << (threads_configured < 1 ? std::string("auto")
                                         : std::to_string(threads_configured))
              << ", pool size (effective): " << pool.size()
              << ", tasks executed: " << pool.tasks_executed()
              << ", stolen: " << pool.tasks_stolen() << "\n";
    std::cout << "lock-step (fast preset, width " << width << "): " << groups_serial
              << " groups per sweep serial, " << groups_pool << " on the pool; pool "
              << util::fixed(fast_speedup, 2) << "x vs fast serial\n";
    std::cout << "cache: " << cache_stats.hits << " hits / " << cache_stats.misses
              << " misses (hit rate " << util::fixed(100.0 * cache_stats.hit_rate(), 1)
              << " %), " << cache_stats.bytes << " bytes resident\n";

    // --- JSON snapshot ----------------------------------------------------
    const bool traced = trace.active();
    if (traced) {
        if (!trace.finish()) {
            std::cerr << "trace write failed: " << trace.path() << "\n";
            return 1;
        }
        std::cout << "chrome trace: " << trace.path() << "\n";
    }
    const std::string json_path = cli.get("json", std::string("BENCH_exec.json"));
    {
        const std::string metrics =
            traced ? exec::MetricsRegistry::global().to_json_with(
                         "spans", obs::spans_json(obs::Tracer::global()))
                   : exec::MetricsRegistry::global().to_json();
        std::ofstream json(json_path);
        json << "{\n"
             << "  \"workload\": \"fig2_spice_ratio_sweep\",\n"
             << "  \"points\": " << configs.size() * grid.size() << ",\n"
             << "  \"hardware_threads\": " << hw << ",\n"
             << "  \"pool_threads_configured\": " << threads_configured << ",\n"
             << "  \"pool_threads_effective\": " << pool.size() << ",\n"
             << "  \"serial_s\": " << serial_s << ",\n"
             << "  \"parallel_s\": " << parallel_s << ",\n"
             << "  \"speedup\": " << speedup << ",\n"
             << "  \"bitwise_identical\": " << (identical ? "true" : "false") << ",\n"
             << "  \"lockstep_width\": " << width << ",\n"
             << "  \"lockstep_groups_serial\": " << groups_serial << ",\n"
             << "  \"lockstep_groups_pool\": " << groups_pool << ",\n"
             << "  \"lockstep_serial_s\": " << fast_serial_s << ",\n"
             << "  \"lockstep_parallel_s\": " << fast_parallel_s << ",\n"
             << "  \"lockstep_speedup\": " << fast_speedup << ",\n"
             << "  \"lockstep_bitwise_identical\": "
             << (fast_identical ? "true" : "false") << ",\n"
             << "  \"cache_cold_s\": " << cold_s << ",\n"
             << "  \"cache_warm_s\": " << warm_s << ",\n"
             << "  \"cache_hits\": " << cache_stats.hits << ",\n"
             << "  \"cache_misses\": " << cache_stats.misses << ",\n"
             << "  \"cache_hit_rate\": " << cache_stats.hit_rate() << ",\n"
             << "  \"metrics\": " << metrics << "\n"
             << "}\n";
    }
    std::cout << "runtime snapshot: " << json_path << "\n";

    bench::ShapeChecks checks;
    checks.expect("parallel periods bitwise identical to serial (determinism contract)",
                  identical);
    checks.expect("lock-step pool periods bitwise identical to lock-step serial",
                  fast_identical);
    checks.expect("warm cached sweeps bitwise identical to serial", warm_identical);
    checks.expect("warm pass is pure cache hits (one per sweep)",
                  cache_stats.hits == configs.size() &&
                      cache_stats.misses == configs.size());
    checks.expect("warm cached pass at least 100x faster than serial",
                  warm_s > 0.0 && serial_s / warm_s > 100.0);
    if (hw >= 4) {
        checks.expect("parallel speedup >= 2x at 4 threads (acceptance criterion)",
                      speedup >= 2.0);
    } else {
        // A speedup gate is unfalsifiable without the cores to run on;
        // report the measurement instead of faking a PASS/FAIL.
        std::cout << "note: only " << hw << " hardware thread(s) — the >= 2x "
                  << "speedup gate needs >= 4 and is reported unchecked "
                  << "(measured " << util::fixed(speedup, 2) << "x)\n";
    }
    return checks.report();
}
