// POPULATION — population-scale variability & lifetime study: sharded
// Monte Carlo over 10^4..10^5 virtual dice with streaming statistics.
//
// Reproduces the paper's yield claim at scale: per-die calibration
// budget (golden / one-point / two-point) against the +-1 degC band,
// fresh and after a 10000 h aging horizon with and without periodic
// in-field recalibration. Emits the yield-vs-calibration-budget curve
// and the worst-case inaccuracy distribution per budget.
//
// Determinism gates (the engine's contract, checked bitwise):
//   * shard-size and thread-count invariance of the final statistics;
//   * kill-and-resume: a run killed mid-population (FaultInjector
//     ShardKill) resumes from its checkpoint to bitwise-identical
//     final statistics;
//   * streaming vs exact: the O(1)-memory Welford/P^2 summaries match
//     an exact two-pass over the same DieEvaluator within tolerance
//     (quantiles within 0.5% of the metric's spread).
//
//   $ ./bench/bench_population [--quick] [--json=BENCH_population.json]
//
// `--quick` runs 10^4 dice (the tier-1 stage); the full run 10^5.
// Every engine run is also timed: its wall time and dice/s are printed
// and written to the snapshot (reported, not gated).
#include "bench_common.hpp"

#include "exec/fault_injector.hpp"
#include "exec/metrics.hpp"
#include "exec/thread_pool.hpp"
#include "population/engine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

using namespace stsense;

namespace {

population::PopulationConfig base_config(std::uint64_t dice) {
    population::PopulationConfig cfg;
    cfg.dice = dice;
    cfg.shard_size = 1024;
    cfg.seed = 20260808;
    cfg.variation.vth_sigma = 0.015;
    cfg.variation.kp_rel_sigma = 0.04;
    cfg.variation.vdd_rel_sigma = 0.005;
    cfg.mismatch = {0.01, 0.004};
    // Aging sized so the 10000 h horizon degrades but does not destroy
    // the population: a few mV of Vth drift, a few percent drive loss.
    cfg.aging.vth_drift_v = 0.0008;
    cfg.aging.drive_degradation_rel = 0.0015;
    cfg.aging.rate_sigma_ln = 0.2;
    cfg.horizon_hours = 10000.0;
    cfg.yield_limit_c = 1.0;
    return cfg;
}

/// Exact two-pass reference: materialize every die's metric vector
/// (what the streaming engine refuses to do), then sort per metric.
struct ExactStats {
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::vector<double> quantiles; ///< One per requested p.
};

std::vector<ExactStats> exact_two_pass(
    const population::PopulationConfig& cfg) {
    const population::DieEvaluator eval(cfg);
    const std::size_t n = static_cast<std::size_t>(cfg.dice);
    std::vector<std::array<double, population::kMetricCount>> rows(n);
    exec::ThreadPool::global().parallel_for(n, 0, [&](std::size_t b,
                                                      std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
            rows[i] = eval.evaluate(static_cast<std::uint64_t>(i));
        }
    });

    std::vector<ExactStats> out(population::kMetricCount);
    std::vector<double> col(n);
    for (int m = 0; m < population::kMetricCount; ++m) {
        for (std::size_t i = 0; i < n; ++i) col[i] = rows[i][m];
        std::sort(col.begin(), col.end());
        double sum = 0.0;
        for (double v : col) sum += v;
        ExactStats& s = out[static_cast<std::size_t>(m)];
        s.mean = sum / static_cast<double>(n);
        s.min = col.front();
        s.max = col.back();
        for (double p : cfg.quantiles) {
            // The interpolated order statistic P^2 converges to.
            const double rank = p * static_cast<double>(n - 1);
            const std::size_t lo = static_cast<std::size_t>(rank);
            const std::size_t hi = std::min(lo + 1, n - 1);
            const double frac = rank - static_cast<double>(lo);
            s.quantiles.push_back(col[lo] + frac * (col[hi] - col[lo]));
        }
    }
    return out;
}

bool summaries_bitwise_equal(const population::PopulationResult& a,
                             const population::PopulationResult& b) {
    if (a.yield_fresh != b.yield_fresh || a.yield_aged != b.yield_aged ||
        a.metrics.size() != b.metrics.size()) {
        return false;
    }
    for (std::size_t m = 0; m < a.metrics.size(); ++m) {
        const auto& x = a.metrics[m];
        const auto& y = b.metrics[m];
        if (x.count != y.count || x.mean != y.mean || x.stddev != y.stddev ||
            x.min != y.min || x.max != y.max ||
            x.quantiles.size() != y.quantiles.size()) {
            return false;
        }
        for (std::size_t j = 0; j < x.quantiles.size(); ++j) {
            if (x.quantiles[j].value != y.quantiles[j].value) return false;
        }
    }
    return true;
}

/// Wall time of one engine run. `dice` counts the dice the run
/// evaluated, so a resume excludes the ones it restored.
struct RunTiming {
    std::string run;
    std::uint64_t dice = 0;
    double wall_s = 0.0;

    double dice_per_s() const {
        return wall_s > 0.0 ? static_cast<double>(dice) / wall_s : 0.0;
    }
};

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

const population::MetricSummary& metric_of(
    const population::PopulationResult& r, population::Metric m) {
    return r.metrics[static_cast<std::size_t>(m)];
}

} // namespace

int main(int argc, char** argv) {
    const util::Cli cli(argc, argv);
    const bool quick = cli.has("quick");
    const std::uint64_t dice = quick ? 10'000 : 100'000;
    bench::banner("POPULATION",
                  "sharded Monte-Carlo variability & lifetime study: yield "
                  "vs calibration budget over " +
                      std::to_string(dice) + " virtual dice");

    bench::ShapeChecks checks;
    std::vector<RunTiming> timings;
    auto timed_run = [&](const std::string& run,
                         const population::PopulationConfig& c,
                         const population::PopulationRuntime& rt = {}) {
        const auto t0 = std::chrono::steady_clock::now();
        auto res = population::run_population(c, rt);
        timings.push_back({run, res.dice - res.resumed_dice, seconds_since(t0)});
        return res;
    };

    // ---- determinism: shard size, thread count ---------------------------
    const auto cfg = base_config(dice);
    const auto r_ref = timed_run("reference", cfg);

    {
        auto cfg_reshard = cfg;
        cfg_reshard.shard_size = 512;
        const auto r_reshard = timed_run("shard 512", cfg_reshard);

        population::PopulationRuntime rt_serial;
        rt_serial.parallel = false;
        const auto r_serial = timed_run("serial", cfg, rt_serial);

        checks.expect("final statistics are bitwise invariant to shard size",
                      summaries_bitwise_equal(r_ref, r_reshard));
        checks.expect("final statistics are bitwise invariant to threading "
                      "(parallel == serial)",
                      summaries_bitwise_equal(r_ref, r_serial));
    }

    // ---- determinism: kill mid-population, resume from the checkpoint ---
    {
        const std::string ckpt_path =
            cli.get("ckpt", std::string("bench_population_resume.ckpt"));
        const std::size_t kill_shard =
            (cfg.dice / cfg.shard_size) / 2; // Mid-population.

        population::PopulationRuntime rt_kill;
        rt_kill.checkpoint_path = ckpt_path;
        rt_kill.checkpoint_every = 2; // Leave an unflushed tail behind.
        bool killed = false;
        {
            exec::FaultInjector::Config fc;
            fc.seed = 1;
            fc.p_shard_kill = 1.0;
            fc.only_units = {kill_shard};
            exec::FaultInjector injector(fc);
            exec::FaultInjector::Scope scope(injector);
            const auto t0 = std::chrono::steady_clock::now();
            try {
                (void)population::run_population(cfg, rt_kill);
            } catch (const exec::InjectedKill&) {
                killed = true;
            }
            timings.push_back({"killed", (kill_shard + 1) * cfg.shard_size,
                               seconds_since(t0)});
        }

        population::PopulationRuntime rt_resume;
        rt_resume.checkpoint_path = ckpt_path;
        const auto r_resumed = timed_run("resumed", cfg, rt_resume);

        std::cout << "kill/resume: killed after shard " << kill_shard << ", "
                  << r_resumed.resumed_dice << "/" << cfg.dice
                  << " dice restored from the checkpoint\n";
        checks.expect("ShardKill interrupts the run mid-population", killed);
        checks.expect("resume restores a non-empty prefix from the checkpoint",
                      r_resumed.resumed_dice > 0 &&
                          r_resumed.resumed_dice < cfg.dice);
        checks.expect("kill-and-resume final statistics are bitwise the "
                      "uninterrupted run's",
                      summaries_bitwise_equal(r_ref, r_resumed));
    }

    // ---- streaming vs exact two-pass -------------------------------------
    {
        const auto t0 = std::chrono::steady_clock::now();
        const auto exact = exact_two_pass(cfg);
        timings.push_back({"exact two-pass", cfg.dice, seconds_since(t0)});
        bool mean_ok = true;
        bool minmax_ok = true;
        bool quant_ok = true;
        double worst_q_rel = 0.0;
        std::string worst_at;
        for (int m = 0; m < population::kMetricCount; ++m) {
            const auto& s = r_ref.metrics[static_cast<std::size_t>(m)];
            const auto& e = exact[static_cast<std::size_t>(m)];
            const double spread = e.max - e.min;
            mean_ok = mean_ok && std::abs(s.mean - e.mean) <=
                                     1e-9 * std::max(1.0, std::abs(e.mean));
            minmax_ok = minmax_ok && s.min == e.min && s.max == e.max;
            for (std::size_t j = 0; j < s.quantiles.size(); ++j) {
                const double err =
                    std::abs(s.quantiles[j].value - e.quantiles[j]);
                const double rel = spread > 0.0 ? err / spread : 0.0;
                if (rel > worst_q_rel) {
                    worst_q_rel = rel;
                    worst_at = s.name + " p" +
                               std::to_string(static_cast<int>(
                                   100.0 * s.quantiles[j].p));
                }
                quant_ok = quant_ok && rel <= 0.005;
            }
        }
        std::cout << "streaming vs exact: worst quantile deviation "
                  << util::fixed(100.0 * worst_q_rel, 3) << "% of spread at "
                  << worst_at << " (gate 0.5%)\n";
        checks.expect("streaming mean matches the exact two-pass (rel 1e-9)",
                      mean_ok);
        checks.expect("streaming min/max are exact", minmax_ok);
        checks.expect("P^2 quantiles within 0.5% of the exact order "
                      "statistics (per metric spread)",
                      quant_ok);
    }

    // ---- yield vs calibration budget -------------------------------------
    struct BudgetRow {
        std::string policy;
        population::PopulationResult never; ///< No in-field recalibration.
        population::PopulationResult recal; ///< Periodic 1000 h re-trim.
    };
    std::vector<BudgetRow> curve;
    for (const auto policy : {population::CalibrationPolicy::Golden,
                              population::CalibrationPolicy::OnePoint,
                              population::CalibrationPolicy::TwoPoint}) {
        BudgetRow row;
        row.policy = population::to_string(policy);
        auto c = cfg;
        c.calibration = policy;
        row.never = timed_run(row.policy + " never", c);
        c.recal.policy = population::RecalPolicy::Periodic;
        c.recal.interval_hours = 1000.0;
        c.recal.temp_c = 60.0;
        row.recal = timed_run(row.policy + " recal", c);
        curve.push_back(std::move(row));
    }

    util::Table yield_table({"calibration", "yield fresh", "yield aged",
                             "yield aged+recal", "fresh p99 (degC)",
                             "fresh max (degC)", "aged p99 (degC)"});
    for (const auto& row : curve) {
        const auto& fresh =
            metric_of(row.never, population::Metric::FreshMaxAbsErrC);
        const auto& aged =
            metric_of(row.never, population::Metric::AgedMaxAbsErrC);
        yield_table.add_row(
            {row.policy, util::fixed(100.0 * row.never.yield_fresh, 2) + "%",
             util::fixed(100.0 * row.never.yield_aged, 2) + "%",
             util::fixed(100.0 * row.recal.yield_aged, 2) + "%",
             util::fixed(fresh.quantiles[2].value, 3),
             util::fixed(fresh.max, 3), util::fixed(aged.quantiles[2].value, 3)});
    }
    std::cout << "\nyield vs calibration budget (limit +-"
              << util::fixed(cfg.yield_limit_c, 1) << " degC, horizon "
              << util::fixed(cfg.horizon_hours, 0) << " h):\n"
              << yield_table.render();

    util::Table dist_table({"calibration", "p50", "p90", "p99", "max"});
    for (const auto& row : curve) {
        const auto& fresh =
            metric_of(row.never, population::Metric::FreshMaxAbsErrC);
        dist_table.add_row({row.policy,
                            util::fixed(fresh.quantiles[0].value, 3),
                            util::fixed(fresh.quantiles[1].value, 3),
                            util::fixed(fresh.quantiles[2].value, 3),
                            util::fixed(fresh.max, 3)});
    }
    std::cout << "\nworst-case fresh inaccuracy distribution (degC):\n"
              << dist_table.render();

    const auto& golden = curve[0];
    const auto& one_point = curve[1];
    const auto& two_point = curve[2];
    auto fresh_p = [](const BudgetRow& row, std::size_t j) {
        return metric_of(row.never, population::Metric::FreshMaxAbsErrC)
            .quantiles[j]
            .value;
    };
    bool dist_monotone = true;
    for (std::size_t j = 0; j < 3; ++j) {
        dist_monotone = dist_monotone &&
                        fresh_p(two_point, j) < fresh_p(one_point, j) &&
                        fresh_p(one_point, j) < fresh_p(golden, j);
    }
    checks.expect("fresh inaccuracy distribution is monotone in calibration "
                  "budget (p50/p90/p99: two_point < one_point < golden)",
                  dist_monotone);
    checks.expect("per-die calibration beats the golden budget outright "
                  "(fresh yield)",
                  two_point.never.yield_fresh > golden.never.yield_fresh &&
                      two_point.never.yield_fresh >=
                          one_point.never.yield_fresh);
    checks.expect("aging costs yield (aged <= fresh under two-point)",
                  two_point.never.yield_aged <= two_point.never.yield_fresh);
    // Recal re-trims with the die's calibrated gain, so the recovery
    // claim belongs to the per-die budget: with a golden gain the
    // re-trim can't beat the low-budget flows' lucky per-die
    // cancellations at a tight yield band.
    checks.expect("periodic recalibration recovers aged yield under the "
                  "per-die budget (two_point: recal > never)",
                  two_point.recal.yield_aged > two_point.never.yield_aged);
    const double aged_p99_never =
        metric_of(two_point.never, population::Metric::AgedMaxAbsErrC)
            .quantiles[2]
            .value;
    const double aged_p99_recal =
        metric_of(two_point.recal, population::Metric::AgedMaxAbsErrC)
            .quantiles[2]
            .value;
    checks.expect("recalibration tightens the aged p99 error (two_point)",
                  aged_p99_recal < aged_p99_never);

    util::Table timing_table({"run", "dice", "wall_s", "dice_per_s"});
    for (const auto& t : timings) {
        timing_table.add_row({t.run, std::to_string(t.dice),
                              util::fixed(t.wall_s, 3),
                              util::fixed(t.dice_per_s(), 0)});
    }
    std::cout << "\nengine runs on " << exec::ThreadPool::global().size()
              << " pool threads (wall time, not gated):\n"
              << timing_table.render();

    // ---- snapshot -------------------------------------------------------
    const std::string json_path =
        cli.get("json", std::string("BENCH_population.json"));
    {
        std::ofstream json(json_path);
        json << "{\n"
             << "  \"workload\": \"population\",\n"
             << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
             << "  \"dice\": " << dice << ",\n"
             << "  \"shard_size\": " << cfg.shard_size << ",\n"
             << "  \"yield_limit_c\": " << cfg.yield_limit_c << ",\n"
             << "  \"horizon_hours\": " << cfg.horizon_hours << ",\n"
             << "  \"fingerprint\": \"" << std::hex << r_ref.fingerprint
             << std::dec << "\",\n"
             << "  \"budgets\": [";
        for (std::size_t i = 0; i < curve.size(); ++i) {
            const auto& row = curve[i];
            const auto& fresh =
                metric_of(row.never, population::Metric::FreshMaxAbsErrC);
            const auto& aged =
                metric_of(row.never, population::Metric::AgedMaxAbsErrC);
            json << (i == 0 ? "\n" : ",\n") << "    {\"policy\": \""
                 << row.policy << "\", "
                 << "\"yield_fresh\": " << row.never.yield_fresh << ", "
                 << "\"yield_aged\": " << row.never.yield_aged << ", "
                 << "\"yield_aged_recal\": " << row.recal.yield_aged << ", "
                 << "\"fresh_p50_c\": " << fresh.quantiles[0].value << ", "
                 << "\"fresh_p90_c\": " << fresh.quantiles[1].value << ", "
                 << "\"fresh_p99_c\": " << fresh.quantiles[2].value << ", "
                 << "\"fresh_max_c\": " << fresh.max << ", "
                 << "\"aged_p99_c\": " << aged.quantiles[2].value << "}";
        }
        json << "\n  ],\n"
             << "  \"pool_threads\": " << exec::ThreadPool::global().size()
             << ",\n"
             << "  \"runs\": [";
        for (std::size_t i = 0; i < timings.size(); ++i) {
            const auto& t = timings[i];
            json << (i == 0 ? "\n" : ",\n") << "    {\"run\": \"" << t.run
                 << "\", \"dice\": " << t.dice << ", \"wall_s\": " << t.wall_s
                 << ", \"dice_per_s\": " << t.dice_per_s() << "}";
        }
        json << "\n  ],\n"
             << "  \"metrics\": " << exec::MetricsRegistry::global().to_json()
             << "\n"
             << "}\n";
    }
    std::cout << "\npopulation snapshot: " << json_path << "\n";
    return checks.report();
}
