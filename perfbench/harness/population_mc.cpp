// population_mc — a yield study: population::run_population on the
// population bench's base configuration (analytic engine, die-to-die
// variation, stage mismatch, aging, two-point calibration, shards of
// 1024 dice), checkpointing every shard to a scratch file that the
// engine removes when the run completes. The seed is the population
// seed, so every seed draws different dice.
//
// One unit of work is one pass (one whole population). Outputs: every
// pass's final summaries must equal, bitwise, the committed reference
// of a named seed, or a serial replay for any other seed.
#include "common.hpp"

#include "exec/metrics.hpp"
#include "exec/thread_pool.hpp"
#include "population/engine.hpp"

#include <unistd.h>

#include <filesystem>
#include <memory>

namespace perfbench {

namespace {

using namespace stsense;

population::PopulationConfig base_config(std::uint64_t dice, std::uint64_t seed) {
    population::PopulationConfig cfg;
    cfg.dice = dice;
    cfg.shard_size = 1024;
    cfg.seed = seed;
    cfg.variation.vth_sigma = 0.015;
    cfg.variation.kp_rel_sigma = 0.04;
    cfg.variation.vdd_rel_sigma = 0.005;
    cfg.mismatch = {0.01, 0.004};
    cfg.aging.vth_drift_v = 0.0008;
    cfg.aging.drive_degradation_rel = 0.0015;
    cfg.aging.rate_sigma_ln = 0.2;
    cfg.horizon_hours = 10000.0;
    cfg.yield_limit_c = 1.0;
    return cfg;
}

/// The result fields the bitwise check covers, as JSON (doubles dump
/// with round-trip precision, so parsing a reference back is exact).
Json summary_json(const population::PopulationResult& res) {
    Json out = Json::object();
    out.set("yield_fresh", res.yield_fresh);
    out.set("yield_aged", res.yield_aged);
    Json metrics = Json::object();
    for (const auto& m : res.metrics) {
        Json j = Json::object();
        j.set("count", m.count);
        j.set("mean", m.mean);
        j.set("stddev", m.stddev);
        j.set("min", m.min);
        j.set("max", m.max);
        Json q = Json::array();
        for (const auto& e : m.quantiles) q.push_back(e.value);
        j.set("quantiles", std::move(q));
        metrics.set(m.name, std::move(j));
    }
    out.set("metrics", std::move(metrics));
    return out;
}

} // namespace

int run_population_mc(const Args& args, Report& r) {
    const std::uint64_t dice = args.smoke ? 16384 : 100000;
    const auto cfg = base_config(dice, args.seed);
    const std::size_t shards = (dice + cfg.shard_size - 1) / cfg.shard_size;
    const std::size_t capacity = std::size_t{1} << 17;
    r.doc.set("host", host_block(capacity));
    r.doc.set("dice_per_pass", dice);

    const std::string ckpt = args.scratch + "/population_" +
                             std::to_string(::getpid()) + ".ckpt";
    std::unique_ptr<exec::ThreadPool> pool;

    // Shard latency comes from the engine's own per-shard callback; the
    // ledger pass additionally sums the checkpoint file's size after
    // every flush (the checkpoint flushes on every shard).
    std::vector<double> shard_ms;
    std::vector<double>* shard_sink = nullptr;
    std::uint64_t ckpt_bytes = 0;
    bool count_bytes = false;
    Clock::time_point last_shard;

    auto run_pass = [&]() {
        population::PopulationRuntime rt;
        rt.pool = pool.get();
        rt.checkpoint_path = ckpt;
        rt.checkpoint_every = 1;
        rt.on_shard = [&](const population::PopulationProgress&) {
            const auto now = Clock::now();
            if (shard_sink != nullptr) {
                shard_sink->push_back(
                    1e3 * std::chrono::duration<double>(now - last_shard).count());
            }
            if (count_bytes) {
                std::error_code ec;
                const auto n = std::filesystem::file_size(ckpt, ec);
                if (!ec) ckpt_bytes += n;
            }
            last_shard = Clock::now();
        };
        last_shard = Clock::now();
        return population::run_population(cfg, rt);
    };

    // Every pass's summaries are kept and compared once the timed phase
    // is over, against a named seed's committed reference or, for any
    // other seed, a serial replay.
    std::vector<Json> results;
    auto check = [&](const population::PopulationResult& res) {
        ++r.attempted;
        results.push_back(summary_json(res));
        if (std::filesystem::exists(ckpt)) r.fail("checkpoint file left behind");
    };

    // ---- set-up: pool + discarded warm-up pass, several times ------------
    Counters ledger;
    std::vector<double> setup_s;
    for (int k = 0; k < args.setups; ++k) {
        const auto t0 = k == 0 ? process_start() : Clock::now();
        pool.reset();
        pool = std::make_unique<exec::ThreadPool>(kThreads);
        const auto before = counter_snapshot();
        const auto tasks0 = pool->tasks_executed();
        count_bytes = k == 0;
        check(run_pass());
        count_bytes = false;
        if (k == 0) {
            ledger = counter_delta(counter_snapshot(), before);
            ledger["exec.pool.tasks"] = pool->tasks_executed() - tasks0;
            ledger["exec.checkpoint.bytes"] = ckpt_bytes;
        }
        setup_s.push_back(seconds_since(t0));
    }
    report_setup(r, setup_s);
    r.doc.set("ledger", counters_json(ledger));

    // ---- measurement -----------------------------------------------------
    SpanLedger spans(capacity, {});
    std::vector<double> plain_walls;
    std::vector<double> traced_walls;
    std::vector<std::vector<double>> pass_shard_ms; ///< Per untraced pass.
    const auto stolen0 = pool->tasks_stolen();
    const auto m0 = Clock::now();
    for (int pass = 0;; ++pass) {
        const bool traced = args.trace && pass % 2 == 1;
        if (!traced) pass_shard_ms.emplace_back();
        shard_sink = traced ? nullptr : &pass_shard_ms.back();
        if (traced) spans.open();
        const auto t0 = Clock::now();
        const auto res = run_pass();
        const double wall = seconds_since(t0);
        if (traced) spans.close(traced_walls.empty() ? args.trace_dump : "");
        (traced ? traced_walls : plain_walls).push_back(wall);
        check(res);
        const bool both = !args.trace || !traced_walls.empty();
        if (seconds_since(m0) >= args.seconds && both) break;
    }
    shard_sink = nullptr;

    // The committed reference holds full-size populations only.
    const Json refdoc = read_json_file(args.reference);
    Json want = refdoc.at("dice").as_double() == static_cast<double>(dice)
                    ? refdoc.at("seeds").at(std::to_string(args.seed))
                    : Json();
    r.doc.set("reference_kind", want.is_null() ? "serial_replay" : "committed");
    if (args.write_reference) {
        want = results.front();
        r.doc.set("reference", want);
    } else if (want.is_null()) {
        population::PopulationRuntime serial;
        serial.parallel = false;
        want = summary_json(population::run_population(cfg, serial));
    }
    for (const auto& got : results) {
        if (!(got == want)) r.fail("population summaries differ from the reference");
    }
    const double passes = static_cast<double>(plain_walls.size() + traced_walls.size());

    // The median pass, not the mean, and shard quantiles as the median of
    // each pass's quantile rather than pooled: host noise on a shared
    // machine comes in bursts that slow a few whole passes, and a pooled
    // p90 lands inside those.
    std::vector<double> pass_p50;
    std::vector<double> pass_p90;
    for (const auto& v : pass_shard_ms) {
        pass_p50.push_back(quantile(v, 0.5));
        pass_p90.push_back(quantile(v, 0.9));
        shard_ms.insert(shard_ms.end(), v.begin(), v.end());
    }
    r.metric("work_per_s", static_cast<double>(dice) / median(plain_walls));
    r.metric("op_p50_ms", median(pass_p50));
    r.metric("op_p90_ms", median(pass_p90));
    r.metric("peak_rss_mb", peak_rss_mb());
    r.doc.set("passes", passes);
    Json walls = Json::array();
    for (double w : plain_walls) walls.push_back(w);
    r.doc.set("pass_walls_s", std::move(walls));
    r.doc.set("shards_timed", static_cast<std::uint64_t>(shard_ms.size()));
    r.doc.set("shards_per_pass", static_cast<std::uint64_t>(shards));

    if (args.trace) {
        double traced_wall = 0.0;
        for (double w : traced_walls) traced_wall += w;
        const double units = static_cast<double>(traced_walls.size());
        emit_layers(r, spans, units, traced_wall, ledger);
        r.metric("exec.pool.stolen",
                 static_cast<double>(pool->tasks_stolen() - stolen0) / passes);
        r.metric("population.shard.p50_ms", quantile(shard_ms, 0.5));
        r.metric("population.shard.p95_ms", quantile(shard_ms, 0.95));
        // Fold residual: what a traced pass spent outside the parallel
        // evaluation and the checkpoint flushes (serial fold, summaries,
        // progress publication).
        r.metric("population.fold.residual_ms",
                 (1e3 * traced_wall - spans.total_ms("exec.parallel_for") -
                  spans.total_ms("exec.checkpoint.flush")) / units);

        // Per-die evaluation cost, timed serially on a fixed sample.
        const population::DieEvaluator eval(cfg);
        const std::uint64_t sample = 2000;
        const auto e0 = Clock::now();
        double sink = 0.0;
        for (std::uint64_t d = 0; d < sample; ++d) sink += eval.evaluate(d)[0];
        r.metric("population.eval.die_us",
                 1e6 * seconds_since(e0) / static_cast<double>(sample));
        r.doc.set("eval_sample_checksum", sink);

        r.metric("obs.trace_overhead_pct",
                 100.0 * (median(traced_walls) / median(plain_walls) - 1.0));
        r.doc.set("spans", spans.to_json());
        if (spans.dropped() > 0) {
            r.fail("trace dropped " + std::to_string(spans.dropped()) + " events");
        }
    }
    return 0;
}

} // namespace perfbench
