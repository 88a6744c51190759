// design_spice — the paper's own computation: transistor-level
// temperature sweeps of every Fig. 3 cell mix and every Fig. 2 Wp/Wn
// ratio on the 17-point paper grid, with the fast SPICE preset, on a
// pool of kThreads workers. Each pass gets a fresh result cache, so
// every sweep is a cache miss plus an insert. The seed only permutes the
// candidate order; the outputs do not depend on it.
//
// One unit of work is one pass (every candidate once). Outputs: each
// sweep's periods and max |NL| against the committed reference
// (1e-6 relative period, 1e-4 pp NL).
#include "common.hpp"

#include "analysis/nonlinearity.hpp"
#include "exec/result_cache.hpp"
#include "exec/thread_pool.hpp"
#include "phys/technology.hpp"
#include "ring/sweep.hpp"
#include "sensor/presets.hpp"
#include "util/sequence.hpp"

#include <cmath>
#include <cstdio>
#include <memory>

namespace perfbench {

namespace {

using namespace stsense;

struct Candidate {
    std::string name;
    ring::RingConfig config;
};

std::vector<Candidate> candidates() {
    std::vector<Candidate> out;
    for (auto& [name, cfg] : sensor::presets::fig3_configurations()) {
        out.push_back({name, cfg});
    }
    for (const double r : sensor::presets::kFig2Ratios) {
        char name[48];
        std::snprintf(name, sizeof(name), "5xINV Wp/Wn=%.2f", r);
        out.push_back({name, ring::RingConfig::uniform(cells::CellKind::Inv,
                                                       sensor::presets::kPaperStages, r)});
    }
    return out;
}

/// The candidate whose first traced window is dumped for check_trace.py
/// (a short INV-ratio sweep keeps the dump small).
constexpr const char* kDumpCandidate = "5xINV Wp/Wn=3.00";

} // namespace

int run_design_spice(const Args& args, Report& r) {
    const auto tech = phys::cmos350();
    auto cands = candidates();
    if (args.smoke) cands.erase(cands.begin(), cands.end() - 2); // keeps kDumpCandidate
    Rng rng(args.seed);
    shuffle(cands, rng);

    const auto grid = util::arange(-50.0, 150.0, 12.5);
    auto opts = ring::SpiceRingOptions::fast();
    opts.record_waveform = false;

    const std::size_t capacity = std::size_t{1} << 18;
    r.doc.set("host", host_block(capacity));
    Json order = Json::array();
    for (const auto& c : cands) order.push_back(c.name);
    r.doc.set("candidates", std::move(order));
    r.doc.set("points_per_pass", static_cast<std::uint64_t>(cands.size() * grid.size()));

    const Json ref = read_json_file(args.reference).at("candidates");
    Json outputs = Json::object();

    auto check = [&](const Candidate& c, const ring::SweepResult& res) {
        ++r.attempted;
        const Json& want = ref.at(c.name);
        if (!res.complete()) {
            r.fail(c.name + ": sweep incomplete");
            return;
        }
        const double nl = analysis::max_nonlinearity_percent(res.temps_c, res.period_s);
        if (args.write_reference && !outputs.contains(c.name)) {
            Json periods = Json::array();
            for (double p : res.period_s) periods.push_back(p);
            Json o = Json::object();
            o.set("period_s", std::move(periods));
            o.set("max_nl_pct", nl);
            outputs.set(c.name, std::move(o));
        }
        if (want.is_null()) {
            if (!args.write_reference) r.fail(c.name + ": no reference");
            return;
        }
        const Json& periods = want.at("period_s");
        if (periods.size() != res.period_s.size()) {
            r.fail(c.name + ": grid size differs from the reference");
            return;
        }
        for (std::size_t i = 0; i < res.period_s.size(); ++i) {
            const double w = periods.at(i).as_double();
            if (!(std::abs(res.period_s[i] - w) <= 1e-6 * std::abs(w))) {
                r.fail(c.name + ": period off the reference at point " + std::to_string(i));
                return;
            }
        }
        if (!(std::abs(nl - want.at("max_nl_pct").as_double()) <= 1e-4)) {
            r.fail(c.name + ": max |NL| off the reference");
        }
    };

    std::unique_ptr<exec::ThreadPool> pool;
    SpanLedger spans(capacity, {"ring.sweep.point", "spice.transient.lockstep", "exec.cache.get"});
    bool dumped = false;
    double traced_wall_s = 0.0;
    std::vector<const std::string*> call_name; ///< Candidate of each call_ms entry.

    // One pass; returns the summed sweep-call wall [s]. Traced passes
    // open one span window per sweep (the pool is quiescent between
    // sweeps), which bounds the per-thread buffer to one sweep's events.
    auto run_pass = [&](bool traced, std::vector<double>* call_ms) {
        exec::ResultCache cache(exec::ResultCache::kDefaultByteBudget,
                                &exec::MetricsRegistry::global(), "exec.cache");
        ring::SweepRuntime rt;
        rt.pool = pool.get();
        rt.cache = &cache;
        double wall = 0.0;
        for (const auto& c : cands) {
            if (traced) spans.open();
            const auto t0 = Clock::now();
            const auto res = ring::temperature_sweep(tech, c.config, grid,
                                                     ring::Engine::Spice, opts, rt);
            const double s = seconds_since(t0);
            if (traced) {
                const bool dump = !dumped && !args.trace_dump.empty() &&
                                  c.name == kDumpCandidate;
                spans.close(dump ? args.trace_dump : "");
                dumped = dumped || dump;
                traced_wall_s += s;
            }
            wall += s;
            if (call_ms != nullptr) {
                call_ms->push_back(1e3 * s);
                call_name.push_back(&c.name);
            }
            check(c, res);
        }
        return wall;
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
        run_pass(false, nullptr);
        if (k == 0) {
            ledger = counter_delta(counter_snapshot(), before);
            ledger["exec.pool.tasks"] = pool->tasks_executed() - tasks0;
        }
        setup_s.push_back(seconds_since(t0));
    }
    report_setup(r, setup_s);
    r.doc.set("ledger", counters_json(ledger));

    // ---- measurement -----------------------------------------------------
    std::vector<double> call_ms;
    std::vector<double> plain_walls;
    std::vector<double> traced_walls;
    const auto stolen0 = pool->tasks_stolen();
    const auto m0 = Clock::now();
    for (int pass = 0;; ++pass) {
        const bool traced = args.trace && pass % 2 == 1;
        const double wall = run_pass(traced, traced ? nullptr : &call_ms);
        (traced ? traced_walls : plain_walls).push_back(wall);
        const bool both = !args.trace || !traced_walls.empty();
        if (seconds_since(m0) >= args.seconds && both) break;
    }
    const double passes = static_cast<double>(plain_walls.size() + traced_walls.size());

    // Host noise on a shared machine comes in bursts of a second or two,
    // so the end-to-end figures are built from each candidate's median
    // call time: a typical pass is the sum of those medians, and the
    // latency quantiles run over the candidates' medians (a pooled
    // quantile would jump between candidates whose sweeps differ 3x).
    std::vector<double> cand_median_ms;
    for (const auto& c : cands) {
        std::vector<double> v;
        for (std::size_t i = 0; i < call_ms.size(); ++i) {
            if (call_name[i] == &c.name) v.push_back(call_ms[i]);
        }
        cand_median_ms.push_back(median(v));
    }
    double typical_pass_ms = 0.0;
    for (double m : cand_median_ms) typical_pass_ms += m;
    r.metric("work_per_s", 1e3 * static_cast<double>(cands.size() * grid.size()) / typical_pass_ms);
    r.metric("op_p50_ms", quantile(cand_median_ms, 0.5));
    r.metric("op_p90_ms", quantile(cand_median_ms, 0.9));
    r.metric("peak_rss_mb", peak_rss_mb());
    r.doc.set("passes", passes);
    Json walls = Json::array();
    for (double w : plain_walls) walls.push_back(w);
    r.doc.set("pass_walls_s", std::move(walls));
    Json medians = Json::object();
    for (std::size_t i = 0; i < cands.size(); ++i) medians.set(cands[i].name, cand_median_ms[i]);
    r.doc.set("candidate_median_ms", std::move(medians));
    r.doc.set("sweep_calls", static_cast<std::uint64_t>(call_ms.size()));

    if (args.trace) {
        emit_layers(r, spans, static_cast<double>(traced_walls.size()), traced_wall_s, ledger);
        r.metric("ring.sweep.call_p50_ms", quantile(call_ms, 0.5));
        r.metric("exec.pool.stolen",
                 static_cast<double>(pool->tasks_stolen() - stolen0) / passes);
        r.metric("obs.trace_overhead_pct",
                 100.0 * (median(traced_walls) / median(plain_walls) - 1.0));
        r.doc.set("spans", spans.to_json());
        if (spans.dropped() > 0) {
            r.fail("trace dropped " + std::to_string(spans.dropped()) + " events");
        }
    }
    if (args.write_reference) {
        Json refdoc = Json::object();
        Json g = Json::array();
        for (double t : grid) g.push_back(t);
        refdoc.set("grid_c", std::move(g));
        refdoc.set("candidates", std::move(outputs));
        r.doc.set("reference", std::move(refdoc));
    }
    return 0;
}

} // namespace perfbench
