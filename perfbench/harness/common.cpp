#include "common.hpp"

#include "exec/metrics.hpp"
#include "obs/export.hpp"
#include "util/simd.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {
const Clock::time_point g_process_start = Clock::now();
} // namespace

Clock::time_point process_start() { return g_process_start; }

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

Json host_block(std::size_t trace_capacity) {
#if !defined(__OPTIMIZE__)
    throw std::runtime_error(
        "refusing to report timings from an unoptimized build "
        "(configure perfbench with CMAKE_BUILD_TYPE=Release)");
#endif
    cpu_set_t set;
    CPU_ZERO(&set);
    int affinity = 0;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) affinity = CPU_COUNT(&set);

    const auto& caps = stsense::util::simd_caps();
    Json simd = Json::object();
    simd.set("sse42", caps.sse42);
    simd.set("avx2", caps.avx2);
    simd.set("fma", caps.fma);
    simd.set("avx512f", caps.avx512f);
    simd.set("resolved", stsense::util::simd_level_name(stsense::util::resolve_simd()));

    Json host = Json::object();
    host.set("nproc", affinity);
    host.set("hardware_concurrency",
             static_cast<int>(std::thread::hardware_concurrency()));
    host.set("simd", std::move(simd));
    host.set("build_type", STSENSE_PERFBENCH_BUILD_TYPE);
    host.set("compiler", STSENSE_PERFBENCH_COMPILER);
#if defined(NDEBUG)
    host.set("ndebug", true);
#else
    host.set("ndebug", false);
#endif
    host.set("pool_threads", kThreads);
    host.set("trace_capacity_per_thread", static_cast<std::uint64_t>(trace_capacity));
    return host;
}

Counters counter_snapshot() {
    Counters out;
    const auto parsed =
        Json::parse(stsense::exec::MetricsRegistry::global().to_json());
    if (!parsed.value) return out;
    for (const auto& [name, value] : parsed.value->at("counters").members()) {
        out[name] = static_cast<std::uint64_t>(value.as_double(0.0));
    }
    return out;
}

Counters counter_delta(const Counters& after, const Counters& before) {
    Counters out;
    for (const auto& [name, v] : after) {
        const auto it = before.find(name);
        out[name] = v - (it == before.end() ? 0 : it->second);
    }
    return out;
}

Json counters_json(const Counters& c) {
    Json j = Json::object();
    for (const auto& [name, v] : c) j.set(name, v);
    return j;
}

// ---- SpanLedger ------------------------------------------------------------

SpanLedger::SpanLedger(std::size_t capacity, std::set<std::string> keep_durations)
    : capacity_(capacity), keep_(std::move(keep_durations)) {}

void SpanLedger::open() {
    auto& tracer = stsense::obs::Tracer::global();
    tracer.set_capacity_per_thread(capacity_);
    tracer.enable();
}

void SpanLedger::close(const std::string& dump_path) {
    auto& tracer = stsense::obs::Tracer::global();
    tracer.disable();
    ++windows_;
    dropped_ += tracer.dropped();
    if (!dump_path.empty() &&
        !stsense::obs::write_chrome_trace_file(dump_path, tracer)) {
        throw std::runtime_error("cannot write trace dump " + dump_path);
    }

    const auto events = tracer.merged();
    events_ += events.size();

    // Literal name pointers -> stats, resolved by string once per name.
    std::unordered_map<const char*, Stat*> by_ptr;
    std::unordered_map<const char*, bool> keep_ptr;
    auto stat_of = [&](const char* name) -> Stat* {
        auto it = by_ptr.find(name);
        if (it != by_ptr.end()) return it->second;
        Stat* s = &stats_[name];
        by_ptr.emplace(name, s);
        keep_ptr.emplace(name, keep_.count(name) > 0);
        return s;
    };

    struct Open {
        std::uint64_t end;
        const char* name;
        std::uint64_t dur;
        std::uint64_t child_ns;
    };
    std::map<std::uint32_t, std::vector<Open>> stacks;
    std::map<std::uint32_t, std::uint64_t> per_thread;
    std::map<std::pair<const char*, const char*>, std::uint64_t> rollup;
    auto finish = [&](const Open& o) {
        stat_of(o.name)->self_ns += o.dur - std::min(o.dur, o.child_ns);
    };

    // merged() is sorted by (start, longer first), so on each thread a
    // parent precedes the children it contains.
    for (const auto& me : events) {
        const auto& ev = me.ev;
        ++per_thread[me.tid];
        Stat* s = stat_of(ev.name);
        ++s->count;
        s->total_ns += ev.dur_ns;
        if (keep_ptr[ev.name]) s->dur_ns.push_back(static_cast<double>(ev.dur_ns));

        auto& stack = stacks[me.tid];
        while (!stack.empty() && ev.start_ns >= stack.back().end) {
            finish(stack.back());
            stack.pop_back();
        }
        if (!stack.empty()) {
            stack.back().child_ns += ev.dur_ns;
            rollup[{stack.back().name, ev.name}] += ev.dur_ns;
        }
        stack.push_back({ev.start_ns + ev.dur_ns, ev.name, ev.dur_ns, 0});
    }
    for (auto& [tid, stack] : stacks) {
        while (!stack.empty()) {
            finish(stack.back());
            stack.pop_back();
        }
    }
    for (const auto& [tid, n] : per_thread) {
        max_thread_events_ = std::max<std::uint64_t>(max_thread_events_, n);
    }
    for (const auto& [names, ns] : rollup) {
        rollup_ns_[std::string(names.first) + " > " + names.second] += ns;
    }
    tracer.reset();
}

const SpanLedger::Stat& SpanLedger::stat(const std::string& name) const {
    static const Stat empty;
    const auto it = stats_.find(name);
    return it == stats_.end() ? empty : it->second;
}

double SpanLedger::total_ms(const std::string& name) const {
    return static_cast<double>(stat(name).total_ns) * 1e-6;
}

double SpanLedger::self_ms(const std::string& name) const {
    return static_cast<double>(stat(name).self_ns) * 1e-6;
}

double SpanLedger::dur_quantile_ns(const std::string& name, double p) const {
    return quantile(stat(name).dur_ns, p);
}

Json SpanLedger::to_json() const {
    Json spans = Json::object();
    for (const auto& [name, s] : stats_) {
        Json j = Json::object();
        j.set("count", s.count);
        j.set("total_ms", static_cast<double>(s.total_ns) * 1e-6);
        j.set("self_ms", static_cast<double>(s.self_ns) * 1e-6);
        spans.set(name, std::move(j));
    }
    Json rollup = Json::object();
    for (const auto& [key, ns] : rollup_ns_) {
        rollup.set(key, static_cast<double>(ns) * 1e-6);
    }
    Json out = Json::object();
    out.set("windows", windows_);
    out.set("events", events_);
    out.set("dropped", dropped_);
    out.set("max_window_events_per_thread", max_thread_events_);
    out.set("spans", std::move(spans));
    out.set("rollup_ms", std::move(rollup));
    return out;
}

// ---- Report ------------------------------------------------------------------

void Report::fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
}

void Report::write(const std::string& path) {
    doc.set("metrics", metrics);
    doc.set("attempted", attempted);
    doc.set("failed", failed);
    Json f = Json::array();
    for (const auto& s : failures) f.push_back(s);
    doc.set("failures", std::move(f));
    std::ofstream out(path);
    out << doc.dump() << "\n";
    if (!out) throw std::runtime_error("cannot write report " + path);
}

Json read_json_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) return Json();
    std::stringstream ss;
    ss << in.rdbuf();
    auto parsed = Json::parse(ss.str());
    return parsed.value ? *parsed.value : Json();
}

void report_setup(Report& r, const std::vector<double>& setup_s) {
    Json samples = Json::array();
    for (double s : setup_s) samples.push_back(s);
    r.doc.set("setup_samples_s", std::move(samples));
    r.metric("setup_s", median(setup_s));
}

const std::vector<std::string>& layer_metric_names() {
    static const std::vector<std::string> names = {
        "spice.transient.self_ms",
        "spice.transient.lockstep.self_ms",
        "spice.newton.solve.self_ms",
        "spice.newton.refactor.self_ms",
        "spice.newton.reuse.self_ms",
        "spice.newton.refactor",
        "spice.newton.reuse",
        "spice.eval.bypass_hits",
        "spice.eval.batch_lanes",
        "spice.eval.simd_groups",
        "spice.lu.banded_factors",
        "spice.lu.reuse_ratio",
        "spice.eval.bypass_ratio",
        "ring.sweep.call_p50_ms",
        "ring.sweep.self_ms",
        "ring.sweep.point.p95_ms",
        "ring.transient.early_exit_cycles",
        "exec.pool.tasks",
        "exec.pool.stolen",
        "exec.pool.utilization",
        "exec.cache.hits",
        "exec.cache.misses",
        "exec.cache.hit_ratio",
        "exec.cache.get.p95_us",
        "exec.checkpoint.flushes",
        "exec.checkpoint.flush.self_ms",
        "exec.checkpoint.bytes",
        "population.shard.p50_ms",
        "population.shard.p95_ms",
        "population.eval.die_us",
        "population.fold.residual_ms",
        "sensor.scan.self_ms",
        "sensor.site.readout.self_ms",
        "sensor.site.transduce.self_ms",
        "dtm.fleet.run.self_ms",
        "dtm.fleet.step.p95_us",
        "dtm.fleet.tune_ms",
        "service.request.p95_us",
        "service.job.self_ms",
        "service.admit_wait_ms",
        "service.method.ping.p50_ms",
        "service.method.query.p50_ms",
        "service.method.measure_site.p50_ms",
        "service.method.thermal_map.p50_ms",
        "service.method.sweep.p50_ms",
        "service.method.optimize.p50_ms",
        "service.method.dtm_run.p50_ms",
        "service.method.population_run.p50_ms",
        "service.shed.deadline",
        "service.shed.queued",
        "service.poll.p50_us",
        "service.poll.p99_us",
        "service.poll.lateness_p99_us",
        "obs.trace_overhead_pct",
    };
    return names;
}

void emit_layers(Report& r, const SpanLedger& spans, double units,
                 double traced_wall_s, const Counters& ledger) {
    for (const auto& name : layer_metric_names()) r.metric(name, 0.0);
    const double per = units > 0.0 ? 1.0 / units : 0.0;
    auto count = [&](const std::string& name) -> double {
        const auto it = ledger.find(name);
        return it == ledger.end() ? 0.0 : static_cast<double>(it->second);
    };
    auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

    for (const char* span : {"spice.transient", "spice.transient.lockstep",
                             "spice.newton.solve", "spice.newton.refactor",
                             "spice.newton.reuse", "ring.sweep",
                             "exec.checkpoint.flush", "sensor.scan",
                             "sensor.site.readout", "sensor.site.transduce",
                             "dtm.fleet.run", "service.job"}) {
        r.metric(std::string(span) + ".self_ms", spans.self_ms(span) * per);
    }
    for (const char* c : {"spice.newton.refactor", "spice.newton.reuse",
                          "spice.eval.bypass_hits", "spice.eval.batch_lanes",
                          "spice.eval.simd_groups", "spice.lu.banded_factors",
                          "ring.transient.early_exit_cycles", "exec.pool.tasks",
                          "exec.checkpoint.flushes", "exec.checkpoint.bytes",
                          "service.shed.deadline",
                          "service.shed.queued"}) {
        r.metric(c, count(c));
    }
    r.metric("spice.lu.reuse_ratio",
             ratio(count("spice.newton.reuse"),
                   count("spice.newton.reuse") + count("spice.newton.refactor")));
    r.metric("spice.eval.bypass_ratio",
             ratio(count("spice.eval.bypass_hits"), count("spice.eval.batch_lanes")));

    // The unit that simulates points: on the lock-step path a group of
    // points shares one transient and ring.sweep.point only commits the
    // result, so the group span is what the slowest "point" means there.
    const char* point_span = spans.stat("spice.transient.lockstep").count > 0
                                 ? "spice.transient.lockstep"
                                 : "ring.sweep.point";
    r.metric("ring.sweep.point.p95_ms", spans.dur_quantile_ns(point_span, 0.95) * 1e-6);
    r.metric("exec.pool.utilization",
             ratio(spans.total_ms("exec.pool.task") * 1e-3, traced_wall_s * kThreads));

    // The workload's cache is either a benchmark-owned exec cache or the
    // server's shared cache (published under "service.cache").
    const double hits = count("exec.cache.hits") + count("service.cache.hits");
    const double misses = count("exec.cache.misses") + count("service.cache.misses");
    r.metric("exec.cache.hits", hits);
    r.metric("exec.cache.misses", misses);
    r.metric("exec.cache.hit_ratio", ratio(hits, hits + misses));
    r.metric("exec.cache.get.p95_us", spans.dur_quantile_ns("exec.cache.get", 0.95) * 1e-3);

    r.metric("dtm.fleet.step.p95_us", spans.dur_quantile_ns("dtm.fleet.step", 0.95) * 1e-3);
    r.metric("service.request.p95_us",
             spans.dur_quantile_ns("service.request", 0.95) * 1e-3);
}

} // namespace perfbench
