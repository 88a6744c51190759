// telemetry_mix — the resident telemetry daemon under a mixed load: an
// in-process service::Server with four default-spec die sessions on a
// pool of kThreads workers and the default admission limits, served over
// LoopbackTransport.
//
//   * Polls run open-loop on one connection (a writer and a reader
//     thread) at the rate the library's closed DTM loop samples its
//     sensor (dtm::ClosedLoopConfig::sample_interval_s, 20 ms: 50/s):
//     ping, queries of pool.queue_depth, cache.hit_rate,
//     sessions[i].sites[j].health and metrics, and a cached
//     measure_site. Each poll is timed from its due time; how late the
//     writer sent it is reported too.
//   * Heavy jobs run closed-loop on kJobClients connections, drawn from
//     a deck of fixed composition that the seed shuffles: fresh
//     thermal_map scans, fresh measure_site, analytic sweeps (half over
//     a small hot key set the server cache serves, half over fresh
//     grids), optimize, dtm_run on the fleet tuned during set-up, and a
//     small population_run.
//
// One unit of work is one completed heavy job. Outputs: every response
// must be ok, and every sweep response must equal, bitwise, a direct
// ring::temperature_sweep of the same grid.
#include "common.hpp"

#include "dtm/closed_loop.hpp"
#include "exec/metrics.hpp"
#include "ring/sweep.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

using namespace stsense;

constexpr int kSessions = 4;
constexpr int kJobClients = 2;
/// Measurement windows: the server is quiesced between them, which is
/// where tracing is toggled.
constexpr double kWindowS = 2.0;
constexpr std::size_t kDeckSize = 24;

/// The grid arithmetic the service uses to build a sweep grid from
/// request params (inclusive linspace), so the direct reference sweep
/// sees bitwise the same temperatures.
std::vector<double> service_linspace(double lo, double hi, int n) {
    std::vector<double> out;
    for (int i = 0; i < n; ++i) {
        out.push_back(lo + (hi - lo) * static_cast<double>(i) /
                               static_cast<double>(n - 1));
    }
    return out;
}

struct Job {
    std::string method;
    std::string params; ///< JSON object text
    // Sweep grid, for the bitwise check against a direct sweep.
    double lo = 0.0;
    double hi = 0.0;
    int points = 0;
};

enum class Kind { ThermalMap, MeasureFresh, SweepHot, SweepFresh, Optimize, DtmRun, Population };

/// Polls per second (open loop): one poll per sensor sample of the
/// library's closed DTM loop.
double poll_rate() { return 1.0 / dtm::ClosedLoopConfig{}.sample_interval_s; }

/// Deck composition: every deck holds exactly these jobs, so a run's mix
/// does not drift with the seed; the seed shuffles the order and draws
/// sites, hot keys and population seeds. There is no recorded traffic to
/// weight the kinds by, so the weights are a choice, not a measurement:
/// every heavy kind appears, sweeps are half cache hits, and sorted by
/// latency the deck is a third sub-millisecond sweeps/optimizes, a third
/// ~20 ms scans, then population runs and DTM runs. That puts p50 and p90
/// each inside one latency band rather than on the step between two,
/// where a one-job shift in the mix would move them several-fold.
const std::vector<std::pair<Kind, int>>& deck_composition() {
    static const std::vector<std::pair<Kind, int>> deck = {
        {Kind::ThermalMap, 4}, {Kind::MeasureFresh, 4}, {Kind::SweepHot, 3},
        {Kind::SweepFresh, 3}, {Kind::Optimize, 2},     {Kind::DtmRun, 4},
        {Kind::Population, 4},
    };
    return deck;
}

struct HotKey {
    double lo;
    double hi;
    int points;
};
constexpr HotKey kHotKeys[] = {
    {-50.0, 150.0, 17}, {-40.0, 125.0, 34}, {0.0, 100.0, 65}, {-55.0, 155.0, 129},
};

/// Generates one client's job stream. Client c owns two sessions:
/// 2c runs every job kind, 2c + 1 only the kinds that leave the server
/// pool alone (scans and DTM, which fan out on the global pool). The
/// measure_site polls target the odd sessions only. This keeps the mix
/// clear of a service hazard: a job waiting in a server-pool
/// parallel_for helps by running queued pool tasks, and when such a task
/// is another heavy request for the *same* session it blocks on the
/// session mutex its own thread already holds.
class JobSource {
public:
    JobSource(std::uint64_t seed, int client, std::atomic<std::uint64_t>* fresh_counter)
        : rng_(seed), client_(client), fresh_(fresh_counter) {}

    Job next() {
        if (deck_.empty()) {
            // Scan and DTM kinds alternate between the client's two
            // sessions; the server-pool kinds stay on the first.
            for (const auto& [kind, n] : deck_composition()) {
                for (int i = 0; i < n; ++i) deck_.emplace_back(kind, i % 2);
            }
            shuffle(deck_, rng_);
        }
        const auto [kind, alt] = deck_.back();
        deck_.pop_back();
        return make(kind, alt);
    }

private:
    Job make(Kind kind, int alt) {
        const bool pool_kind =
            kind == Kind::SweepHot || kind == Kind::SweepFresh ||
            kind == Kind::Optimize || kind == Kind::Population;
        const int s = 2 * client_ + (pool_kind ? 0 : alt);
        const std::string session = R"("session":)" + std::to_string(s);
        Job j;
        std::ostringstream p;
        p.precision(17);
        switch (kind) {
        case Kind::ThermalMap:
            j.method = "thermal_map";
            p << "{" << session << "}";
            break;
        case Kind::MeasureFresh:
            j.method = "measure_site";
            p << "{" << session << R"(,"site":)" << rng_.below(9) << R"(,"fresh":true})";
            break;
        case Kind::SweepHot:
        case Kind::SweepFresh: {
            j.method = "sweep";
            if (kind == Kind::SweepHot) {
                const HotKey& k = kHotKeys[rng_.below(std::size(kHotKeys))];
                j.lo = k.lo;
                j.hi = k.hi;
                j.points = k.points;
            } else {
                // A grid no earlier request used: a guaranteed miss.
                const std::uint64_t n = fresh_->fetch_add(1);
                j.lo = -60.0 + 1e-3 * static_cast<double>(n % 20000);
                j.hi = 140.0 + static_cast<double>(n / 20000);
                j.points = 17 + static_cast<int>(rng_.below(48));
            }
            p << "{" << session << R"(,"t_min_c":)" << j.lo << R"(,"t_max_c":)" << j.hi
              << R"(,"points":)" << j.points << R"(,"engine":"analytic"})";
            break;
        }
        case Kind::Optimize:
            j.method = "optimize";
            p << "{" << session << R"(,"ratio_lo":1.5,"ratio_hi":4.0,"points":)"
              << 5 + rng_.below(4) << "}";
            break;
        case Kind::DtmRun:
            j.method = "dtm_run";
            p << "{" << session << "}";
            break;
        case Kind::Population:
            j.method = "population_run";
            p << "{" << session << R"(,"dice":4096,"seed":)" << 1 + rng_.below(1000) << "}";
            break;
        }
        j.params = p.str();
        return j;
    }

    Rng rng_;
    int client_;
    std::atomic<std::uint64_t>* fresh_;
    std::vector<std::pair<Kind, int>> deck_;
};

std::string request_line(std::int64_t id, const std::string& method,
                         const std::string& params) {
    return R"({"id":)" + std::to_string(id) + R"(,"method":")" + method +
           R"(","params":)" + params + "}";
}

/// Blocks for the response carrying `id` (subscription events skipped).
bool await_response(service::Connection& conn, std::int64_t id, Json& out) {
    std::string line;
    while (conn.read_line(line)) {
        auto parsed = Json::parse(line);
        if (!parsed.value || parsed.value->contains("event")) continue;
        if (parsed.value->at("id").as_int64(-1) != id) continue;
        out = std::move(*parsed.value);
        return true;
    }
    return false;
}

/// Samples of one window, merged across its client threads.
struct WindowResult {
    double wall_s = 0.0;
    std::uint64_t jobs = 0;
    std::vector<double> job_ms;
    std::map<std::string, std::vector<double>> method_ms;
    std::vector<double> poll_us;
    std::vector<double> lateness_us;
    double heavy_rtt_ms = 0.0; ///< Summed RTT of heavy requests (jobs + measure polls).
    std::uint64_t heavy = 0;
};

/// One server instance plus its client connections.
struct Rig {
    std::unique_ptr<service::Server> server;
    std::unique_ptr<service::LoopbackTransport> loopback;
    std::vector<std::shared_ptr<service::Connection>> job_conns;
    std::shared_ptr<service::Connection> poll_conn;

    ~Rig() {
        if (!server) return;
        for (auto& c : job_conns) c->close();
        if (poll_conn) poll_conn->close();
        server->request_shutdown();
        server->wait();
    }
};

} // namespace

int run_telemetry_mix(const Args& args, Report& r) {
    const std::size_t capacity = std::size_t{1} << 18;
    r.doc.set("host", host_block(capacity));
    const service::SessionSpec spec_defaults;
    std::mutex report_m; // r.fail / r.attempted from client threads
    std::vector<std::pair<Job, Json>> pending_sweeps; // guarded by report_m

    auto check_response = [&](const Job& job, const Json& resp) {
        std::lock_guard lock(report_m);
        ++r.attempted;
        if (!resp.at("ok").as_bool(false)) {
            r.fail(job.method + " failed: " + resp.at("error").dump());
            return;
        }
        if (job.method == "sweep") pending_sweeps.emplace_back(job, resp);
    };
    // Sweep responses are checked between windows, outside any trace: the
    // direct reference sweep must not add ring spans to the trace.
    auto check_sweeps = [&] {
        std::lock_guard lock(report_m);
        for (const auto& [job, resp] : pending_sweeps) {
            const auto temps = service_linspace(job.lo, job.hi, job.points);
            const auto direct = ring::temperature_sweep(
                spec_defaults.tech, spec_defaults.ring, temps, ring::Engine::Analytic,
                spec_defaults.runtime.spice_ring_options(), ring::SweepRuntime::serial());
            const Json& got = resp.at("result").at("period_s");
            bool same = got.size() == direct.period_s.size();
            for (std::size_t i = 0; same && i < direct.period_s.size(); ++i) {
                same = got.at(i).is_number() && got.at(i).as_double() == direct.period_s[i];
            }
            if (!same) r.fail("sweep response differs from a direct temperature_sweep");
        }
        pending_sweeps.clear();
    };

    std::atomic<std::uint64_t> fresh_sweeps{0};
    std::vector<JobSource> sources;
    for (int c = 0; c < kJobClients; ++c) {
        sources.emplace_back(args.seed * 1000003u + 17u * static_cast<unsigned>(c) + 1u, c,
                             &fresh_sweeps);
    }

    // Runs one job synchronously on `conn`; returns its round trip [ms].
    std::atomic<std::int64_t> next_id{1};
    auto run_job = [&](service::Connection& conn, const Job& job) {
        const std::int64_t id = next_id.fetch_add(1);
        const auto t0 = Clock::now();
        Json resp;
        const bool got = conn.write_line(request_line(id, job.method, job.params)) &&
                         await_response(conn, id, resp);
        const double ms = 1e3 * seconds_since(t0);
        if (!got) {
            std::lock_guard lock(report_m);
            ++r.attempted;
            r.fail(job.method + ": connection closed");
            return -1.0;
        }
        check_response(job, resp);
        return ms;
    };

    // ---- set-up: server, sessions, connections, DTM tune, warm-up deck ---
    std::unique_ptr<Rig> rig;
    // Waits until the server has no queued or running work, so counters
    // are final and no server thread is still recording a span.
    auto quiesce = [&] {
        auto& s = *rig->server;
        while (s.scheduler().queued() != 0 || s.scheduler().executing() != 0 ||
               s.pool().queue_depth() != 0 || s.pool().inflight() != 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    };
    Counters ledger;
    std::vector<double> setup_s;
    SpanLedger setup_spans(capacity, {});
    for (int k = 0; k < args.setups; ++k) {
        const auto t0 = k == 0 ? process_start() : Clock::now();
        rig.reset();
        rig = std::make_unique<Rig>();
        service::ServerConfig cfg;
        cfg.threads = kThreads;
        std::vector<service::SessionSpec> specs;
        for (int s = 0; s < kSessions; ++s) {
            service::SessionSpec spec;
            spec.name = "die-" + std::to_string(s);
            specs.push_back(std::move(spec));
        }
        rig->server = std::make_unique<service::Server>(cfg, std::move(specs));
        rig->loopback = std::make_unique<service::LoopbackTransport>();
        rig->server->start(*rig->loopback);
        for (int c = 0; c < kJobClients; ++c) rig->job_conns.push_back(rig->loopback->connect());
        rig->poll_conn = rig->loopback->connect();

        // Tune every session's DTM fleet (the first dtm_run per parameter
        // set pays the autotune), one request in flight at a time.
        const bool trace_tune = args.trace && k + 1 == args.setups;
        if (trace_tune) setup_spans.open();
        auto& conn = *rig->job_conns[0];
        for (int s = 0; s < kSessions; ++s) {
            run_job(conn, Job{"dtm_run", R"({"session":)" + std::to_string(s) + "}", 0, 0, 0});
        }
        quiesce();
        if (trace_tune) setup_spans.close();

        // Prime the server cache with the hot sweep keys, then run one
        // warm-up deck serially: its counter delta is the ledger.
        for (const HotKey& key : kHotKeys) {
            std::ostringstream p;
            p << R"({"t_min_c":)" << key.lo << R"(,"t_max_c":)" << key.hi
              << R"(,"points":)" << key.points << R"(,"engine":"analytic"})";
            run_job(conn, Job{"sweep", p.str(), key.lo, key.hi, key.points});
        }
        quiesce();
        const auto before = counter_snapshot();
        const auto tasks0 = rig->server->pool().tasks_executed();
        JobSource warm(args.seed, 0, &fresh_sweeps);
        for (std::size_t i = 0; i < kDeckSize; ++i) run_job(conn, warm.next());
        quiesce();
        if (k == 0) {
            ledger = counter_delta(counter_snapshot(), before);
            ledger["exec.pool.tasks"] = rig->server->pool().tasks_executed() - tasks0;
        }
        setup_s.push_back(seconds_since(t0));
        check_sweeps();
    }
    report_setup(r, setup_s);
    r.doc.set("ledger", counters_json(ledger));

    // ---- one measurement window ------------------------------------------
    Rng poll_rng(args.seed ^ 0x5eed5eedull);
    auto run_window = [&](double seconds) {
        WindowResult w;
        std::mutex w_m;
        const auto start = Clock::now();
        const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));

        std::vector<std::thread> threads;
        for (int c = 0; c < kJobClients; ++c) {
            threads.emplace_back([&, c] {
                auto& conn = *rig->job_conns[static_cast<std::size_t>(c)];
                std::vector<std::pair<std::string, double>> local;
                while (Clock::now() < stop) {
                    const Job job = sources[static_cast<std::size_t>(c)].next();
                    const double ms = run_job(conn, job);
                    if (ms >= 0.0) local.emplace_back(job.method, ms);
                }
                std::lock_guard lock(w_m);
                for (const auto& [method, ms] : local) {
                    ++w.jobs;
                    w.job_ms.push_back(ms);
                    w.method_ms[method].push_back(ms);
                    w.heavy_rtt_ms += ms;
                    ++w.heavy;
                }
            });
        }

        // Open-loop polls: the writer sends poll k at start + k / rate,
        // the reader times each answer from that due time.
        const double rate = poll_rate();
        const std::size_t n_polls = static_cast<std::size_t>(seconds * rate);
        struct Slot {
            Clock::time_point due;
            std::string method;
        };
        std::vector<Slot> slots(n_polls);
        std::vector<std::string> lines(n_polls);
        const std::int64_t id0 = next_id.fetch_add(static_cast<std::int64_t>(n_polls));
        for (std::size_t k = 0; k < n_polls; ++k) {
            const int s = static_cast<int>(poll_rng.below(kSessions));
            const std::string session = std::to_string(s);
            std::string method = "query";
            std::string params;
            switch (k % 6) {
            case 0: method = "ping"; params = "{}"; break;
            case 1: params = R"({"path":"pool.queue_depth"})"; break;
            case 2: params = R"({"path":"cache.hit_rate"})"; break;
            case 3:
                params = R"({"path":"sessions[)" + session + "].sites[" +
                         std::to_string(poll_rng.below(9)) + R"(].health"})";
                break;
            case 4: params = R"({"path":"metrics"})"; break;
            default:
                method = "measure_site";
                params = R"({"session":)" + std::to_string(1 + 2 * (s % 2)) + R"(,"site":)" +
                         std::to_string(poll_rng.below(9)) + "}";
                break;
            }
            slots[k].due = start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(
                                           static_cast<double>(k) / rate));
            slots[k].method = method;
            lines[k] = request_line(id0 + static_cast<std::int64_t>(k), method, params);
        }
        std::vector<double> lateness(n_polls, 0.0);
        threads.emplace_back([&] {
            for (std::size_t k = 0; k < n_polls; ++k) {
                std::this_thread::sleep_until(slots[k].due);
                lateness[k] = 1e6 * std::chrono::duration<double>(Clock::now() - slots[k].due).count();
                if (!rig->poll_conn->write_line(lines[k])) break;
            }
        });
        std::vector<double> poll_us(n_polls, -1.0);
        threads.emplace_back([&] {
            std::string line;
            for (std::size_t got = 0; got < n_polls && rig->poll_conn->read_line(line); ++got) {
                const auto now = Clock::now();
                auto parsed = Json::parse(line);
                const std::int64_t id = parsed.value ? parsed.value->at("id").as_int64(-1) : -1;
                if (id < id0 || id >= id0 + static_cast<std::int64_t>(n_polls)) continue;
                const auto k = static_cast<std::size_t>(id - id0);
                poll_us[k] = 1e6 * std::chrono::duration<double>(now - slots[k].due).count();
                std::lock_guard lock(report_m);
                ++r.attempted;
                if (!parsed.value->at("ok").as_bool(false)) {
                    r.fail(slots[k].method + " poll failed: " + line.substr(0, 200));
                }
            }
        });
        for (auto& t : threads) t.join();
        w.wall_s = seconds_since(start);

        for (std::size_t k = 0; k < n_polls; ++k) {
            if (poll_us[k] < 0.0) {
                std::lock_guard lock(report_m);
                ++r.attempted;
                r.fail("poll " + slots[k].method + " never answered");
                continue;
            }
            w.poll_us.push_back(poll_us[k]);
            w.lateness_us.push_back(lateness[k]);
            if (slots[k].method != "measure_site") {
                w.method_ms[slots[k].method].push_back(1e-3 * poll_us[k]);
            } else {
                w.heavy_rtt_ms += 1e-3 * poll_us[k];
                ++w.heavy;
            }
        }
        return w;
    };

    // ---- measurement -----------------------------------------------------
    SpanLedger spans(capacity, {"service.request", "exec.cache.get", "dtm.fleet.step"});
    WindowResult plain;
    std::vector<double> plain_rates;
    std::vector<double> traced_rates;
    double traced_wall = 0.0;
    double traced_jobs = 0.0;
    double traced_heavy_rtt_ms = 0.0;
    double traced_heavy = 0.0;
    const auto stolen0 = rig->server->pool().tasks_stolen();
    const auto m0 = Clock::now();
    for (int window = 0;; ++window) {
        const bool traced = args.trace && window % 2 == 1;
        if (traced) spans.open();
        WindowResult w = run_window(std::min(kWindowS, args.seconds));
        quiesce();
        if (traced) spans.close(traced_rates.empty() ? args.trace_dump : "");
        check_sweeps();
        const double rate = static_cast<double>(w.jobs) / w.wall_s;
        if (traced) {
            traced_rates.push_back(rate);
            traced_wall += w.wall_s;
            traced_jobs += static_cast<double>(w.jobs);
            traced_heavy_rtt_ms += w.heavy_rtt_ms;
            traced_heavy += static_cast<double>(w.heavy);
        } else {
            plain_rates.push_back(rate);
            plain.wall_s += w.wall_s;
            plain.jobs += w.jobs;
            plain.job_ms.insert(plain.job_ms.end(), w.job_ms.begin(), w.job_ms.end());
            for (auto& [m, v] : w.method_ms) {
                auto& dst = plain.method_ms[m];
                dst.insert(dst.end(), v.begin(), v.end());
            }
            plain.poll_us.insert(plain.poll_us.end(), w.poll_us.begin(), w.poll_us.end());
            plain.lateness_us.insert(plain.lateness_us.end(), w.lateness_us.begin(),
                                     w.lateness_us.end());
        }
        const bool both = !args.trace || !traced_rates.empty();
        if (seconds_since(m0) >= args.seconds && both) break;
    }

    // The median window, not the whole-run mean: host noise on a shared
    // machine comes in bursts of a second or two.
    r.metric("work_per_s", median(plain_rates));
    r.metric("op_p50_ms", quantile(plain.job_ms, 0.5));
    r.metric("op_p90_ms", quantile(plain.job_ms, 0.9));
    r.metric("peak_rss_mb", peak_rss_mb());
    r.doc.set("jobs", plain.jobs);
    r.doc.set("polls", static_cast<std::uint64_t>(plain.poll_us.size()));
    Json polls = Json::object();
    polls.set("rate_per_s", poll_rate());
    polls.set("p50_us", quantile(plain.poll_us, 0.5));
    polls.set("p99_us", quantile(plain.poll_us, 0.99));
    polls.set("lateness_p99_us", quantile(plain.lateness_us, 0.99));
    r.doc.set("polls_summary", std::move(polls));
    Json methods = Json::object();
    for (const auto& [m, v] : plain.method_ms) {
        Json j = Json::object();
        j.set("count", static_cast<std::uint64_t>(v.size()));
        j.set("p50_ms", quantile(v, 0.5));
        j.set("p90_ms", quantile(v, 0.9));
        methods.set(m, std::move(j));
    }
    r.doc.set("methods", std::move(methods));

    if (args.trace) {
        emit_layers(r, spans, traced_jobs, traced_wall, ledger);
        r.metric("exec.pool.stolen",
                 static_cast<double>(rig->server->pool().tasks_stolen() - stolen0) /
                     static_cast<double>(plain.jobs + static_cast<std::uint64_t>(traced_jobs)));
        r.metric("dtm.fleet.tune_ms", setup_spans.total_ms("dtm.fleet.tune") / kSessions);
        const auto& job = spans.stat("service.job");
        r.metric("service.admit_wait_ms",
                 traced_heavy_rtt_ms / traced_heavy -
                     (job.count > 0 ? spans.total_ms("service.job") /
                                          static_cast<double>(job.count)
                                    : 0.0));
        for (const char* m : {"ping", "query", "measure_site", "thermal_map", "sweep",
                              "optimize", "dtm_run", "population_run"}) {
            const auto it = plain.method_ms.find(m);
            r.metric(std::string("service.method.") + m + ".p50_ms",
                     it == plain.method_ms.end() ? 0.0 : quantile(it->second, 0.5));
        }
        r.metric("service.poll.p50_us", quantile(plain.poll_us, 0.5));
        r.metric("service.poll.p99_us", quantile(plain.poll_us, 0.99));
        r.metric("service.poll.lateness_p99_us", quantile(plain.lateness_us, 0.99));
        r.metric("obs.trace_overhead_pct",
                 100.0 * (median(plain_rates) / median(traced_rates) - 1.0));
        r.doc.set("spans", spans.to_json());
        r.doc.set("setup_spans", setup_spans.to_json());
        if (spans.dropped() + setup_spans.dropped() > 0) {
            r.fail("trace dropped " + std::to_string(spans.dropped() + setup_spans.dropped()) +
                   " events");
        }
    }
    return 0;
}

} // namespace perfbench
