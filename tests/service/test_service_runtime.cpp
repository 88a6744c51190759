// End-to-end service tests over the in-process loopback transport: the
// full stack (framing -> dispatch -> fair queue -> sessions -> object
// model) under concurrent clients, hostile input, saturation, and
// shutdown. Runs with small monitor grids so the sanitizer matrix can
// afford it.
#include "service/server.hpp"

#include "ring/sweep.hpp"
#include "service/transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace stsense::service {
namespace {

/// Same inclusive linspace the session builds its grid with — the
/// reference sweep must hash to the same fingerprint.
std::vector<double> linspace(double lo, double hi, int n) {
    std::vector<double> out;
    for (int i = 0; i < n; ++i) {
        out.push_back(lo + (hi - lo) * static_cast<double>(i) /
                               static_cast<double>(n - 1));
    }
    return out;
}

SessionSpec small_session(const std::string& name) {
    SessionSpec spec;
    spec.name = name;
    spec.monitor.grid_nx = 12;
    spec.monitor.grid_ny = 12;
    spec.sites_nx = 2;
    spec.sites_ny = 2;
    return spec;
}

/// Minimal protocol client: correlates responses by id, stashes
/// subscription events and out-of-order responses.
class Client {
public:
    explicit Client(std::shared_ptr<Connection> conn)
        : conn_(std::move(conn)) {}

    bool send(std::int64_t id, const std::string& method,
              Json params = Json::object()) {
        Json req = Json::object();
        req.set("id", id);
        req.set("method", method);
        req.set("params", std::move(params));
        return conn_->write_line(req.dump());
    }

    bool send_raw(const std::string& line) { return conn_->write_line(line); }

    /// Blocks for the response carrying `id`; events are stashed.
    Json await(std::int64_t id) {
        for (std::size_t i = 0; i < responses_.size(); ++i) {
            if (responses_[i].at("id").as_int64() == id) {
                Json r = responses_[i];
                responses_.erase(responses_.begin() +
                                 static_cast<std::ptrdiff_t>(i));
                return r;
            }
        }
        std::string line;
        while (conn_->read_line(line)) {
            auto parsed = Json::parse(line);
            if (!parsed.value) {
                ADD_FAILURE() << "unparseable line from server: " << line;
                return Json();
            }
            Json j = *parsed.value;
            if (j.contains("event")) {
                events_.push_back(std::move(j));
                continue;
            }
            if (j.at("id").as_int64() == id) return j;
            responses_.push_back(std::move(j));
        }
        ADD_FAILURE() << "stream closed while waiting for id " << id;
        return Json();
    }

    Json call(std::int64_t id, const std::string& method,
              Json params = Json::object()) {
        EXPECT_TRUE(send(id, method, std::move(params)));
        return await(id);
    }

    /// Blocks for the next subscription event (stash first).
    Json await_event() {
        if (!events_.empty()) {
            Json e = events_.front();
            events_.erase(events_.begin());
            return e;
        }
        std::string line;
        while (conn_->read_line(line)) {
            auto parsed = Json::parse(line);
            if (!parsed.value) continue;
            if (parsed.value->contains("event")) return *parsed.value;
            responses_.push_back(std::move(*parsed.value));
        }
        ADD_FAILURE() << "stream closed while waiting for an event";
        return Json();
    }

    std::shared_ptr<Connection> conn_;
    std::vector<Json> responses_;
    std::vector<Json> events_;
};

std::string error_code_of(const Json& response) {
    return response.at("error").at("code").as_string();
}

TEST(ServiceRuntime, MixedConcurrentClientsAllAnswered) {
    ServerConfig cfg;
    cfg.threads = 4;
    // The acceptance smoke: >= 4 sessions serving >= 3 concurrent
    // clients with mixed light/heavy traffic, every request answered.
    Server server(cfg, {small_session("die-a"), small_session("die-b"),
                        small_session("die-c"), small_session("die-d")});
    LoopbackTransport loopback;
    server.start(loopback);

    constexpr int kClients = 3;
    std::vector<std::string> failures(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&loopback, &failures, c] {
            Client client(loopback.connect());
            auto check = [&failures, c](const Json& r, const char* what) {
                if (!r.at("ok").as_bool()) {
                    failures[static_cast<std::size_t>(c)] +=
                        std::string(what) + ": " + r.dump() + "; ";
                }
            };
            check(client.call(1, "ping"), "ping");
            Json hello = Json::object();
            hello.set("weight", 1 + c);
            check(client.call(2, "hello", std::move(hello)), "hello");

            Json ms = Json::object();
            ms.set("site", 0);
            ms.set("session", c % 4);
            check(client.call(3, "measure_site", std::move(ms)),
                  "measure_site");

            Json tm = Json::object();
            tm.set("session", (c + 1) % 4);
            check(client.call(4, "thermal_map", std::move(tm)), "thermal_map");

            Json sw = Json::object();
            sw.set("t_min_c", 0.0);
            sw.set("t_max_c", 100.0);
            sw.set("points", 9);
            sw.set("session", (c + 2) % 4);
            check(client.call(5, "sweep", std::move(sw)), "sweep");

            Json q = Json::object();
            q.set("path", "pool.queue_depth");
            check(client.call(6, "query", std::move(q)), "query");
        });
    }
    for (auto& t : threads) t.join();
    for (int c = 0; c < kClients; ++c) {
        EXPECT_EQ(failures[static_cast<std::size_t>(c)], "") << "client " << c;
    }

    server.request_shutdown(/*discard_queued=*/false);
    server.wait();
    EXPECT_GE(server.requests_total(), 6u * kClients);
}

TEST(ServiceRuntime, QueryDepthAndFilterHonoredEndToEnd) {
    ServerConfig cfg;
    cfg.threads = 2;
    Server server(cfg, {small_session("die")});
    LoopbackTransport loopback;
    server.start(loopback);
    Client client(loopback.connect());

    // Filter prunes sibling keys.
    Json q = Json::object();
    q.set("path", "pool");
    q.set("filter", "queue*");
    Json r = client.call(1, "query", std::move(q));
    ASSERT_TRUE(r.at("ok").as_bool()) << r.dump();
    EXPECT_TRUE(r.at("result").at("value").contains("queue_depth"));
    EXPECT_FALSE(r.at("result").at("value").contains("inflight"));

    // Depth 1 renders the session object's containers as "...".
    q = Json::object();
    q.set("path", "state.sessions[0]");
    q.set("depth", 1);
    r = client.call(2, "query", std::move(q));
    ASSERT_TRUE(r.at("ok").as_bool()) << r.dump();
    const Json& v = r.at("result").at("value");
    EXPECT_EQ(v.at("name").as_string(), "die");
    EXPECT_EQ(v.at("sites").as_string(), QueryOptions::kTruncated);
    EXPECT_EQ(v.at("config").as_string(), QueryOptions::kTruncated);

    // Deep single-site address evaluates only that subtree.
    q = Json::object();
    q.set("path", "sessions[0].sites[3].health");
    r = client.call(3, "query", std::move(q));
    ASSERT_TRUE(r.at("ok").as_bool()) << r.dump();
    EXPECT_EQ(r.at("result").at("value").as_string(), "healthy");

    // Unresolvable path is a typed unknown-path error.
    q = Json::object();
    q.set("path", "sessions[7].name");
    r = client.call(4, "query", std::move(q));
    ASSERT_FALSE(r.at("ok").as_bool());
    EXPECT_EQ(error_code_of(r), "unknown-path");

    server.request_shutdown();
    server.wait();
}

TEST(ServiceRuntime, KernelNodeReportsConfigAndCounters) {
    ServerConfig cfg;
    cfg.threads = 2;
    SessionSpec fast = small_session("die-fast");
    fast.runtime.fast_kernel(true);
    Server server(cfg, {small_session("die-plain"), fast});
    LoopbackTransport loopback;
    server.start(loopback);
    Client client(loopback.connect());

    const auto kernel_of = [&](std::int64_t id, int session) {
        Json q = Json::object();
        q.set("path", "sessions[" + std::to_string(session) + "].kernel");
        Json r = client.call(id, "query", std::move(q));
        EXPECT_TRUE(r.at("ok").as_bool()) << r.dump();
        return r.at("result").at("value");
    };

    // The plain session projects the seed-identical engine.
    const Json plain = kernel_of(1, 0);
    EXPECT_FALSE(plain.at("fast").as_bool());
    EXPECT_FALSE(plain.at("reuse_lu").as_bool());
    EXPECT_EQ(plain.at("lockstep_width").as_int64(), 1);

    // The fast session projects the full tuned preset; the simd leaf is
    // the lane kernel the CPU probe picks.
    const Json before = kernel_of(2, 1);
    EXPECT_TRUE(before.at("fast").as_bool());
    EXPECT_TRUE(before.at("reuse_lu").as_bool());
    EXPECT_EQ(before.at("lockstep_width").as_int64(), 8);
    const std::string simd = before.at("simd").as_string();
    EXPECT_TRUE(simd == "scalar" || simd == "avx2") << simd;

    // A SPICE sweep through the fast session drives the batched-kernel
    // counters the node exposes.
    Json p = Json::object();
    p.set("session", 1);
    p.set("engine", "spice");
    p.set("t_min_c", 20.0);
    p.set("t_max_c", 40.0);
    p.set("points", 2);
    const Json r = client.call(3, "sweep", std::move(p));
    ASSERT_TRUE(r.at("ok").as_bool()) << r.dump();

    const Json after = kernel_of(4, 1);
    EXPECT_GT(after.at("batch_lanes").as_int64(),
              before.at("batch_lanes").as_int64());
    EXPECT_GT(after.at("lu_reuses").as_int64(),
              before.at("lu_reuses").as_int64());
    EXPECT_GT(after.at("bypass_hits").as_int64(),
              before.at("bypass_hits").as_int64());

    server.request_shutdown();
    server.wait();
}

TEST(ServiceRuntime, SessionMonitorConfigSetsHealthAndRedundancy) {
    // SessionSpec::monitor is the only home of the monitor's health
    // supervision and ring redundancy: the config leaves report it and
    // the session's scans run with it.
    ServerConfig cfg;
    cfg.threads = 2;
    SessionSpec spec = small_session("die-resilient");
    spec.monitor.enable_health = true;
    spec.monitor.redundancy = 2;
    Server server(cfg, {spec});
    LoopbackTransport loopback;
    server.start(loopback);
    Client client(loopback.connect());

    Json q = Json::object();
    q.set("path", "sessions[0].config");
    const Json c = client.call(1, "query", std::move(q));
    ASSERT_TRUE(c.at("ok").as_bool()) << c.dump();
    EXPECT_TRUE(c.at("result").at("value").at("health_enabled").as_bool());
    EXPECT_EQ(c.at("result").at("value").at("redundancy").as_int64(), 2);

    Json p = Json::object();
    p.set("session", 0);
    const Json m = client.call(2, "thermal_map", std::move(p));
    ASSERT_TRUE(m.at("ok").as_bool()) << m.dump();
    const Json& readings = m.at("result").at("readings");
    ASSERT_EQ(readings.size(), 4u);
    for (std::size_t i = 0; i < readings.size(); ++i) {
        EXPECT_EQ(readings.at(i).at("rings_total").as_int64(), 2) << i;
    }

    server.request_shutdown();
    server.wait();
}

TEST(ServiceRuntime, HostileInputYieldsTypedErrorsNeverDisconnects) {
    ServerConfig cfg;
    cfg.threads = 2;
    Server server(cfg, {small_session("die")});
    LoopbackTransport loopback;
    server.start(loopback);
    Client client(loopback.connect());

    // Malformed line: typed error, salvaged id 0, connection stays up.
    ASSERT_TRUE(client.send_raw("this is not json"));
    Json r = client.await(0);
    ASSERT_FALSE(r.at("ok").as_bool());
    EXPECT_EQ(error_code_of(r), "malformed-request");

    // Malformed with a recoverable id: the error correlates.
    ASSERT_TRUE(client.send_raw(R"({"id":41,"method":7})"));
    r = client.await(41);
    EXPECT_EQ(error_code_of(r), "malformed-request");

    r = client.call(2, "no_such_method");
    EXPECT_EQ(error_code_of(r), "unknown-method");

    Json p = Json::object();
    p.set("session", 99);
    p.set("site", 0);
    r = client.call(3, "measure_site", std::move(p));
    EXPECT_EQ(error_code_of(r), "unknown-session");

    p = Json::object();
    p.set("points", 1); // below the minimum of 2
    r = client.call(4, "sweep", std::move(p));
    EXPECT_EQ(error_code_of(r), "bad-params");

    p = Json::object();
    p.set("t_min_c", 100.0);
    p.set("t_max_c", 0.0);
    r = client.call(5, "sweep", std::move(p));
    EXPECT_EQ(error_code_of(r), "bad-params");

    // The connection survived all of it.
    r = client.call(6, "ping");
    EXPECT_TRUE(r.at("ok").as_bool());

    server.request_shutdown();
    server.wait();
}

TEST(ServiceRuntime, SpiceSweepPastTheModelRangeNamesTheEstimate) {
    // Any finite t_max_c is a valid sweep bound, but at 1e300 degC the
    // analytic period estimate that paces the SPICE transient is NaN.
    // The error must say so, on the solo path (plain session) and the
    // lock-step path (fast session) alike — not report a no-oscillation
    // non-convergence after a NaN-length run.
    ServerConfig cfg;
    cfg.threads = 2;
    SessionSpec fast = small_session("die-fast");
    fast.runtime.fast_kernel(true);
    Server server(cfg, {small_session("die-plain"), fast});
    LoopbackTransport loopback;
    server.start(loopback);
    Client client(loopback.connect());

    for (int session = 0; session < 2; ++session) {
        SCOPED_TRACE("session " + std::to_string(session));
        Json p = Json::object();
        p.set("session", session);
        p.set("engine", "spice");
        p.set("t_min_c", 20.0);
        p.set("t_max_c", 1e300);
        p.set("points", 2);
        const Json r = client.call(10 + session, "sweep", std::move(p));
        ASSERT_FALSE(r.at("ok").as_bool()) << r.dump();
        const std::string message = r.at("error").at("message").as_string();
        EXPECT_EQ(message.rfind("non-finite-state: ", 0), 0u) << message;
        EXPECT_NE(message.find("period estimate "), std::string::npos) << message;
        EXPECT_NE(message.find("nan s at"), std::string::npos) << message;
        EXPECT_EQ(message.find("non-convergence"), std::string::npos) << message;
    }

    // The connection and the server stay up.
    EXPECT_TRUE(client.call(12, "ping").at("ok").as_bool());
    server.request_shutdown();
    server.wait();
}

TEST(ServiceRuntime, SaturationRejectsOverloadedNeverHangs) {
    ServerConfig cfg;
    cfg.threads = 2;
    cfg.limits.max_inflight_per_client = 2;
    cfg.limits.max_concurrency = 1;
    Server server(cfg, {small_session("die")});
    LoopbackTransport loopback;
    server.start(loopback);
    Client client(loopback.connect());

    // Six burns pipelined while only one runs at a time: 2 admitted
    // (1 executing + 1 queued == cap), 4 rejected with typed overloaded.
    Json burn = Json::object();
    burn.set("ms", 400);
    for (int id = 1; id <= 6; ++id) {
        ASSERT_TRUE(client.send(id, "burn", burn));
    }
    int ok = 0, overloaded = 0;
    for (int id = 1; id <= 6; ++id) {
        Json r = client.await(id);
        if (r.at("ok").as_bool()) {
            ++ok;
        } else {
            EXPECT_EQ(error_code_of(r), "overloaded") << r.dump();
            ++overloaded;
        }
    }
    EXPECT_EQ(ok, 2);
    EXPECT_EQ(overloaded, 4);
    EXPECT_GE(server.scheduler().rejected(), 4u);

    server.request_shutdown();
    server.wait();
}

TEST(ServiceRuntime, ConcurrentIdenticalSweepsAreBitwiseIdentical) {
    ServerConfig cfg;
    cfg.threads = 4;
    Server server(cfg, {small_session("die")});
    LoopbackTransport loopback;
    server.start(loopback);

    auto sweep_params = [] {
        Json p = Json::object();
        p.set("t_min_c", -25.0);
        p.set("t_max_c", 125.0);
        p.set("points", 13);
        return p;
    };

    constexpr int kClients = 3;
    std::vector<std::string> result_dumps(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&loopback, &result_dumps, &sweep_params, c] {
            Client client(loopback.connect());
            Json r = client.call(1, "sweep", sweep_params());
            if (r.at("ok").as_bool()) {
                result_dumps[static_cast<std::size_t>(c)] =
                    r.at("result").dump();
            }
        });
    }
    for (auto& t : threads) t.join();

    ASSERT_FALSE(result_dumps[0].empty());
    for (int c = 1; c < kClients; ++c) {
        EXPECT_EQ(result_dumps[static_cast<std::size_t>(c)], result_dumps[0])
            << "client " << c << " saw a different sweep";
    }

    // The service's series equals the serial reference sweep bitwise —
    // shared pool, result cache, and client interleaving change nothing.
    const SessionSpec spec = small_session("die");
    const auto temps = linspace(-25.0, 125.0, 13);
    const auto reference = ring::temperature_sweep(
        spec.tech, spec.ring, temps, ring::Engine::Analytic, {},
        ring::SweepRuntime::serial());
    auto parsed = Json::parse(result_dumps[0]);
    ASSERT_TRUE(parsed.value.has_value());
    const Json& result = *parsed.value;
    ASSERT_EQ(result.at("period_s").size(), reference.period_s.size());
    for (std::size_t i = 0; i < reference.period_s.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      result.at("period_s").at(i).as_double()),
                  std::bit_cast<std::uint64_t>(reference.period_s[i]))
            << "point " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      result.at("temps_c").at(i).as_double()),
                  std::bit_cast<std::uint64_t>(temps[i]))
            << "point " << i;
    }

    // Identical sweeps hit the server's shared result cache; the object
    // model sees it.
    Client probe(loopback.connect());
    Json q = Json::object();
    q.set("path", "cache.hits");
    Json r = probe.call(1, "query", std::move(q));
    ASSERT_TRUE(r.at("ok").as_bool()) << r.dump();
    EXPECT_GE(r.at("result").at("value").as_int(), 1) << r.dump();

    server.request_shutdown();
    server.wait();
}

TEST(ServiceRuntime, SameSessionHeavyRequestsNeverHang) {
    // Four clients keep fresh analytic sweeps and optimizes in flight
    // against one session on a 4-worker pool. A heavy job holds its
    // session while its fan-out waits, and the waiting thread helps run
    // queued pool tasks: had it started the session's next job there,
    // that job would block on the session its own thread already holds,
    // and every later request for the session behind it. A watchdog
    // turns such a hang into a failed test instead of a stalled suite.
    ServerConfig cfg;
    cfg.threads = 4;
    Server server(cfg, {small_session("die")});
    LoopbackTransport loopback;
    server.start(loopback);

    std::atomic<bool> finished{false};
    std::thread watchdog([&finished] {
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        while (!finished.load() && std::chrono::steady_clock::now() < give_up) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        if (!finished.load()) {
            std::fprintf(stderr, "same-session heavy requests hung the server\n");
            std::_Exit(1);
        }
    });

    constexpr int kClients = 4;
    constexpr int kRequests = 30;
    std::atomic<int> answered_ok{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&loopback, &answered_ok, c] {
            Client client(loopback.connect());
            for (int i = 0; i < kRequests; ++i) {
                // Distinct bounds per request: every job misses the
                // result cache and fans out on the pool.
                const double shift = 1e-3 * static_cast<double>(c * kRequests + i);
                Json p = Json::object();
                std::string method = "sweep";
                if (i % 2 == 0) {
                    p.set("t_min_c", -50.0 + shift);
                    p.set("t_max_c", 150.0);
                } else {
                    method = "optimize";
                    p.set("ratio_lo", 1.0 + shift);
                    p.set("ratio_hi", 4.0);
                }
                const Json r = client.call(i + 1, method, std::move(p));
                if (r.at("ok").as_bool()) answered_ok.fetch_add(1);
            }
        });
    }
    for (auto& t : clients) t.join();
    finished.store(true);
    watchdog.join();
    EXPECT_EQ(answered_ok.load(), kClients * kRequests);

    server.request_shutdown();
    server.wait();
}

TEST(ServiceRuntime, OneSessionRunsOneJobAtATime) {
    // Session 0's first job is a test method that holds the session on
    // a latch. Four clients queue thermal maps behind it, and a probe
    // asks session 1 for a map: the probe takes a free slot and answers
    // while session 0 is held, and no queued session-0 map starts. Once
    // released, the backlog runs one job at a time: a sampler of
    // scheduler().executing() never sees more than 1.
    ServerConfig cfg;
    cfg.threads = 4;
    Server server(cfg, {small_session("die-a"), small_session("die-b")});
    std::latch held(1);
    std::latch release(1);
    server.processor().register_method(
        "hold", WeightClass::PerSession,
        [&held, &release](const Json&, RequestContext&) -> Json {
            held.count_down();
            release.wait();
            return Json::object();
        });
    LoopbackTransport loopback;
    server.start(loopback);

    // Bounded spin: a broken scheduler fails the test, never hangs it.
    const auto wait_until = [](const auto& done) {
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!done() && std::chrono::steady_clock::now() < give_up) {
            std::this_thread::yield();
        }
        return done();
    };

    Client holder(loopback.connect());
    Json hold_params = Json::object();
    hold_params.set("session", 0);
    ASSERT_TRUE(holder.send(1, "hold", std::move(hold_params)));
    held.wait();

    constexpr int kClients = 4;
    constexpr int kRequests = 20;
    constexpr int kTotal = kClients * kRequests;
    std::atomic<int> answered{0};
    std::atomic<int> answered_ok{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&loopback, &answered, &answered_ok] {
            Client client(loopback.connect());
            for (int i = 0; i < kRequests; ++i) {
                Json p = Json::object();
                p.set("session", 0);
                const Json r = client.call(i + 1, "thermal_map", std::move(p));
                if (r.at("ok").as_bool()) answered_ok.fetch_add(1);
                answered.fetch_add(1);
            }
        });
    }
    // Every client's first map is queued behind the held job.
    EXPECT_TRUE(wait_until(
        [&] { return server.scheduler().queued() == std::size_t{kClients}; }));

    Client probe(loopback.connect());
    Json probe_params = Json::object();
    probe_params.set("session", 1);
    const Json r = probe.call(1, "thermal_map", std::move(probe_params));
    EXPECT_TRUE(r.at("ok").as_bool()) << r.dump();
    // The probe's job books its completion just after its answer.
    EXPECT_TRUE(
        wait_until([&] { return server.scheduler().executing() <= 1; }));
    EXPECT_EQ(answered.load(), 0) << "a map ran while its session was held";
    EXPECT_EQ(server.scheduler().executing(), 1u);

    std::atomic<bool> load_done{false};
    std::atomic<bool> sampled{false};
    std::atomic<std::size_t> max_executing{0};
    std::thread sampler([&] {
        while (!load_done.load()) {
            const std::size_t e = server.scheduler().executing();
            if (e > max_executing.load()) max_executing = e;
            sampled = true;
            std::this_thread::yield();
        }
    });
    // The first sample sees the held job, so a sampler starved of CPU
    // until the backlog is done still reads a maximum of 1.
    while (!sampled.load()) std::this_thread::yield();
    release.count_down();
    EXPECT_TRUE(holder.await(1).at("ok").as_bool());
    for (auto& t : clients) t.join();
    load_done = true;
    sampler.join();
    EXPECT_EQ(answered_ok.load(), kTotal);
    EXPECT_EQ(max_executing.load(), 1u);

    server.request_shutdown();
    server.wait();
}

TEST(ServiceRuntime, HandleInlineHeavyRequestGoesThroughTheScheduler) {
    ServerConfig cfg;
    cfg.threads = 2;
    Server server(cfg, {small_session("die")});

    const std::uint64_t before = server.scheduler().completed();
    auto parsed = Json::parse(
        server.handle_inline(R"({"id":3,"method":"thermal_map"})"));
    ASSERT_TRUE(parsed.value.has_value());
    EXPECT_TRUE(parsed.value->at("ok").as_bool()) << parsed.value->dump();
    EXPECT_EQ(parsed.value->at("id").as_int64(), 3);
    // The job answers before the scheduler books its completion.
    server.scheduler().wait_idle();
    EXPECT_EQ(server.scheduler().completed(), before + 1);

    // An unknown session is answered at admission: no queue slot.
    parsed = Json::parse(server.handle_inline(
        R"({"id":4,"method":"sweep","params":{"session":"nope"}})"));
    ASSERT_TRUE(parsed.value.has_value());
    EXPECT_EQ(error_code_of(*parsed.value), "unknown-session");
    EXPECT_EQ(server.scheduler().completed(), before + 1);
    EXPECT_EQ(server.scheduler().rejected(), 0u);
}

TEST(ServiceRuntime, HandleInlineRegistersItsClientOnFirstHeavyUse) {
    ServerConfig cfg;
    cfg.threads = 2;
    Server server(cfg, {small_session("die")});
    // A light inline request takes no scheduler client...
    ASSERT_TRUE(Json::parse(server.handle_inline(R"({"id":1,"method":"ping"})"))
                    .value.has_value());
    LoopbackTransport loopback;
    server.start(loopback);
    Client client(loopback.connect());
    // ...so the first wire client is still client 0.
    const Json hello = client.call(1, "hello");
    ASSERT_TRUE(hello.at("ok").as_bool()) << hello.dump();
    EXPECT_EQ(hello.at("result").at("client").as_int(), 0);
    server.request_shutdown();
    server.wait();
}

TEST(ServiceRuntime, OutOfRangeWireIntegersSaturate) {
    ServerConfig cfg;
    cfg.threads = 2;
    Server server(cfg, {small_session("die")});
    const auto inline_call = [&server](const std::string& line) {
        auto parsed = Json::parse(server.handle_inline(line));
        EXPECT_TRUE(parsed.value.has_value()) << line;
        return parsed.value.value_or(Json());
    };

    // 2^63 is one past the largest id: malformed, and not echoed back.
    Json r = inline_call(R"({"id":9223372036854775808,"method":"ping"})");
    EXPECT_EQ(error_code_of(r), "malformed-request");
    EXPECT_EQ(r.at("id").as_double(), 0.0);
    r = inline_call(R"({"id":1e300,"method":7})");
    EXPECT_EQ(error_code_of(r), "malformed-request");
    EXPECT_EQ(r.at("id").as_double(), 0.0);

    // cancel echoes the saturated id, not a wrapped negative one.
    r = inline_call(R"({"id":1,"method":"cancel","params":{"request":1e300}})");
    ASSERT_TRUE(r.at("ok").as_bool()) << r.dump();
    EXPECT_GT(r.at("result").at("request").as_double(), 0.0);
    EXPECT_FALSE(r.at("result").at("cancelled").as_bool());

    // Clamps see a huge value as huge.
    r = inline_call(
        R"({"id":2,"method":"query","params":{"path":"pool","depth":1e300}})");
    ASSERT_TRUE(r.at("ok").as_bool()) << r.dump();
    EXPECT_TRUE(r.at("result").at("value").is_object()) << r.dump();
    r = inline_call(R"({"id":3,"method":"hello","params":{"weight":1e300}})");
    ASSERT_TRUE(r.at("ok").as_bool()) << r.dump();
    EXPECT_EQ(r.at("result").at("weight").as_int(), 64);

    // Range checks reject it as out of range, on purpose.
    r = inline_call(R"({"id":4,"method":"sweep","params":{"points":1e300}})");
    EXPECT_EQ(error_code_of(r), "bad-params");
    EXPECT_NE(r.at("error").at("message").as_string().find("out of range"),
              std::string::npos)
        << r.dump();
    for (const char* session : {"1e300", "-1e300"}) {
        r = inline_call(std::string(R"({"id":5,"method":"measure_site",)") +
                        R"("params":{"site":0,"session":)" + session + "}}");
        EXPECT_EQ(error_code_of(r), "unknown-session") << session;
    }
    r = inline_call(
        R"({"id":6,"method":"measure_site","params":{"site":1e300}})");
    EXPECT_EQ(error_code_of(r), "bad-params");
    EXPECT_NE(r.at("error").at("message").as_string().find("unknown site"),
              std::string::npos)
        << r.dump();
}

/// A request whose one param has the wrong JSON type.
struct MistypedParam {
    const char* name; ///< Test-name suffix: <method>_<param>.
    const char* line;
    const char* param;
};

void PrintTo(const MistypedParam& p, std::ostream* os) { *os << p.name; }

class ServiceMistypedParam : public testing::TestWithParam<MistypedParam> {};

TEST_P(ServiceMistypedParam, AnswersBadParamsNotTheDefault) {
    ServerConfig cfg;
    cfg.threads = 2;
    Server server(cfg, {small_session("die")});
    const auto parsed = Json::parse(server.handle_inline(GetParam().line));
    ASSERT_TRUE(parsed.value.has_value());
    const Json& r = *parsed.value;
    EXPECT_EQ(error_code_of(r), "bad-params") << r.dump();
    EXPECT_NE(r.at("error").at("message").as_string().find(
                  std::string("'") + GetParam().param + "'"),
              std::string::npos)
        << r.dump();
}

INSTANTIATE_TEST_SUITE_P(
    WireParams, ServiceMistypedParam,
    testing::Values(
        MistypedParam{"sweep_engine",
                      R"({"id":1,"method":"sweep","params":{"engine":5}})",
                      "engine"},
        MistypedParam{"measure_site_fresh",
                      R"({"id":1,"method":"measure_site","params":{"site":0,"fresh":"yes"}})",
                      "fresh"},
        MistypedParam{"dtm_run_supervised",
                      R"({"id":1,"method":"dtm_run","params":{"supervised":1}})",
                      "supervised"},
        MistypedParam{"population_run_calibration",
                      R"({"id":1,"method":"population_run","params":{"calibration":2}})",
                      "calibration"},
        MistypedParam{"population_run_corner",
                      R"({"id":1,"method":"population_run","params":{"corner":7}})",
                      "corner"},
        MistypedParam{"query_depth",
                      R"({"id":1,"method":"query","params":{"path":"pool","depth":"all"}})",
                      "depth"},
        MistypedParam{"query_filter",
                      R"({"id":1,"method":"query","params":{"path":"pool","filter":3}})",
                      "filter"},
        MistypedParam{"query_path",
                      R"({"id":1,"method":"query","params":{"path":["pool"]}})",
                      "path"},
        MistypedParam{"hello_weight",
                      R"({"id":1,"method":"hello","params":{"weight":"heavy"}})",
                      "weight"},
        MistypedParam{"shutdown_mode",
                      R"({"id":1,"method":"shutdown","params":{"mode":false}})",
                      "mode"}),
    [](const testing::TestParamInfo<MistypedParam>& info) {
        return std::string(info.param.name);
    });

TEST(ServiceRuntime, NullParamTakesItsDefault) {
    ServerConfig cfg;
    cfg.threads = 2;
    Server server(cfg, {small_session("die")});
    const auto inline_call = [&server](const std::string& line) {
        auto parsed = Json::parse(server.handle_inline(line));
        EXPECT_TRUE(parsed.value.has_value()) << line;
        return parsed.value.value_or(Json());
    };
    Json r = inline_call(R"({"id":1,"method":"hello","params":{"weight":null}})");
    ASSERT_TRUE(r.at("ok").as_bool()) << r.dump();
    EXPECT_EQ(r.at("result").at("weight").as_int(), cfg.default_client_weight);
    r = inline_call(
        R"({"id":2,"method":"sweep","params":{"points":3,"engine":null}})");
    ASSERT_TRUE(r.at("ok").as_bool()) << r.dump();
    EXPECT_EQ(r.at("result").at("engine").as_string(), "analytic");
}

TEST(ServiceRuntime, HugeModelIndexIsOutOfRange) {
    ServerConfig cfg;
    cfg.threads = 2;
    Server server(cfg, {small_session("die")});
    LoopbackTransport loopback;
    server.start(loopback);
    Client client(loopback.connect());

    Json q = Json::object();
    q.set("path", "sessions[99999999999999999999999]");
    const Json r = client.call(1, "query", std::move(q));
    ASSERT_FALSE(r.at("ok").as_bool());
    EXPECT_EQ(error_code_of(r), "unknown-path");
    EXPECT_NE(r.at("error").at("message").as_string().find("out of range"),
              std::string::npos)
        << r.dump();

    server.request_shutdown();
    server.wait();
}

TEST(ServiceRuntime, SubscriptionPushesEventOnChange) {
    ServerConfig cfg;
    cfg.threads = 2;
    Server server(cfg, {small_session("die")});
    LoopbackTransport loopback;
    server.start(loopback);
    Client client(loopback.connect());

    Json sub = Json::object();
    sub.set("path", "sessions[0].scans");
    Json r = client.call(1, "subscribe", std::move(sub));
    ASSERT_TRUE(r.at("ok").as_bool()) << r.dump();
    EXPECT_EQ(r.at("result").at("value").as_int(), 0);

    // A thermal map bumps the scan counter; the completion notifies
    // subscribers, so an update event follows the response.
    r = client.call(2, "thermal_map");
    ASSERT_TRUE(r.at("ok").as_bool()) << r.dump();

    Json event = client.await_event();
    EXPECT_EQ(event.at("event").as_string(), "update");
    EXPECT_EQ(event.at("path").as_string(), "sessions[0].scans");
    EXPECT_GE(event.at("value").as_int(), 1);

    // Subscribing to a bogus path fails up front, typed.
    sub = Json::object();
    sub.set("path", "sessions[0].nope");
    r = client.call(3, "subscribe", std::move(sub));
    ASSERT_FALSE(r.at("ok").as_bool());
    EXPECT_EQ(error_code_of(r), "unknown-path");

    server.request_shutdown();
    server.wait();
}

TEST(ServiceRuntime, ProtocolShutdownDrainAnswersThenCloses) {
    ServerConfig cfg;
    cfg.threads = 2;
    Server server(cfg, {small_session("die")});
    LoopbackTransport loopback;
    server.start(loopback);
    Client client(loopback.connect());

    Json p = Json::object();
    p.set("mode", "drain");
    Json r = client.call(1, "shutdown", std::move(p));
    ASSERT_TRUE(r.at("ok").as_bool()) << r.dump();
    EXPECT_TRUE(r.at("result").at("draining").as_bool());

    // serve() returns once the transport is down.
    server.wait();
    EXPECT_TRUE(server.draining());

    // After the drain, heavy work is refused, typed.
    const std::string line =
        server.handle_inline(R"({"id":9,"method":"thermal_map"})");
    auto parsed = Json::parse(line);
    ASSERT_TRUE(parsed.value.has_value());
    EXPECT_EQ(error_code_of(*parsed.value), "shutting-down");
    // Light introspection still answers.
    auto pong = Json::parse(server.handle_inline(R"({"id":10,"method":"ping"})"));
    ASSERT_TRUE(pong.value.has_value());
    EXPECT_TRUE(pong.value->at("ok").as_bool());
}

TEST(ServiceRuntime, HandleInlineMirrorsTheWireProtocol) {
    ServerConfig cfg;
    cfg.threads = 2;
    Server server(cfg, {small_session("die")});

    auto parsed = Json::parse(server.handle_inline(
        R"({"id":1,"method":"query","params":{"path":"service.name"}})"));
    ASSERT_TRUE(parsed.value.has_value());
    EXPECT_EQ(parsed.value->at("result").at("value").as_string(),
              "stsense-telemetry");

    parsed = Json::parse(server.handle_inline("garbage"));
    ASSERT_TRUE(parsed.value.has_value());
    EXPECT_EQ(error_code_of(*parsed.value), "malformed-request");

    parsed = Json::parse(server.handle_inline(
        R"({"id":2,"method":"sessions"})"));
    ASSERT_TRUE(parsed.value.has_value());
    EXPECT_EQ(parsed.value->at("result").at(0).at("name").as_string(), "die");
}

} // namespace
} // namespace stsense::service
