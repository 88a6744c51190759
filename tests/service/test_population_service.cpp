// population_run through the full service stack: dispatch, parameter
// validation, the streaming result payload, live sessions[i].population
// telemetry readable from a second client mid-run, and cooperative
// cancellation with the typed `cancelled` wire error.
#include "service/server.hpp"

#include "population/engine.hpp"
#include "service/transport.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace stsense::service {
namespace {

SessionSpec small_session(const std::string& name = "die-a") {
    SessionSpec spec;
    spec.name = name;
    spec.monitor.grid_nx = 12;
    spec.monitor.grid_ny = 12;
    spec.sites_nx = 2;
    spec.sites_ny = 2;
    return spec;
}

/// Minimal protocol client: correlates responses by id, skips events.
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
            if (j.contains("event")) continue;
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

    std::shared_ptr<Connection> conn_;
    std::vector<Json> responses_;
};

Json population_params(int dice, int shard = 128) {
    Json p = Json::object();
    p.set("session", 0);
    p.set("dice", dice);
    p.set("shard", shard);
    return p;
}

Json query(Client& client, std::int64_t id, const std::string& path) {
    Json p = Json::object();
    p.set("path", path);
    return client.call(id, "query", std::move(p));
}

TEST(PopulationService, RunReportsStreamingSummaries) {
    ServerConfig cfg;
    cfg.threads = 2;
    Server server(cfg, {small_session()});
    LoopbackTransport loopback;
    server.start(loopback);
    Client client(loopback.connect());

    const Json r = client.call(1, "population_run", population_params(400));
    ASSERT_TRUE(r.at("ok").as_bool()) << r.dump();
    const Json& res = r.at("result");
    EXPECT_EQ(res.at("dice").as_int64(), 400);
    EXPECT_EQ(res.at("shards").as_int64(), 4);
    EXPECT_EQ(res.at("calibration").as_string(), "two_point");
    EXPECT_EQ(res.at("resumed_dice").as_int64(), 0);
    EXPECT_GE(res.at("yield_fresh").as_double(), 0.0);
    EXPECT_LE(res.at("yield_fresh").as_double(), 1.0);
    ASSERT_EQ(res.at("metrics").size(), 6u);
    const Json& fresh = res.at("metrics").at(0);
    EXPECT_EQ(fresh.at("name").as_string(), "fresh_max_abs_err_c");
    EXPECT_EQ(fresh.at("count").as_int64(), 400);
    EXPECT_GT(fresh.at("max").as_double(), 0.0);
    ASSERT_EQ(fresh.at("quantiles").size(), 3u);
    EXPECT_EQ(fresh.at("quantiles").at(2).at("p").as_double(), 0.99);

    // Repeat run: same spec, bitwise the same streamed statistics.
    const Json r2 = client.call(2, "population_run", population_params(400));
    ASSERT_TRUE(r2.at("ok").as_bool()) << r2.dump();
    EXPECT_EQ(r2.at("result").at("fingerprint").as_string(),
              res.at("fingerprint").as_string());
    EXPECT_EQ(r2.at("result").at("yield_fresh").as_double(),
              res.at("yield_fresh").as_double());
    EXPECT_EQ(r2.at("result")
                  .at("metrics")
                  .at(0)
                  .at("quantiles")
                  .at(2)
                  .at("value")
                  .as_double(),
              fresh.at("quantiles").at(2).at("value").as_double());

    server.request_shutdown();
    server.wait();
}

TEST(PopulationService, ObjectModelAnswersLiveQueriesMidRun) {
    ServerConfig cfg;
    cfg.threads = 2;
    Server server(cfg, {small_session()});
    LoopbackTransport loopback;
    server.start(loopback);
    Client runner(loopback.connect());
    Client watcher(loopback.connect());

    // Before any run: runs = 0, snapshot leaves are null.
    Json q = query(watcher, 1, "sessions[0].population");
    ASSERT_TRUE(q.at("ok").as_bool()) << q.dump();
    EXPECT_EQ(q.at("result").at("value").at("runs").as_int64(), 0);
    EXPECT_TRUE(q.at("result").at("value").at("dice_done").is_null());

    // A run big enough to straddle many watcher polls (tiny shards =
    // many snapshot publishes), kicked off on a second connection.
    ASSERT_TRUE(runner.send(2, "population_run", population_params(20000, 64)));

    bool saw_mid_run = false;
    for (int i = 0; i < 2000 && !saw_mid_run; ++i) {
        q = query(watcher, 100 + i, "sessions[0].population.dice_done");
        ASSERT_TRUE(q.at("ok").as_bool()) << q.dump();
        const Json& v = q.at("result").at("value");
        if (!v.is_null() && v.as_int64() > 0 && v.as_int64() < 20000) {
            saw_mid_run = true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(saw_mid_run)
        << "watcher never observed a mid-run snapshot; the model is not live";

    const Json done = runner.await(2);
    ASSERT_TRUE(done.at("ok").as_bool()) << done.dump();

    q = query(watcher, 5000, "sessions[0].population");
    ASSERT_TRUE(q.at("ok").as_bool()) << q.dump();
    const Json& value = q.at("result").at("value");
    EXPECT_EQ(value.at("runs").as_int64(), 1);
    EXPECT_FALSE(value.at("running").as_bool());
    EXPECT_EQ(value.at("dice_done").as_int64(), 20000);
    EXPECT_EQ(value.at("dice_total").as_int64(), 20000);
    EXPECT_EQ(value.at("calibration").as_string(), "two_point");
    EXPECT_EQ(value.at("yield_fresh").as_double(),
              done.at("result").at("yield_fresh").as_double());
    EXPECT_GT(value.at("fresh_p99_c").as_double(), 0.0);

    server.request_shutdown();
    server.wait();
}

TEST(PopulationService, CancelMidRunIsTyped) {
    ServerConfig cfg;
    cfg.threads = 2;
    Server server(cfg, {small_session()});
    LoopbackTransport loopback;
    server.start(loopback);
    Client client(loopback.connect());

    ASSERT_TRUE(
        client.send(1, "population_run", population_params(200000, 64)));
    // Land the cancel while the run is in flight; light requests bypass
    // the busy pool. Retry until the heavy request is actually admitted.
    bool hit = false;
    for (int i = 0; i < 2000 && !hit; ++i) {
        Json p = Json::object();
        p.set("request", 1);
        const Json c = client.call(1000 + i, "cancel", std::move(p));
        ASSERT_TRUE(c.at("ok").as_bool()) << c.dump();
        hit = c.at("result").at("cancelled").as_bool();
        if (!hit) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(hit) << "cancel never found the request in flight";

    const Json r = client.await(1);
    ASSERT_FALSE(r.at("ok").as_bool()) << r.dump();
    EXPECT_EQ(r.at("error").at("code").as_string(), "cancelled");

    // The snapshot is left idle, not wedged in `running`.
    Json q = query(client, 5000, "sessions[0].population.running");
    ASSERT_TRUE(q.at("ok").as_bool()) << q.dump();
    EXPECT_FALSE(q.at("result").at("value").as_bool());

    server.request_shutdown();
    server.wait();
}

TEST(PopulationService, BadParamsAreRejectedTyped) {
    ServerConfig cfg;
    cfg.threads = 2;
    Server server(cfg, {small_session()});
    LoopbackTransport loopback;
    server.start(loopback);
    Client client(loopback.connect());

    Json p = population_params(400);
    p.set("calibration", "bogus");
    Json r = client.call(1, "population_run", p);
    ASSERT_FALSE(r.at("ok").as_bool());
    EXPECT_EQ(r.at("error").at("code").as_string(), "bad-params");

    r = client.call(2, "population_run", population_params(10));
    ASSERT_FALSE(r.at("ok").as_bool());
    EXPECT_EQ(r.at("error").at("code").as_string(), "bad-params");

    Json c = population_params(400);
    c.set("corner", "XX");
    r = client.call(3, "population_run", c);
    ASSERT_FALSE(r.at("ok").as_bool());
    EXPECT_EQ(r.at("error").at("code").as_string(), "bad-params");

    server.request_shutdown();
    server.wait();
}

TEST(PopulationService, RecalIntervalAtOrBelowZeroMeansNever) {
    // The session fills the engine's config itself: a positive
    // recal_interval_hours schedules periodic re-trims, and zero or a
    // negative interval never recalibrates (interval 0). The answer's
    // fingerprint is the engine's hash of exactly that config.
    ServerConfig cfg;
    cfg.threads = 2;
    const SessionSpec spec = small_session();
    Server server(cfg, {spec});
    LoopbackTransport loopback;
    server.start(loopback);
    Client client(loopback.connect());

    const auto fingerprint_of = [&spec](double interval) {
        population::PopulationConfig pc;
        pc.tech = spec.tech;
        pc.ring = spec.ring;
        pc.dice = 200;
        pc.shard_size = 128;
        if (interval > 0.0) {
            pc.recal.policy = population::RecalPolicy::Periodic;
            pc.recal.interval_hours = interval;
        }
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(
                          population::population_fingerprint(pc)));
        return std::string(hex);
    };
    std::int64_t id = 1;
    for (const double interval : {0.0, -5.0, 1000.0}) {
        Json p = population_params(200);
        p.set("recal_interval_hours", interval);
        const Json r = client.call(id++, "population_run", std::move(p));
        ASSERT_TRUE(r.at("ok").as_bool()) << r.dump();
        EXPECT_EQ(r.at("result").at("fingerprint").as_string(),
                  fingerprint_of(interval))
            << "interval " << interval;
    }

    // A rejected config answers with the engine's own message.
    population::PopulationConfig bad;
    bad.dice = 200;
    bad.shard_size = 128;
    bad.yield_limit_c = 0.0;
    std::string message;
    try {
        population::validate(bad);
    } catch (const std::invalid_argument& e) {
        message = e.what();
    }
    ASSERT_FALSE(message.empty());
    Json p = population_params(200);
    p.set("yield_limit_c", 0.0);
    const Json r = client.call(id++, "population_run", std::move(p));
    ASSERT_FALSE(r.at("ok").as_bool());
    EXPECT_EQ(r.at("error").at("code").as_string(), "bad-params");
    EXPECT_EQ(r.at("error").at("message").as_string(), message);

    server.request_shutdown();
    server.wait();
}

} // namespace
} // namespace stsense::service
