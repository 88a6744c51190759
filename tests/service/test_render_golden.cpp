// Byte digests of the sessions[i].dtm and sessions[i].population
// renders: before any job, and after one fixed dtm_run and
// population_run, at the default depth, at depth 1 and under a key
// filter. The digests were captured from an earlier implementation that
// rendered each field from its own leaf, so a change to how the
// published state is stored must keep every render byte for byte.
#include "service/server.hpp"

#include "golden.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace stsense::service {
namespace {

SessionSpec small_session() {
    SessionSpec spec;
    spec.name = "die";
    spec.monitor.grid_nx = 12;
    spec.monitor.grid_ny = 12;
    spec.sites_nx = 2;
    spec.sites_ny = 2;
    return spec;
}

Json call(Server& server, const std::string& method, const Json& params) {
    Json req = Json::object();
    req.set("id", 1);
    req.set("method", method);
    req.set("params", params);
    auto parsed = Json::parse(server.handle_inline(req.dump()));
    EXPECT_TRUE(parsed.value.has_value());
    if (!parsed.value) return Json();
    EXPECT_TRUE(parsed.value->at("ok").as_bool()) << parsed.value->dump();
    return parsed.value->at("result");
}

/// The three renders of `path`: default depth, depth 1, filter "*s*"
/// (prunes keys at every level, nested objects included).
std::vector<std::string> renders(Server& server, const std::string& path) {
    std::vector<std::string> out;
    for (int shape = 0; shape < 3; ++shape) {
        Json q = Json::object();
        q.set("path", path);
        if (shape == 1) q.set("depth", 1);
        if (shape == 2) q.set("filter", "*s*");
        out.push_back(call(server, "query", q).at("value").dump());
    }
    return out;
}

void expect_digests(const std::vector<std::string>& got,
                    const std::vector<std::string>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(golden::digest_bytes(got[i]), want[i])
            << "render " << i << ": " << got[i];
    }
}

TEST(ServiceRenderGolden, DtmRendersAreByteStable) {
    ServerConfig cfg;
    cfg.threads = 2;
    Server server(cfg, {small_session()});

    expect_digests(renders(server, "sessions[0].dtm"),
                   {"28dc5017751753d4", "bdb84084cd72c65c",
                    "2322aff26adfc2e5"});

    Json p = Json::object();
    p.set("session", 0);
    p.set("duration_s", 0.4);
    p.set("grid", 12);
    call(server, "dtm_run", p);

    expect_digests(renders(server, "sessions[0].dtm"),
                   {"c908053f45152a0b", "0f8d450349ff1824",
                    "7ed39a3aa6de00f9"});
}

TEST(ServiceRenderGolden, PopulationRendersAreByteStable) {
    ServerConfig cfg;
    cfg.threads = 2;
    Server server(cfg, {small_session()});

    expect_digests(renders(server, "sessions[0].population"),
                   {"2c72d6082b459ad4", "2c72d6082b459ad4",
                    "abf8b0fe2f2ef440"});

    Json p = Json::object();
    p.set("session", 0);
    p.set("dice", 400);
    p.set("shard", 128);
    call(server, "population_run", p);

    expect_digests(renders(server, "sessions[0].population"),
                   {"6f9ebe626c31d68f", "6f9ebe626c31d68f",
                    "c6dd0fd71fd61787"});
}

} // namespace
} // namespace stsense::service
