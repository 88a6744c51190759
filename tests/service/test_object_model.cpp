// The lazily-evaluated object model: path resolution, depth truncation,
// key filtering — and the laziness itself (a query for one session must
// not materialize its siblings).
#include "service/object_model.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

namespace stsense::service {
namespace {

/// Test tree mirroring the server's shape:
///   { pool: {queue_depth, inflight},
///     sessions: [ {name, sites:[{health},...]}, ... ] }
/// `materialized` counts session-subtree factory invocations — the
/// laziness probe.
ModelPtr make_tree(std::atomic<int>& materialized, int n_sessions) {
    auto session_node = [&materialized](std::size_t i) -> ModelPtr {
        materialized.fetch_add(1);
        auto site = [](std::size_t s) -> ModelPtr {
            return object({
                {"health", [s] {
                     return fixed_leaf(Json(s == 2 ? "Quarantined" : "Healthy"));
                 }},
                {"last_c", [s] { return fixed_leaf(Json(25.0 + double(s))); }},
            });
        };
        return object({
            {"name",
             [i] { return fixed_leaf(Json("die-" + std::to_string(i))); }},
            {"sites", [site] {
                 return array([] { return std::size_t{4}; }, site);
             }},
        });
    };
    return object({
        {"pool", [] {
             return object({
                 {"queue_depth", [] { return fixed_leaf(Json(3)); }},
                 {"inflight", [] { return fixed_leaf(Json(1)); }},
             });
         }},
        {"sessions", [&materialized, n_sessions, session_node] {
             return array([n_sessions] { return std::size_t(n_sessions); },
                          session_node);
         }},
    });
}

TEST(ServiceObjectModel, WildcardMatch) {
    EXPECT_TRUE(wildcard_match("", ""));
    EXPECT_TRUE(wildcard_match("*", "anything"));
    EXPECT_TRUE(wildcard_match("hit*", "hits"));
    EXPECT_TRUE(wildcard_match("hit*", "hit_rate"));
    EXPECT_FALSE(wildcard_match("hit*", "misses"));
    EXPECT_TRUE(wildcard_match("*_c", "last_c"));
    EXPECT_FALSE(wildcard_match("*_c", "name"));
    EXPECT_TRUE(wildcard_match("a*b*c", "axxbyyc"));
    EXPECT_FALSE(wildcard_match("a*b*c", "axxbyy"));
    EXPECT_FALSE(wildcard_match("abc", "abcd"));
}

TEST(ServiceObjectModel, PathParsing) {
    std::vector<std::string> segs;
    std::string err;
    EXPECT_TRUE(parse_model_path("state.sessions[3].sites[12].health", segs, err));
    EXPECT_EQ(segs, (std::vector<std::string>{"sessions", "[3]", "sites",
                                              "[12]", "health"}));
    EXPECT_TRUE(parse_model_path("pool.queue_depth", segs, err));
    EXPECT_EQ(segs, (std::vector<std::string>{"pool", "queue_depth"}));
    EXPECT_TRUE(parse_model_path("", segs, err));
    EXPECT_TRUE(segs.empty());
    EXPECT_TRUE(parse_model_path("state", segs, err));
    EXPECT_TRUE(segs.empty());

    EXPECT_FALSE(parse_model_path("sessions[", segs, err));
    EXPECT_FALSE(parse_model_path("a..b", segs, err));
    EXPECT_FALSE(parse_model_path("x[y]", segs, err));
    EXPECT_FALSE(parse_model_path(".leading", segs, err));
    EXPECT_FALSE(parse_model_path("a.b[1]extra", segs, err));
}

TEST(ServiceObjectModel, LeafAndIndexQueries) {
    std::atomic<int> mat{0};
    auto root = make_tree(mat, 8);

    auto r = query_model(root, "pool.queue_depth");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.value.as_int(), 3);

    r = query_model(root, "state.sessions[5].name");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.value.as_string(), "die-5");

    r = query_model(root, "sessions[1].sites[2].health");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.value.as_string(), "Quarantined");
}

TEST(ServiceObjectModel, QueryMaterializesOnlyTheAddressedSubtree) {
    std::atomic<int> mat{0};
    auto root = make_tree(mat, 100);
    auto r = query_model(root, "sessions[42].sites[0].last_c");
    ASSERT_TRUE(r.ok) << r.error;
    // One session factory ran — the other 99 were never evaluated.
    EXPECT_EQ(mat.load(), 1);
}

TEST(ServiceObjectModel, UnknownKeyAndOutOfRangeAreNamedErrors) {
    std::atomic<int> mat{0};
    auto root = make_tree(mat, 2);

    auto r = query_model(root, "pool.bogus");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("bogus"), std::string::npos);

    r = query_model(root, "sessions[9].name");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("out of range"), std::string::npos);

    r = query_model(root, "pool[0]");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("not an array"), std::string::npos);
}

TEST(ServiceObjectModel, IndexTooLargeForSizeTIsOutOfRange) {
    std::atomic<int> mat{0};
    auto root = make_tree(mat, 2);
    const auto r = query_model(root, "sessions[99999999999999999999999]");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("sessions[99999999999999999999999] is out of range"),
              std::string::npos)
        << r.error;
    EXPECT_EQ(mat.load(), 0);
}

TEST(ServiceObjectModel, JsonNodeRendersLikeTheEquivalentTree) {
    Json doc = Json::object();
    doc.set("name", "fleet");
    doc.set("peak_c", 91.5);
    Json regions = Json::array();
    for (const char* state : {"active", "faulted"}) {
        Json region = Json::object();
        region.set("state", state);
        region.set("measured_c", nullptr);
        regions.push_back(std::move(region));
    }
    doc.set("regions", std::move(regions));
    doc.set("empty", Json::array());
    const ModelPtr root = object({{"fleet", [doc] { return json_node(doc); }}});

    // Default depth renders the document as it is.
    auto r = query_model(root, "fleet");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.value.dump(), doc.dump());

    // Paths address objects, arrays and leaves inside it.
    r = query_model(root, "fleet.regions[1].state");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.value.as_string(), "faulted");
    r = query_model(root, "fleet.regions[2]");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("out of range (length 2)"), std::string::npos)
        << r.error;
    r = query_model(root, "fleet.peak_c.x");
    EXPECT_FALSE(r.ok);

    // Depth truncates its containers (empty ones too); filters prune
    // its keys at every level.
    QueryOptions opt;
    opt.depth = 1;
    r = query_model(root, "fleet", opt);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.value.at("peak_c").as_double(), 91.5);
    EXPECT_EQ(r.value.at("regions").as_string(), QueryOptions::kTruncated);
    EXPECT_EQ(r.value.at("empty").as_string(), QueryOptions::kTruncated);
    opt = QueryOptions();
    opt.filter = "*s*";
    r = query_model(root, "fleet", opt);
    ASSERT_TRUE(r.ok);
    EXPECT_FALSE(r.value.contains("peak_c"));
    EXPECT_FALSE(r.value.contains("name"));
    EXPECT_TRUE(r.value.at("regions").at(0).contains("state"));
    EXPECT_TRUE(r.value.at("regions").at(0).contains("measured_c"));
}

TEST(ServiceObjectModel, DepthLimitTruncatesContainers) {
    std::atomic<int> mat{0};
    auto root = make_tree(mat, 2);

    QueryOptions opt;
    opt.depth = 1;
    auto r = query_model(root, "", opt);
    ASSERT_TRUE(r.ok) << r.error;
    // Root renders; its two container children are markers.
    EXPECT_EQ(r.value.at("pool").as_string(), QueryOptions::kTruncated);
    EXPECT_EQ(r.value.at("sessions").as_string(), QueryOptions::kTruncated);

    opt.depth = 2;
    r = query_model(root, "", opt);
    ASSERT_TRUE(r.ok);
    // pool's leaves render at depth 2 (leaves are always rendered)...
    EXPECT_EQ(r.value.at("pool").at("queue_depth").as_int(), 3);
    // ...but each sessions[i] is a container one level deeper: marker.
    EXPECT_EQ(r.value.at("sessions").at(0).as_string(),
              QueryOptions::kTruncated);

    // Depth counts from the *selected* node, not the root.
    opt.depth = 1;
    r = query_model(root, "sessions[0]", opt);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.value.at("name").as_string(), "die-0");
    EXPECT_EQ(r.value.at("sites").as_string(), QueryOptions::kTruncated);
}

TEST(ServiceObjectModel, DepthZeroOnContainerIsMarkerOnLeafIsValue) {
    std::atomic<int> mat{0};
    auto root = make_tree(mat, 1);
    QueryOptions opt;
    opt.depth = 0;
    auto r = query_model(root, "", opt);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.value.as_string(), QueryOptions::kTruncated);

    r = query_model(root, "pool.inflight", opt);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.value.as_int(), 1);
}

TEST(ServiceObjectModel, FilterPrunesObjectKeysAtEveryLevel) {
    std::atomic<int> mat{0};
    auto root = make_tree(mat, 1);

    QueryOptions opt;
    opt.filter = "queue*";
    auto r = query_model(root, "pool", opt);
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(r.value.contains("queue_depth"));
    EXPECT_FALSE(r.value.contains("inflight"));
    EXPECT_EQ(r.value.size(), 1u);

    // The filter applies to rendered keys, not to path segments already
    // named in the query: addressing inflight explicitly still works.
    r = query_model(root, "pool.inflight", opt);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.value.as_int(), 1);
}

} // namespace
} // namespace stsense::service
