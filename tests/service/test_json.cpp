// service::Json: the wire format must survive hostile bytes (malformed
// text, nesting bombs) and round-trip doubles bitwise — the property the
// drain/resume parity assertions stand on.
#include "service/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

namespace stsense::service {
namespace {

Json parse_ok(const std::string& text) {
    auto r = Json::parse(text);
    EXPECT_TRUE(r.value.has_value()) << text << " -> " << r.error;
    return r.value ? *r.value : Json();
}

TEST(ServiceJson, ScalarRoundTrip) {
    EXPECT_EQ(parse_ok("null").dump(), "null");
    EXPECT_EQ(parse_ok("true").dump(), "true");
    EXPECT_EQ(parse_ok("false").dump(), "false");
    EXPECT_EQ(parse_ok("42").as_int(), 42);
    EXPECT_EQ(parse_ok("-17").as_int(), -17);
    EXPECT_EQ(parse_ok("\"hi\"").as_string(), "hi");
    EXPECT_EQ(parse_ok("1.5e3").as_double(), 1500.0);
}

TEST(ServiceJson, StringEscapes) {
    EXPECT_EQ(parse_ok(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
    EXPECT_EQ(parse_ok(R"("A/")").as_string(), "A/");
    // Escaping and parsing are inverses.
    const std::string nasty = "line1\nline2\t\"quoted\"\\slash";
    EXPECT_EQ(parse_ok(json_quote(nasty)).as_string(), nasty);
}

TEST(ServiceJson, DoubleBitwiseRoundTrip) {
    const double values[] = {0.1,      1.0 / 3.0, 1e300,  5e-324,
                             -2.5e-15, 12345.678, 1.0e17, -0.0};
    for (const double d : values) {
        const std::string text = Json(d).dump();
        const Json back = parse_ok(text);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back.as_double()),
                  std::bit_cast<std::uint64_t>(d))
            << "via " << text;
    }
}

TEST(ServiceJson, NonFiniteDumpsAsNull) {
    EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
    EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(ServiceJson, ObjectKeysSortedRegardlessOfInsertionOrder) {
    Json a = Json::object();
    a.set("zeta", 1);
    a.set("alpha", 2);
    a.set("mid", 3);
    Json b = Json::object();
    b.set("mid", 3);
    b.set("alpha", 2);
    b.set("zeta", 1);
    EXPECT_EQ(a.dump(), b.dump());
    EXPECT_EQ(a.dump(), R"({"alpha":2,"mid":3,"zeta":1})");
    EXPECT_TRUE(a == b);
}

TEST(ServiceJson, SetOverwritesExistingKey) {
    Json j = Json::object();
    j.set("k", 1);
    j.set("k", 2);
    EXPECT_EQ(j.size(), 1u);
    EXPECT_EQ(j.at("k").as_int(), 2);
}

TEST(ServiceJson, ContainerAccessorsAndFallbacks) {
    Json j = parse_ok(R"({"a":[1,2,3],"b":{"c":true}})");
    EXPECT_EQ(j.at("a").size(), 3u);
    EXPECT_EQ(j.at("a").at(1).as_int(), 2);
    EXPECT_TRUE(j.at("a").at(99).is_null());
    EXPECT_TRUE(j.at("missing").is_null());
    EXPECT_TRUE(j.at("b").at("c").as_bool());
    EXPECT_TRUE(j.contains("a"));
    EXPECT_FALSE(j.contains("z"));
    EXPECT_EQ(j.at("missing").as_int(-7), -7);
    EXPECT_EQ(j.at("missing").as_string("dflt"), "dflt");
}

TEST(ServiceJson, IntegerAccessorsSaturate) {
    constexpr auto int_max = std::numeric_limits<int>::max();
    constexpr auto int_min = std::numeric_limits<int>::min();
    constexpr auto i64_max = std::numeric_limits<std::int64_t>::max();
    constexpr auto i64_min = std::numeric_limits<std::int64_t>::min();
    EXPECT_EQ(Json(1e300).as_int(), int_max);
    EXPECT_EQ(Json(-1e300).as_int(), int_min);
    EXPECT_EQ(Json(1e300).as_int64(), i64_max);
    EXPECT_EQ(Json(-1e300).as_int64(), i64_min);

    // 1e400 overflows the parser's double to +inf.
    auto parsed = Json::parse("[1e400,-1e400]");
    ASSERT_TRUE(parsed.value.has_value()) << parsed.error;
    EXPECT_EQ(parsed.value->at(0).as_double(),
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(parsed.value->at(0).as_int(), int_max);
    EXPECT_EQ(parsed.value->at(1).as_int64(), i64_min);

    // 2^63 is one past int64's range; the largest double below it fits.
    EXPECT_EQ(Json(9223372036854775808.0).as_int64(), i64_max);
    EXPECT_EQ(Json(-9223372036854775808.0).as_int64(), i64_min);
    EXPECT_EQ(Json(9223372036854774784.0).as_int64(), 9223372036854774784LL);
    EXPECT_EQ(Json(2147483648.0).as_int(), int_max);
    EXPECT_EQ(Json(-2147483649.0).as_int(), int_min);

    // In range: truncation toward zero, as before.
    EXPECT_EQ(Json(-2.9).as_int(), -2);
    EXPECT_EQ(Json(2.9).as_int64(), 2);
    // NaN has no integer value: the fallback.
    EXPECT_EQ(Json(std::nan("")).as_int(7), 7);
    EXPECT_EQ(Json(std::nan("")).as_int64(-3), -3);
}

TEST(ServiceJson, MalformedInputsRejectedNotCrashed) {
    const char* bad[] = {
        "",          "{",           "[1,",       R"({"a":})",
        "tru",       "1.2.3",       "\"open",    "{}x",
        "[1 2]",     R"({"a" 1})",  "nan",       "+",
        "\x01",      R"({"a":1,})", "[,1]",      R"({1:2})",
    };
    for (const char* text : bad) {
        auto r = Json::parse(text);
        EXPECT_FALSE(r.value.has_value()) << "accepted: " << text;
        EXPECT_FALSE(r.error.empty()) << text;
    }
}

TEST(ServiceJson, ControlCharacterInStringRejected) {
    auto r = Json::parse("\"a\nb\"");
    EXPECT_FALSE(r.value.has_value());
}

TEST(ServiceJson, NestingBombRejectedWithinBoundedDepth) {
    std::string bomb;
    for (int i = 0; i < 500; ++i) bomb += '[';
    for (int i = 0; i < 500; ++i) bomb += ']';
    auto r = Json::parse(bomb);
    EXPECT_FALSE(r.value.has_value());
    EXPECT_NE(r.error.find("deep"), std::string::npos);

    // Sane nesting well inside the limit parses.
    std::string ok = "1";
    for (int i = 0; i < 20; ++i) ok = "[" + ok + "]";
    EXPECT_TRUE(Json::parse(ok).value.has_value());
}

TEST(ServiceJson, DumpParseDumpIsIdentity) {
    const std::string text =
        R"({"arr":[1,2.5,null,true,"s"],"nested":{"x":-1e-3},"z":0.1})";
    const Json once = parse_ok(text);
    const std::string dumped = once.dump();
    EXPECT_EQ(parse_ok(dumped).dump(), dumped);
}

} // namespace
} // namespace stsense::service
