#include "exec/result_cache.hpp"

#include "exec/fingerprint.hpp"

#include <gtest/gtest.h>

#include <string>

namespace stsense::exec {
namespace {

Series make_series(double scale, std::size_t rows = 4) {
    Series s;
    s.names = {"x", "y"};
    s.columns.resize(2);
    for (std::size_t i = 0; i < rows; ++i) {
        s.columns[0].push_back(static_cast<double>(i));
        s.columns[1].push_back(scale * static_cast<double>(i) + 0.125);
    }
    return s;
}

TEST(ResultCache, MissThenHitReturnsTheExactCachedObject) {
    ResultCache cache;
    EXPECT_EQ(cache.find(42), nullptr);
    const auto stored = cache.insert(42, make_series(2.0));
    const auto hit = cache.find(42);
    // Identity, not just equality: a hit is the memoized object itself.
    EXPECT_EQ(hit.get(), stored.get());
}

TEST(ResultCache, HitAndMissCountersTrack) {
    ResultCache cache;
    (void)cache.find(1); // miss
    (void)cache.insert(1, make_series(1.0));
    (void)cache.find(1); // hit
    (void)cache.find(1); // hit
    (void)cache.find(2); // miss
    const auto s = cache.stats();
    EXPECT_EQ(s.hits, 2u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(ResultCache, DuplicateInsertKeepsTheFirstObject) {
    ResultCache cache;
    const auto first = cache.insert(7, make_series(1.0));
    const auto second = cache.insert(7, make_series(1.0));
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCache, EvictsLeastRecentlyUsedPastByteBudget) {
    // Budget fits roughly two entries; inserting three evicts the LRU.
    const std::size_t entry_bytes = make_series(1.0).byte_size();
    ResultCache cache(2 * entry_bytes + entry_bytes / 2);
    (void)cache.insert(1, make_series(1.0));
    (void)cache.insert(2, make_series(2.0));
    (void)cache.find(1); // Touch 1 so 2 becomes the LRU victim.
    (void)cache.insert(3, make_series(3.0));
    EXPECT_NE(cache.find(1), nullptr);
    EXPECT_EQ(cache.find(2), nullptr);
    EXPECT_NE(cache.find(3), nullptr);
    const auto s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_LE(s.bytes, cache.byte_budget());
}

TEST(ResultCache, OversizedSingleEntrySurvivesInsertion) {
    ResultCache cache(1); // Budget smaller than any entry.
    const auto stored = cache.insert(9, make_series(1.0, 100));
    ASSERT_NE(stored, nullptr);
    EXPECT_EQ(cache.find(9).get(), stored.get());
}

TEST(ResultCache, GetOrComputeComputesOnlyOnMiss) {
    ResultCache cache;
    int computed = 0;
    const auto compute = [&] {
        ++computed;
        return make_series(4.0);
    };
    const auto a = cache.get_or_compute(5, compute);
    const auto b = cache.get_or_compute(5, compute);
    EXPECT_EQ(computed, 1);
    EXPECT_EQ(a.get(), b.get());
}

TEST(ResultCache, ClearEmptiesTheCache) {
    ResultCache cache;
    (void)cache.insert(1, make_series(1.0));
    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);
    EXPECT_EQ(cache.find(1), nullptr);
}

TEST(ResultCache, PublishesIntoMetricsRegistry) {
    MetricsRegistry metrics;
    ResultCache cache(ResultCache::kDefaultByteBudget, &metrics, "test.cache");
    (void)cache.find(1);
    (void)cache.insert(1, make_series(1.0));
    (void)cache.find(1);
    EXPECT_EQ(metrics.counter("test.cache.hits").value(), 1u);
    EXPECT_EQ(metrics.counter("test.cache.misses").value(), 1u);
    EXPECT_GT(metrics.gauge("test.cache.bytes").value(), 0.0);
}

TEST(Fingerprint, OrderAndContentSensitive) {
    const auto digest = [](auto feed) {
        Fingerprint fp;
        feed(fp);
        return fp.value();
    };
    const auto a = digest([](Fingerprint& fp) { fp.add(1.0).add(2.0); });
    const auto b = digest([](Fingerprint& fp) { fp.add(2.0).add(1.0); });
    const auto c = digest([](Fingerprint& fp) { fp.add(1.0).add(2.0); });
    EXPECT_NE(a, b);
    EXPECT_EQ(a, c);
}

TEST(Fingerprint, NegativeZeroMatchesPositiveZero) {
    Fingerprint a;
    Fingerprint b;
    a.add(0.0);
    b.add(-0.0);
    EXPECT_EQ(a.value(), b.value());
}

TEST(Fingerprint, StringsAreLengthPrefixed) {
    Fingerprint a;
    Fingerprint b;
    a.add(std::string_view("ab")).add(std::string_view("c"));
    b.add(std::string_view("a")).add(std::string_view("bc"));
    EXPECT_NE(a.value(), b.value());
}

} // namespace
} // namespace stsense::exec
