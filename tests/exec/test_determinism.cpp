// The exec determinism contract, asserted end-to-end: running any
// paper workload through the pool with 1, 2, or N threads produces
// BITWISE identical results to the serial reference loop, and cache
// hits hand back exactly the memoized values. This is what lets the
// runtime layer claim "the figures are unchanged — only faster".
#include "exec/result_cache.hpp"
#include "exec/thread_pool.hpp"
#include "phys/corners.hpp"
#include "ring/sweep.hpp"
#include "sensor/optimizer.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace stsense {
namespace {

using cells::CellKind;

/// Bitwise vector equality — memcmp of the double payload, so -0.0 vs
/// 0.0 or NaN payload differences would fail (stronger than ==).
bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

ring::SweepRuntime pool_runtime(exec::ThreadPool& pool) {
    ring::SweepRuntime rt;
    rt.pool = &pool;
    rt.use_cache = false; // Exercise the compute path, not the cache.
    return rt;
}

TEST(ExecDeterminism, AnalyticSweepBitwiseIdenticalAcrossThreadCounts) {
    const auto tech = phys::cmos350();
    const auto cfg = ring::RingConfig::uniform(CellKind::Inv, 5, 2.5);
    const auto serial =
        ring::paper_sweep(tech, cfg, ring::Engine::Analytic, {},
                          ring::SweepRuntime::serial());
    for (const int threads : {1, 2, 8}) {
        exec::ThreadPool pool(threads);
        const auto parallel = ring::paper_sweep(tech, cfg, ring::Engine::Analytic,
                                                {}, pool_runtime(pool));
        EXPECT_TRUE(bitwise_equal(serial.period_s, parallel.period_s))
            << "threads=" << threads;
        EXPECT_TRUE(bitwise_equal(serial.frequency_hz, parallel.frequency_hz))
            << "threads=" << threads;
        EXPECT_TRUE(bitwise_equal(serial.temps_c, parallel.temps_c))
            << "threads=" << threads;
    }
}

TEST(ExecDeterminism, SpiceSweepBitwiseIdenticalAcrossThreadCounts) {
    const auto tech = phys::cmos350();
    const auto cfg = ring::RingConfig::uniform(CellKind::Inv, 3, 2.5);
    const std::vector<double> grid{-50.0, 25.0, 150.0};
    // Coarse-but-real transient settings keep this test fast.
    ring::SpiceRingOptions opt;
    opt.skip_cycles = 1;
    opt.measure_cycles = 2;
    opt.steps_per_period = 80;

    const auto serial = ring::temperature_sweep(tech, cfg, grid, ring::Engine::Spice,
                                                opt, ring::SweepRuntime::serial());
    for (const int threads : {1, 2, 4}) {
        exec::ThreadPool pool(threads);
        const auto parallel = ring::temperature_sweep(
            tech, cfg, grid, ring::Engine::Spice, opt, pool_runtime(pool));
        EXPECT_TRUE(bitwise_equal(serial.period_s, parallel.period_s))
            << "threads=" << threads;
    }
}

TEST(ExecDeterminism, CacheHitReturnsMemoizedValuesAndBumpsHitCounter) {
    const auto tech = phys::cmos350();
    const auto cfg = ring::RingConfig::uniform(CellKind::Inv, 5, 3.0);
    exec::ResultCache cache;
    ring::SweepRuntime rt;
    rt.cache = &cache;
    rt.parallel = false;

    const auto first = ring::paper_sweep(tech, cfg, ring::Engine::Analytic, {}, rt);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 1u);

    const auto second = ring::paper_sweep(tech, cfg, ring::Engine::Analytic, {}, rt);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_TRUE(bitwise_equal(first.period_s, second.period_s));
    EXPECT_TRUE(bitwise_equal(first.temps_c, second.temps_c));

    // The cached object is exactly the memoized series.
    const auto key = ring::sweep_fingerprint(tech, cfg,
                                             ring::paper_temperature_grid_c(),
                                             ring::Engine::Analytic);
    const auto entry = cache.find(key);
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(bitwise_equal(entry->columns[1], first.period_s));
}

TEST(ExecDeterminism, FingerprintSeparatesDifferentInputs) {
    const auto tech = phys::cmos350();
    const auto grid = ring::paper_temperature_grid_c();
    const auto cfg_a = ring::RingConfig::uniform(CellKind::Inv, 5, 2.5);
    const auto cfg_b = ring::RingConfig::uniform(CellKind::Inv, 5, 2.50001);
    const auto cfg_c = ring::RingConfig::uniform(CellKind::Nand2, 5, 2.5);
    const auto base = ring::sweep_fingerprint(tech, cfg_a, grid, ring::Engine::Analytic);
    EXPECT_NE(base, ring::sweep_fingerprint(tech, cfg_b, grid, ring::Engine::Analytic));
    EXPECT_NE(base, ring::sweep_fingerprint(tech, cfg_c, grid, ring::Engine::Analytic));
    EXPECT_NE(base, ring::sweep_fingerprint(tech, cfg_a, grid, ring::Engine::Spice));
    auto tech_ff = phys::apply_corner(tech, phys::Corner::FF);
    EXPECT_NE(base,
              ring::sweep_fingerprint(tech_ff, cfg_a, grid, ring::Engine::Analytic));
}

/// Runs `search` on `pool` after emptying the global sweep cache, and
/// checks that every one of its `candidates` sweeps was a cache miss —
/// so two legs compare two computations, not one result with itself.
template <class Search>
auto computed_on(exec::ThreadPool& pool, std::size_t candidates,
                 const Search& search) {
    auto& cache = exec::ResultCache::global();
    cache.clear();
    const auto before = cache.stats();
    sensor::OptimizerRuntime rt;
    rt.pool = &pool;
    auto out = search(rt);
    const auto after = cache.stats();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses - before.misses, candidates);
    return out;
}

TEST(ExecDeterminism, RatioSweepIdenticalAcrossThreadCounts) {
    const auto tech = phys::cmos350();
    const std::vector<double> ratios{1.75, 2.25, 3.0, 4.0};
    exec::ThreadPool one(1);
    exec::ThreadPool many(4);
    const auto search = [&](const sensor::OptimizerRuntime& rt) {
        return sensor::ratio_sweep(tech, CellKind::Inv, 5, ratios, rt);
    };
    const auto a = computed_on(one, ratios.size(), search);
    const auto b = computed_on(many, ratios.size(), search);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].ratio, b[i].ratio);
        EXPECT_EQ(a[i].max_nl_percent, b[i].max_nl_percent);
        EXPECT_EQ(a[i].period_27c_s, b[i].period_27c_s);
    }
}

TEST(ExecDeterminism, MixEnumerationIdenticalAcrossThreadCounts) {
    const auto tech = phys::cmos350();
    const std::vector<CellKind> kinds{CellKind::Inv, CellKind::Nand2, CellKind::Nor2};
    exec::ThreadPool one(1);
    exec::ThreadPool many(4);
    const auto search = [&](const sensor::OptimizerRuntime& rt) {
        return sensor::enumerate_mixes(tech, kinds, 5, rt);
    };
    // 21 multisets of 5 stages over 3 kinds: C(5 + 2, 2).
    const auto a = computed_on(one, 21, search);
    const auto b = computed_on(many, 21, search);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name) << "rank " << i;
        EXPECT_EQ(a[i].max_nl_percent, b[i].max_nl_percent) << "rank " << i;
    }
}

TEST(ExecDeterminism, MonteCarloBatchIdenticalAcrossThreadCounts) {
    const auto tech = phys::cmos350();
    const phys::VariationSpec spec;
    const util::Rng base(12345);
    exec::ThreadPool one(1);
    exec::ThreadPool many(4);
    std::vector<phys::Technology> a(32), b(32);
    phys::VariationStream(tech, spec, base).next_n(a, &one);
    phys::VariationStream(tech, spec, base).next_n(b, &many);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].nmos.vth0, b[i].nmos.vth0) << "trial " << i;
        EXPECT_EQ(a[i].pmos.kp, b[i].pmos.kp) << "trial " << i;
        EXPECT_EQ(a[i].vdd, b[i].vdd) << "trial " << i;
    }
}

TEST(ExecDeterminism, MonteCarloTrialMatchesItsSplitStream) {
    // The batch must equal hand-derived per-trial streams — the
    // documented Rng::split(stream_id) contract, not an implementation
    // accident.
    const auto tech = phys::cmos350();
    const phys::VariationSpec spec;
    const util::Rng base(999);
    std::vector<phys::Technology> batch(8);
    phys::VariationStream(tech, spec, base).next_n(batch, nullptr);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        util::Rng trial = base.split(static_cast<std::uint64_t>(i));
        const auto expected = phys::sample_variation(tech, spec, trial);
        EXPECT_EQ(batch[i].nmos.vth0, expected.nmos.vth0) << "trial " << i;
        EXPECT_EQ(batch[i].pmos.vth0, expected.pmos.vth0) << "trial " << i;
    }
}

} // namespace
} // namespace stsense
