// Cancellation through the sweep and optimizer layers: an armed-but-
// never-fired token is bitwise free, a fired token unwinds as
// CancelledError *after* flushing the checkpoint (no torn file, bitwise
// resume), cancellation lands at lock-step group boundaries, and no
// fault policy quietly absorbs a cancelled request into a
// completed-looking sweep.
#include "ring/sweep.hpp"

#include "exec/cancel.hpp"
#include "exec/checkpoint.hpp"
#include "exec/fault_injector.hpp"
#include "exec/metrics.hpp"
#include "exec/thread_pool.hpp"
#include "ring/analytic.hpp"
#include "sensor/optimizer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace stsense::ring {
namespace {

using cells::CellKind;

struct TempFile {
    std::string path;
    explicit TempFile(const std::string& name)
        : path(testing::TempDir() + name) {}
    ~TempFile() { std::remove(path.c_str()); }
};

bool file_exists(const std::string& path) {
    return std::ifstream(path).good();
}

RingConfig test_ring() { return RingConfig::uniform(CellKind::Inv, 5, 2.75); }

std::vector<double> linspace(double lo, double hi, int n) {
    std::vector<double> out;
    for (int i = 0; i < n; ++i) {
        out.push_back(lo + (hi - lo) * static_cast<double>(i) /
                               static_cast<double>(n - 1));
    }
    return out;
}

void expect_bitwise_equal(const SweepResult& a, const SweepResult& b) {
    ASSERT_EQ(a.temps_c.size(), b.temps_c.size());
    for (std::size_t i = 0; i < a.temps_c.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.period_s[i]),
                  std::bit_cast<std::uint64_t>(b.period_s[i]))
            << "period differs at point " << i;
        EXPECT_EQ(a.status[i], b.status[i]) << "status differs at point " << i;
    }
}

TEST(TemperatureSweepCancel, ArmedButUnfiredTokenIsBitwiseFree) {
    const auto tech = phys::cmos350();
    const auto cfg = test_ring();
    const auto grid = paper_temperature_grid_c();

    const auto plain = temperature_sweep(tech, cfg, grid, Engine::Analytic, {},
                                         SweepRuntime::serial());

    // Serial, token armed with a far-future deadline, never fired.
    SweepRuntime armed = SweepRuntime::serial();
    armed.cancel = exec::CancelToken::make().child_with_deadline_ms(1e9);
    expect_bitwise_equal(
        temperature_sweep(tech, cfg, grid, Engine::Analytic, {}, armed), plain);

    // Parallel path, same armed token.
    SweepRuntime par;
    par.use_cache = false;
    par.cancel = exec::CancelToken::make().child_with_deadline_ms(1e9);
    expect_bitwise_equal(
        temperature_sweep(tech, cfg, grid, Engine::Analytic, {}, par), plain);
}

TEST(TemperatureSweepCancel, ArmedTokenIsBitwiseFreeOnTheSpiceEngine) {
    const auto tech = phys::cmos350();
    const auto cfg = test_ring();
    const auto grid = linspace(-20.0, 100.0, 5);
    const auto opt = SpiceRingOptions::fast();

    const auto plain = temperature_sweep(tech, cfg, grid, Engine::Spice, opt,
                                         SweepRuntime::serial());

    SweepRuntime armed = SweepRuntime::serial();
    armed.cancel = exec::CancelToken::make().child_with_deadline_ms(1e9);
    expect_bitwise_equal(
        temperature_sweep(tech, cfg, grid, Engine::Spice, opt, armed), plain);
}

TEST(TemperatureSweepCancel, PreFiredTokenUnwindsBeforeAnyWork) {
    const auto tech = phys::cmos350();
    const auto cfg = test_ring();
    const auto grid = paper_temperature_grid_c();
    auto& sweeps = exec::MetricsRegistry::global().counter("exec.cancel.sweeps");

    for (const bool parallel : {false, true}) {
        SweepRuntime rt = parallel ? SweepRuntime{} : SweepRuntime::serial();
        rt.use_cache = false;
        rt.cancel = exec::CancelToken::make();
        rt.cancel.cancel(exec::CancelCause::Disconnected);

        const std::uint64_t before = sweeps.value();
        try {
            temperature_sweep(tech, cfg, grid, Engine::Analytic, {}, rt);
            FAIL() << "a pre-fired token must unwind the sweep (parallel="
                   << parallel << ")";
        } catch (const exec::CancelledError& e) {
            EXPECT_EQ(e.cause, exec::CancelCause::Disconnected);
        }
        EXPECT_EQ(sweeps.value(), before + 1);
    }
}

TEST(TemperatureSweepCancel, CancelStormUnwindsParallelSweepAndResumesBitwise) {
    // CancelStorm fires the sweep's shared token at a deterministic task
    // dispatch: with p = 1 the very first dispatched chunk cancels the
    // whole sweep. The unwind must flush (not tear) the checkpoint, and
    // a re-issued identical sweep must complete bitwise.
    const auto tech = phys::cmos350();
    const auto cfg = test_ring();
    const auto grid = paper_temperature_grid_c();
    TempFile ckpt("sweep_cancel_storm.ckpt");

    const auto baseline = temperature_sweep(tech, cfg, grid, Engine::Analytic,
                                            {}, SweepRuntime::serial());

    exec::ThreadPool pool(2);
    {
        exec::FaultInjector::Config fc;
        fc.seed = 11;
        fc.p_cancel_storm = 1.0;
        exec::FaultInjector injector(fc);
        exec::FaultInjector::Scope scope(injector);

        SweepRuntime rt;
        rt.pool = &pool;
        rt.use_cache = false;
        rt.checkpoint_path = ckpt.path;
        rt.checkpoint_every = 1;
        rt.cancel = exec::CancelToken::make();

        try {
            temperature_sweep(tech, cfg, grid, Engine::Analytic, {}, rt);
            FAIL() << "a p=1 cancel storm must cancel the sweep";
        } catch (const exec::CancelledError& e) {
            EXPECT_EQ(e.cause, exec::CancelCause::Cancelled);
        }
        EXPECT_EQ(rt.cancel.poll(), exec::CancelCause::Cancelled);
    }
    // The cancelled batch drained — nothing leaked into the pool. The
    // pool settles its counters before it releases a task's group, so
    // they read zero as soon as the sweep has unwound.
    EXPECT_EQ(pool.queue_depth(), 0u);
    EXPECT_EQ(pool.inflight(), 0u);

    // Re-issue the identical sweep (no injector, no token): whatever the
    // flush persisted is restored, the rest recomputed — bitwise.
    SweepRuntime resume = SweepRuntime::serial();
    resume.checkpoint_path = ckpt.path;
    const auto resumed =
        temperature_sweep(tech, cfg, grid, Engine::Analytic, {}, resume);
    expect_bitwise_equal(resumed, baseline);
    EXPECT_FALSE(file_exists(ckpt.path)) << "completed sweep must clean up";
}

TEST(TemperatureSweepCancel, MidSweepCancelKeepsCheckpointAndResumesBitwise) {
    // A long spice sweep cancelled mid-run: the cancel must land only
    // after completed points were flushed, leave a loadable (never torn)
    // checkpoint behind, and the re-issued sweep must restore exactly
    // those points and finish bitwise identical to an uninterrupted run.
    const auto tech = phys::cmos350();
    const auto cfg = test_ring();
    const auto grid = linspace(-40.0, 140.0, 25);
    const SpiceRingOptions opt; // default kernel: ~10+ ms per point
    TempFile ckpt("sweep_cancel_mid.ckpt");
    const std::uint64_t fp =
        sweep_fingerprint(tech, cfg, grid, Engine::Spice, opt, {});

    SweepRuntime rt = SweepRuntime::serial();
    rt.checkpoint_path = ckpt.path;
    rt.checkpoint_every = 1;
    rt.cancel = exec::CancelToken::make();

    std::exception_ptr error;
    std::thread sweeper([&] {
        try {
            temperature_sweep(tech, cfg, grid, Engine::Spice, opt, rt);
        } catch (...) {
            error = std::current_exception();
        }
    });

    // Cancel only once >= 3 completed points are on disk, so the resume
    // below demonstrably restores real progress.
    std::size_t flushed = 0;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < give_up) {
        if (file_exists(ckpt.path)) {
            exec::Checkpoint probe(ckpt.path, fp, grid.size(), 2);
            flushed = probe.load();
            if (flushed >= 3) break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    rt.cancel.cancel(exec::CancelCause::Cancelled);
    sweeper.join();

    ASSERT_GE(flushed, 3u) << "sweep never flushed 3 points in 60 s";
    ASSERT_NE(error, nullptr) << "sweep completed before the cancel landed";
    try {
        std::rethrow_exception(error);
    } catch (const exec::CancelledError& e) {
        EXPECT_EQ(e.cause, exec::CancelCause::Cancelled);
    } catch (...) {
        FAIL() << "sweep must unwind as CancelledError";
    }

    // The flush-on-cancel file loads cleanly (atomic tmp+rename — a torn
    // header or row would be dropped and shrink the count).
    ASSERT_TRUE(file_exists(ckpt.path));
    exec::Checkpoint after(ckpt.path, fp, grid.size(), 2);
    const std::size_t persisted = after.load();
    EXPECT_GE(persisted, flushed);
    EXPECT_LT(persisted, grid.size());

    // Resume: persisted points restore bitwise, the tail recomputes.
    auto& restored = exec::MetricsRegistry::global().counter(
        "exec.checkpoint.resumed_points");
    const std::uint64_t restored_before = restored.value();
    SweepRuntime resume = SweepRuntime::serial();
    resume.checkpoint_path = ckpt.path;
    resume.checkpoint_every = 1;
    const auto resumed =
        temperature_sweep(tech, cfg, grid, Engine::Spice, opt, resume);
    EXPECT_EQ(restored.value() - restored_before,
              static_cast<std::uint64_t>(persisted));

    const auto baseline = temperature_sweep(tech, cfg, grid, Engine::Spice,
                                            opt, SweepRuntime::serial());
    expect_bitwise_equal(resumed, baseline);
}

TEST(TemperatureSweepCancel, DeadlineCancelsMidLockstepAtAGroupBoundary) {
    // The lock-step phase polls at every group boundary, and the solver
    // folds the ambient deadline into its budget — either way a tiny
    // deadline over a multi-group lock-step sweep must surface as
    // CancelledError(DeadlineExceeded), not as a half-filled series.
    const auto tech = phys::cmos350();
    const auto cfg = test_ring();
    const auto grid = paper_temperature_grid_c(); // 17 points: serial groups 6/6/5
    auto opt = SpiceRingOptions::fast();
    ASSERT_GT(opt.kernel.lockstep_width, 1);

    SweepRuntime rt = SweepRuntime::serial();
    rt.cancel = exec::CancelToken::make().child_with_deadline_ms(3.0);
    try {
        temperature_sweep(tech, cfg, grid, Engine::Spice, opt, rt);
        FAIL() << "a 3 ms deadline must cancel the lock-step sweep";
    } catch (const exec::CancelledError& e) {
        EXPECT_EQ(e.cause, exec::CancelCause::DeadlineExceeded);
    }
}

TEST(TemperatureSweepCancel, SkipPolicyDoesNotAbsorbCancellation) {
    // FaultPolicy::Skip turns failed points into NaN entries — but a
    // cancelled request must never come back as a completed-looking
    // sweep of skipped points. Both rails: an explicitly fired token,
    // and a deadline that expires inside the solver.
    const auto tech = phys::cmos350();
    const auto cfg = test_ring();

    SweepRuntime fired = SweepRuntime::serial();
    fired.fault.policy = FaultPolicy::Skip;
    fired.cancel = exec::CancelToken::make();
    fired.cancel.cancel();
    EXPECT_THROW(temperature_sweep(tech, cfg, paper_temperature_grid_c(),
                                   Engine::Analytic, {}, fired),
                 exec::CancelledError);

    SweepRuntime lapsed = SweepRuntime::serial();
    lapsed.fault.policy = FaultPolicy::Skip;
    lapsed.cancel = exec::CancelToken::make().child_with_deadline_ms(5.0);
    try {
        temperature_sweep(tech, cfg, linspace(-20.0, 100.0, 5), Engine::Spice,
                          {}, lapsed);
        FAIL() << "a lapsed deadline must unwind even under Skip";
    } catch (const exec::CancelledError& e) {
        EXPECT_EQ(e.cause, exec::CancelCause::DeadlineExceeded);
    }
}

// --------------------------------------------------------------- optimizer

TEST(OptimizerCancel, PreFiredTokenUnwindsTheRatioSweep) {
    const auto tech = phys::cmos350();
    const std::vector<double> ratios = {1.5, 2.5, 3.5};

    sensor::OptimizerRuntime rt;
    rt.cancel = exec::CancelToken::make();
    rt.cancel.cancel(exec::CancelCause::Shutdown);
    auto& cancelled =
        exec::MetricsRegistry::global().counter("exec.cancel.optimizes");
    const std::uint64_t before = cancelled.value();
    try {
        sensor::ratio_sweep(tech, CellKind::Inv, 5, ratios, rt);
        FAIL() << "a pre-fired token must unwind the search";
    } catch (const exec::CancelledError& e) {
        EXPECT_EQ(e.cause, exec::CancelCause::Shutdown);
    }
    EXPECT_EQ(cancelled.value(), before + 1);
}

TEST(OptimizerCancel, ArmedButUnfiredTokenChangesNoFigures) {
    const auto tech = phys::cmos350();
    const std::vector<double> ratios = {1.5, 2.5, 3.5};

    const auto plain = sensor::ratio_sweep(tech, CellKind::Inv, 5, ratios);

    sensor::OptimizerRuntime rt;
    rt.cancel = exec::CancelToken::make().child_with_deadline_ms(1e9);
    const auto armed = sensor::ratio_sweep(tech, CellKind::Inv, 5, ratios, rt);

    ASSERT_EQ(armed.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(armed[i].max_nl_percent),
                  std::bit_cast<std::uint64_t>(plain[i].max_nl_percent));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(armed[i].period_27c_s),
                  std::bit_cast<std::uint64_t>(plain[i].period_27c_s));
    }
}

} // namespace
} // namespace stsense::ring
