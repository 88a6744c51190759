// The checkpoint lifecycle of a long job, layer by layer: a temperature
// sweep, an optimizer search and a population study all run through
// exec::run_checkpointed, so each must show the same five behaviors.
//   * A finished run without keep leaves no file.
//   * A kept file restores every unit on a rerun, recomputing none.
//   * A cancel mid-run flushes exactly the completed units and keeps
//     the file; the rerun resumes bitwise.
//   * A kill leaves only what the cadence had flushed.
//   * A file written under another fingerprint is ignored.
#include "exec/cancel.hpp"
#include "exec/checkpoint.hpp"
#include "exec/fault_injector.hpp"
#include "exec/metrics.hpp"
#include "exec/thread_pool.hpp"
#include "population/engine.hpp"
#include "ring/sweep.hpp"
#include "sensor/optimizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <latch>
#include <stdexcept>
#include <string>
#include <vector>

namespace stsense::exec {
namespace {

using Bits = std::vector<std::uint64_t>;

/// The checkpoint knobs every layer's runtime struct carries.
struct Knobs {
    std::string path;
    std::int64_t every = 1000; ///< Default: no flush before the job ends.
    bool keep = false;
};

/// One layer's job, driven the same way by every case below.
struct Layer {
    std::string name;
    std::size_t units = 0; ///< Points, candidates or shards per run.
    const char* cancel_counter = "";
    /// Units the cancelled run had completed when its token fired.
    std::size_t cancel_flushed = 0;
    /// Units the kill run's cadence flushed before it died.
    std::size_t killed_flushed = 0;
    /// Runs the job; `other` runs one with another fingerprint. Returns
    /// the bits of every figure it produced.
    std::function<Bits(const Knobs&, bool other)> run;
    /// Runs the job and cancels it after cancel_flushed units.
    std::function<void(const Knobs&)> run_cancelled;
    /// Runs the job and kills it (an exception that is not a cancel)
    /// after some units completed.
    std::function<void(const Knobs&)> run_killed;
    /// Reruns the killed job without the kill; returns what it restored.
    std::function<std::uint64_t(const Knobs&)> restored_after_kill;
    /// Units restored from checkpoint files so far.
    std::function<std::uint64_t()> restored;
};

std::uint64_t counter(const char* name) {
    return MetricsRegistry::global().counter(name).value();
}

void push_bits(Bits& out, double v) {
    out.push_back(std::bit_cast<std::uint64_t>(v));
}

/// A CancelStorm seed (p = 0.5) under which, of a batch's first
/// `tickets` tasks, only task `ticket` fires its token.
std::uint64_t storm_seed(std::uint64_t ticket, std::uint64_t tickets) {
    for (std::uint64_t seed = 1;; ++seed) {
        FaultInjector::Config fc;
        fc.seed = seed;
        fc.p_cancel_storm = 0.5;
        const FaultInjector probe(fc);
        bool only = true;
        for (std::uint64_t t = 0; t < tickets && only; ++t) {
            only = probe.trip(FaultInjector::Site::CancelStorm, t) ==
                   (t == ticket);
        }
        if (only) return seed;
    }
}

/// Runs `job`, which fans one batch of `tickets` tasks onto `pool` (one
/// worker), and cancels it at the batch's third task. The worker is held
/// busy first, so the calling thread, helping, runs the batch in ticket
/// order: tasks 0 and 1 complete, task 2 fires the job's token (a
/// CancelStorm that trips on ticket 2 only), and task 3 is skipped.
void cancel_at_third_task(ThreadPool& pool, std::uint64_t tickets,
                          const std::function<void()>& job) {
    std::latch running(1);
    std::latch release(1);
    TaskGroup blocker(pool, /*top_level=*/true);
    blocker.run([&] {
        running.count_down();
        release.wait();
    });
    // Declared after the group, so the worker is released before the
    // group's destructor waits for it, on every path out.
    struct Release {
        std::latch& latch;
        ~Release() { latch.count_down(); }
    } release_on_exit{release};
    running.wait();

    FaultInjector::Config fc;
    fc.seed = storm_seed(2, tickets);
    fc.p_cancel_storm = 0.5;
    FaultInjector injector(fc);
    FaultInjector::Scope scope(injector);
    job();
}

// ------------------------------------------------------------------ layers

Layer sweep_layer() {
    static const auto tech = phys::cmos350();
    static const auto grid = ring::paper_temperature_grid_c();
    const auto runtime = [](const Knobs& k) {
        ring::SweepRuntime rt = ring::SweepRuntime::serial();
        rt.checkpoint_path = k.path;
        rt.checkpoint_every = static_cast<int>(k.every);
        rt.keep_checkpoint = k.keep;
        return rt;
    };
    const auto sweep = [](const ring::SweepRuntime& rt, bool other) {
        const auto cfg =
            other ? ring::RingConfig::uniform(cells::CellKind::Nand2, 7, 2.75)
                  : ring::RingConfig::uniform(cells::CellKind::Inv, 5, 2.75);
        const auto res = ring::temperature_sweep(tech, cfg, grid,
                                                 ring::Engine::Analytic, {}, rt);
        Bits bits;
        for (std::size_t i = 0; i < res.period_s.size(); ++i) {
            push_bits(bits, res.period_s[i]);
            bits.push_back(static_cast<std::uint64_t>(res.status[i]));
        }
        return bits;
    };
    constexpr std::uint64_t kKillAt = 5; // Dies after recording points 0..5.
    Layer l;
    l.name = "sweep";
    l.units = grid.size();
    l.cancel_counter = "exec.cancel.sweeps";
    l.cancel_flushed = 10; // Two chunks of ThreadPool::auto_grain(17, 1) = 5.
    l.killed_flushed = 4; // every = 4: records 5 and 6 are never flushed.
    l.run = [=](const Knobs& k, bool other) { return sweep(runtime(k), other); };
    l.run_cancelled = [=](const Knobs& k) {
        ThreadPool pool(1);
        ring::SweepRuntime rt = runtime(k);
        rt.pool = &pool;
        rt.parallel = true;
        rt.cancel = CancelToken::make();
        const std::size_t grain = ThreadPool::auto_grain(grid.size(), 1);
        cancel_at_third_task(pool, (grid.size() + grain - 1) / grain,
                             [&] { sweep(rt, false); });
    };
    l.run_killed = [=](const Knobs& k) {
        FaultInjector::Config fc;
        fc.p_sweep_kill = 1.0;
        fc.only_units = {kKillAt};
        FaultInjector injector(fc);
        FaultInjector::Scope scope(injector);
        sweep(runtime(k), false);
    };
    l.restored = [] { return counter("exec.checkpoint.resumed_points"); };
    l.restored_after_kill = [=](const Knobs& k) {
        const std::uint64_t before = counter("exec.checkpoint.resumed_points");
        sweep(runtime(k), false);
        return counter("exec.checkpoint.resumed_points") - before;
    };
    return l;
}

Layer optimizer_layer() {
    static const auto tech = phys::cmos350();
    const std::vector<double> ratios = {1.5, 2.0, 2.5, 3.0};
    const auto runtime = [](const Knobs& k, ThreadPool* pool) {
        sensor::OptimizerRuntime rt;
        rt.pool = pool;
        rt.checkpoint_path = k.path;
        rt.checkpoint_every = static_cast<int>(k.every);
        rt.keep_checkpoint = k.keep;
        return rt;
    };
    const auto search = [](const std::vector<double>& rs,
                           const sensor::OptimizerRuntime& rt) {
        Bits bits;
        for (const auto& p :
             sensor::ratio_sweep(tech, cells::CellKind::Inv, 5, rs, rt)) {
            push_bits(bits, p.max_nl_percent);
            push_bits(bits, p.period_27c_s);
        }
        return bits;
    };
    // The optimizer has no kill site. A candidate whose ratio is NaN
    // throws std::invalid_argument from inside the fan-out: the same
    // unwind that is not a cancel. The pool drains the batch first, so
    // the four valid candidates are always recorded.
    const std::vector<double> poisoned = {1.5, 2.0, std::nan(""), 3.0, 3.5};
    Layer l;
    l.name = "optimizer";
    l.units = ratios.size();
    l.cancel_counter = "exec.cancel.optimizes";
    l.cancel_flushed = 2; // One candidate per task.
    l.killed_flushed = 3; // every = 3: four records, one flush.
    l.run = [=](const Knobs& k, bool other) {
        ThreadPool pool(2);
        auto rs = ratios;
        if (other) rs.back() = 3.5;
        return search(rs, runtime(k, &pool));
    };
    l.run_cancelled = [=](const Knobs& k) {
        ThreadPool pool(1);
        sensor::OptimizerRuntime rt = runtime(k, &pool);
        rt.cancel = CancelToken::make();
        cancel_at_third_task(pool, ratios.size(),
                             [&] { search(ratios, rt); });
    };
    l.run_killed = [=](const Knobs& k) {
        ThreadPool pool(2);
        search(poisoned, runtime(k, &pool));
    };
    l.restored = [] { return counter("exec.checkpoint.resumed_points"); };
    l.restored_after_kill = [=](const Knobs& k) {
        ThreadPool pool(2);
        const std::uint64_t before = counter("exec.checkpoint.resumed_points");
        EXPECT_THROW(search(poisoned, runtime(k, &pool)), std::invalid_argument);
        return counter("exec.checkpoint.resumed_points") - before;
    };
    return l;
}

Layer population_layer() {
    constexpr std::size_t kShard = 64;
    constexpr std::size_t kShards = 6;
    const auto config = [](bool other) {
        population::PopulationConfig cfg;
        cfg.dice = kShard * kShards;
        cfg.shard_size = kShard;
        cfg.seed = other ? 100 : 99;
        return cfg;
    };
    const auto runtime = [](const Knobs& k, ThreadPool* pool) {
        population::PopulationRuntime rt;
        rt.pool = pool;
        rt.checkpoint_path = k.path;
        rt.checkpoint_every = static_cast<std::size_t>(k.every);
        rt.keep_checkpoint = k.keep;
        return rt;
    };
    const auto study = [=](const population::PopulationRuntime& rt,
                           bool other) {
        const auto res = population::run_population(config(other), rt);
        Bits bits;
        push_bits(bits, res.yield_fresh);
        push_bits(bits, res.yield_aged);
        for (const auto& m : res.metrics) {
            bits.push_back(m.count);
            for (const double v : {m.mean, m.stddev, m.min, m.max}) {
                push_bits(bits, v);
            }
            for (const auto& q : m.quantiles) push_bits(bits, q.value);
        }
        return bits;
    };
    const auto restored = [] {
        return counter("population.resumed_dice") / kShard;
    };
    Layer l;
    l.name = "population";
    l.units = kShards;
    l.cancel_counter = "population.cancelled";
    l.cancel_flushed = 3; // on_shard fires the token after shard 3.
    l.killed_flushed = 3; // every = 3: shards 0..4 recorded, one flush.
    l.run = [=](const Knobs& k, bool other) {
        ThreadPool pool(2);
        return study(runtime(k, &pool), other);
    };
    l.run_cancelled = [=](const Knobs& k) {
        ThreadPool pool(2);
        population::PopulationRuntime rt = runtime(k, &pool);
        rt.cancel = CancelToken::make();
        rt.on_shard = [token = rt.cancel](const population::PopulationProgress& p) {
            if (p.shard_index == 3) token.cancel();
        };
        study(rt, false);
    };
    l.run_killed = [=](const Knobs& k) {
        FaultInjector::Config fc;
        fc.p_shard_kill = 1.0;
        fc.only_units = {4};
        FaultInjector injector(fc);
        FaultInjector::Scope scope(injector);
        ThreadPool pool(2);
        study(runtime(k, &pool), false);
    };
    l.restored = restored;
    l.restored_after_kill = [=](const Knobs& k) {
        ThreadPool pool(2);
        const std::uint64_t before = restored();
        study(runtime(k, &pool), false);
        return restored() - before;
    };
    return l;
}

Layer make_layer(const std::string& name) {
    if (name == "sweep") return sweep_layer();
    if (name == "optimizer") return optimizer_layer();
    return population_layer();
}

// ------------------------------------------------------------------- cases

bool file_exists(const std::string& path) { return std::ifstream(path).good(); }

class CheckpointLifecycle : public testing::TestWithParam<std::string> {
protected:
    void SetUp() override {
        layer_ = make_layer(GetParam());
        // One file per test: ctest runs the cases as parallel processes.
        std::string name =
            testing::UnitTest::GetInstance()->current_test_info()->name();
        std::replace(name.begin(), name.end(), '/', '_');
        knobs_.path = testing::TempDir() + "lifecycle_" + name + ".ckpt";
        std::remove(knobs_.path.c_str());
        baseline_ = layer_.run(Knobs{}, false);
        ASSERT_FALSE(baseline_.empty());
    }
    void TearDown() override { std::remove(knobs_.path.c_str()); }

    Layer layer_;
    Knobs knobs_;
    Bits baseline_; ///< The uncheckpointed run.
};

TEST_P(CheckpointLifecycle, FinishedRunWithoutKeepLeavesNoFile) {
    knobs_.every = 1;
    const std::uint64_t before = layer_.restored();
    EXPECT_EQ(layer_.run(knobs_, false), baseline_);
    EXPECT_EQ(layer_.restored(), before);
    EXPECT_FALSE(file_exists(knobs_.path));
}

TEST_P(CheckpointLifecycle, KeptFileRestoresEveryUnitWithoutRecomputing) {
    knobs_.keep = true;
    EXPECT_EQ(layer_.run(knobs_, false), baseline_);
    ASSERT_TRUE(file_exists(knobs_.path));

    const std::uint64_t before = layer_.restored();
    EXPECT_EQ(layer_.run(knobs_, false), baseline_);
    EXPECT_EQ(layer_.restored() - before, layer_.units);
    EXPECT_TRUE(file_exists(knobs_.path));
}

TEST_P(CheckpointLifecycle, CancelMidRunFlushesKeepsTheFileAndResumesBitwise) {
    // No cadence flush happens before the job ends, so the file exists
    // only if the cancel flushed it.
    const std::uint64_t cancels = counter(layer_.cancel_counter);
    EXPECT_THROW(layer_.run_cancelled(knobs_), CancelledError);
    EXPECT_EQ(counter(layer_.cancel_counter), cancels + 1);
    ASSERT_TRUE(file_exists(knobs_.path));

    const std::uint64_t before = layer_.restored();
    EXPECT_EQ(layer_.run(knobs_, false), baseline_);
    EXPECT_EQ(layer_.restored() - before, layer_.cancel_flushed);
    EXPECT_FALSE(file_exists(knobs_.path));
}

TEST_P(CheckpointLifecycle, KillLeavesOnlyWhatWasFlushed) {
    // A kill stands for a process death: the units the cadence flushed
    // survive, the unflushed tail does not, and no cancel is counted.
    knobs_.every = GetParam() == "sweep" ? 4 : 3;
    const std::uint64_t cancels = counter(layer_.cancel_counter);
    EXPECT_ANY_THROW(layer_.run_killed(knobs_));
    EXPECT_EQ(counter(layer_.cancel_counter), cancels);
    ASSERT_TRUE(file_exists(knobs_.path));
    EXPECT_EQ(layer_.restored_after_kill(knobs_), layer_.killed_flushed);
}

TEST_P(CheckpointLifecycle, FileFromAnotherFingerprintIsIgnored) {
    Knobs kept = knobs_;
    kept.keep = true;
    (void)layer_.run(kept, true);
    ASSERT_TRUE(file_exists(knobs_.path));

    const std::uint64_t stale = counter("exec.checkpoint.stale_files");
    const std::uint64_t before = layer_.restored();
    EXPECT_EQ(layer_.run(knobs_, false), baseline_);
    EXPECT_EQ(layer_.restored(), before);
    EXPECT_EQ(counter("exec.checkpoint.stale_files"), stale + 1);
    EXPECT_FALSE(file_exists(knobs_.path));
}

// No instantiation prefix: every name starts with CheckpointLifecycle,
// so a Checkpoint* filter runs it with the Checkpoint and
// CheckpointResume suites.
INSTANTIATE_TEST_SUITE_P(, CheckpointLifecycle,
                         testing::Values("sweep", "optimizer", "population"),
                         [](const auto& info) { return info.param; });

} // namespace
} // namespace stsense::exec
