#include "exec/thread_pool.hpp"

#include "exec/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace stsense::exec {
namespace {

TEST(ThreadPool, SizeClampedToAtLeastOne) {
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1);
    ThreadPool pool4(4);
    EXPECT_EQ(pool4.size(), 4);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{100}}) {
        for (const std::size_t grain : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
            std::vector<std::atomic<int>> touched(n);
            pool.parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
            });
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(touched[i].load(), 1) << "n=" << n << " grain=" << grain
                                                << " i=" << i;
            }
        }
    }
}

TEST(ThreadPool, ParallelForZeroIterationsIsANoop) {
    ThreadPool pool(2);
    bool called = false;
    pool.parallel_for(0, 1, [&](std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, ChunkBoundariesAreAPureFunctionOfNAndGrain) {
    // The determinism contract: chunk c covers
    // [c*grain, min(n, (c+1)*grain)) no matter how many workers run.
    for (const int threads : {1, 2, 5}) {
        ThreadPool pool(threads);
        std::mutex m;
        std::set<std::pair<std::size_t, std::size_t>> chunks;
        pool.parallel_for(23, 5, [&](std::size_t begin, std::size_t end) {
            std::lock_guard lock(m);
            chunks.insert({begin, end});
        });
        const std::set<std::pair<std::size_t, std::size_t>> expected{
            {0, 5}, {5, 10}, {10, 15}, {15, 20}, {20, 23}};
        EXPECT_EQ(chunks, expected) << "threads=" << threads;
    }
}

TEST(ThreadPool, ParallelForComputesCorrectSum) {
    ThreadPool pool(4);
    const std::size_t n = 10000;
    std::vector<double> out(n);
    pool.parallel_for(n, 100, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            out[i] = static_cast<double>(i);
        }
    });
    const double sum = std::accumulate(out.begin(), out.end(), 0.0);
    EXPECT_DOUBLE_EQ(sum, static_cast<double>(n) * (n - 1) / 2.0);
}

TEST(ThreadPool, ExceptionPropagatesAndWorkersSurvive) {
    ThreadPool pool(3);
    EXPECT_THROW(pool.parallel_for(16, 1,
                                   [](std::size_t begin, std::size_t) {
                                       if (begin == 7) {
                                           throw std::runtime_error("chunk 7 failed");
                                       }
                                   }),
                 std::runtime_error);
    // The pool must remain fully operational after a throwing batch.
    std::atomic<int> count{0};
    pool.parallel_for(50, 1, [&](std::size_t begin, std::size_t end) {
        count += static_cast<int>(end - begin);
    });
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, LowestChunkExceptionWins) {
    ThreadPool pool(4);
    try {
        pool.parallel_for(32, 1, [](std::size_t begin, std::size_t) {
            if (begin == 5 || begin == 20) {
                throw std::runtime_error("chunk " + std::to_string(begin));
            }
        });
        FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "chunk 5");
    }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
    // Waiters help-execute, so an inner loop inside a task makes
    // progress even when every worker is occupied by outer tasks.
    for (const int threads : {1, 2}) {
        ThreadPool pool(threads);
        std::atomic<int> total{0};
        pool.parallel_for(4, 1, [&](std::size_t, std::size_t) {
            pool.parallel_for(8, 1, [&](std::size_t begin, std::size_t end) {
                total += static_cast<int>(end - begin);
            });
        });
        EXPECT_EQ(total.load(), 32) << "threads=" << threads;
    }
}

/// Set while this thread runs a job of the top-level test below.
thread_local bool tl_in_job = false;

TEST(ThreadPool, TopLevelJobsNeverStartInsideAWait) {
    // Each job holds a lock across its fan-out, as a service session
    // job does. Waiters help run the fan-out chunks but must leave the
    // queued jobs to the worker loops: a job started inside another
    // job's wait would take the lock its own thread already holds (the
    // test counts that case instead of deadlocking on it).
    for (const int threads : {1, 2, 4}) {
        ThreadPool pool(threads);
        std::mutex session;
        std::atomic<int> nested{0};
        std::atomic<int> chunks{0};
        TaskGroup jobs(pool, /*top_level=*/true);
        for (int j = 0; j < 8; ++j) {
            jobs.run([&] {
                if (tl_in_job) {
                    ++nested;
                    return;
                }
                tl_in_job = true;
                {
                    std::lock_guard lock(session);
                    pool.parallel_for(16, 1, [&](std::size_t begin, std::size_t end) {
                        chunks += static_cast<int>(end - begin);
                    });
                }
                tl_in_job = false;
            });
        }
        jobs.wait();
        EXPECT_EQ(nested.load(), 0) << "threads=" << threads;
        EXPECT_EQ(chunks.load(), 8 * 16) << "threads=" << threads;
    }
}

TEST(TaskGroup, RunsHeterogeneousJobs) {
    ThreadPool pool(2);
    std::atomic<int> a{0};
    std::atomic<double> b{0.0};
    TaskGroup group(pool);
    // The two jobs on `a` may run in either order, so both add.
    group.run([&] { a.fetch_add(41); });
    group.run([&] { b = 2.5; });
    group.run([&] { a.fetch_add(1); });
    group.wait();
    EXPECT_EQ(a.load(), 42);
    EXPECT_DOUBLE_EQ(b.load(), 2.5);
}

TEST(TaskGroup, FirstSubmittedExceptionIsRethrown) {
    ThreadPool pool(2);
    TaskGroup group(pool);
    group.run([] { throw std::runtime_error("first"); });
    group.run([] { throw std::logic_error("second"); });
    try {
        group.wait();
        FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "first");
    }
    // A second wait() after delivery is clean.
    EXPECT_NO_THROW(group.wait());
}

TEST(TaskGroup, WaitOnEmptyGroupReturnsImmediately) {
    ThreadPool pool(1);
    TaskGroup group(pool);
    EXPECT_NO_THROW(group.wait());
}

TEST(ThreadPool, CountsExecutedTasks) {
    ThreadPool pool(2);
    const auto before = pool.tasks_executed();
    pool.parallel_for(10, 1, [](std::size_t, std::size_t) {});
    EXPECT_GE(pool.tasks_executed() - before, 10u);
}

TEST(ThreadPool, ParseThreadEnvAcceptsPositiveIntegers) {
    EXPECT_EQ(ThreadPool::parse_thread_env("4", 8), 4);
    EXPECT_EQ(ThreadPool::parse_thread_env("1", 8), 1);
    EXPECT_EQ(ThreadPool::parse_thread_env("64", 8), 64);
}

TEST(ThreadPool, ParseThreadEnvFallsBackOnGarbage) {
    EXPECT_EQ(ThreadPool::parse_thread_env(nullptr, 8), 8);
    EXPECT_EQ(ThreadPool::parse_thread_env("", 8), 8);
    EXPECT_EQ(ThreadPool::parse_thread_env("abc", 8), 8);
    EXPECT_EQ(ThreadPool::parse_thread_env("4x", 8), 8);
    EXPECT_EQ(ThreadPool::parse_thread_env("0", 8), 8);
    EXPECT_EQ(ThreadPool::parse_thread_env("-2", 8), 8);
    EXPECT_EQ(ThreadPool::parse_thread_env("1000000", 8), 8);
}

TEST(ThreadPool, ClampToHardwareBoundsRequests) {
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    const int cap = std::max(hw, 1);
    // Non-positive requests mean "auto": use every hardware thread.
    EXPECT_EQ(ThreadPool::clamp_to_hardware(0), cap);
    EXPECT_EQ(ThreadPool::clamp_to_hardware(-3), cap);
    // In-range requests pass through; oversubscription is clamped.
    EXPECT_EQ(ThreadPool::clamp_to_hardware(1), 1);
    EXPECT_EQ(ThreadPool::clamp_to_hardware(cap), cap);
    EXPECT_EQ(ThreadPool::clamp_to_hardware(cap + 1), cap);
    EXPECT_EQ(ThreadPool::clamp_to_hardware(4096), cap);
}

TEST(ThreadPool, GlobalPoolIsUsable) {
    auto& pool = ThreadPool::global();
    EXPECT_GE(pool.size(), 1);
    std::atomic<int> count{0};
    pool.parallel_for(10, 1, [&](std::size_t begin, std::size_t end) {
        count += static_cast<int>(end - begin);
    });
    EXPECT_EQ(count.load(), 10);
}

// The load counters feed the service layer's admission control and
// object model; they must reflect blocked/queued work while it is
// pending and settle back to zero when the pool idles.
TEST(ThreadPoolCounters, QueueDepthAndInflightTrackBlockedTasks) {
    ThreadPool pool(2);
    TaskGroup group(pool);

    std::mutex m;
    std::condition_variable cv;
    bool open = false;
    std::atomic<int> started{0};
    auto blocked = [&] {
        started.fetch_add(1);
        std::unique_lock lock(m);
        cv.wait(lock, [&] { return open; });
    };

    // Two blocked tasks occupy both workers. Sync on the bodies, not on
    // inflight(): that is the counter under test, and it rises before a
    // body starts.
    group.run(blocked);
    group.run(blocked);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < 2) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "blocked tasks never started";
        std::this_thread::yield();
    }
    EXPECT_EQ(pool.inflight(), 2u);
    EXPECT_EQ(pool.queue_depth(), 0u);

    // ...so three more can only queue.
    std::atomic<int> ran{0};
    for (int i = 0; i < 3; ++i) {
        group.run([&ran] { ran.fetch_add(1); });
    }
    EXPECT_EQ(pool.queue_depth(), 3u);
    EXPECT_EQ(pool.inflight(), 2u);

    {
        std::lock_guard lock(m);
        open = true;
    }
    cv.notify_all();
    group.wait();

    EXPECT_EQ(ran.load(), 3);
    EXPECT_EQ(pool.queue_depth(), 0u);
    EXPECT_EQ(pool.inflight(), 0u);
}

TEST(ThreadPoolCounters, ExecutedIsMonotonicAndIdleCountersAreZero) {
    ThreadPool pool(3);
    const std::uint64_t before = pool.tasks_executed();
    pool.parallel_for(40, 4, [](std::size_t, std::size_t) {});
    const std::uint64_t after = pool.tasks_executed();
    EXPECT_GE(after, before + 10); // 40/4 chunks ran somewhere
    EXPECT_EQ(pool.queue_depth(), 0u);
    EXPECT_EQ(pool.inflight(), 0u);

    pool.parallel_for(8, 1, [](std::size_t, std::size_t) {});
    EXPECT_GE(pool.tasks_executed(), after + 8);
}

TEST(ParallelForGrain, AutoGrainTargetsFourChunksPerWorker) {
    // Wide loop: the grain splits n into ~4*workers chunks.
    EXPECT_EQ(ThreadPool::auto_grain(1600, 4), 100u);
    EXPECT_EQ(ThreadPool::auto_grain(1000, 1), 250u);
    // Ceil division: no grain-1 sliver chunks from a ragged tail.
    EXPECT_EQ(ThreadPool::auto_grain(1601, 4), 101u);
    // Narrow loop: floored at one index per chunk.
    EXPECT_EQ(ThreadPool::auto_grain(3, 8), 1u);
    EXPECT_EQ(ThreadPool::auto_grain(1, 1), 1u);
    // Degenerate worker counts clamp to one worker.
    EXPECT_EQ(ThreadPool::auto_grain(100, 0), 25u);
}

TEST(ParallelForGrain, AutoGrainCoversEveryIndexExactlyOnce) {
    ThreadPool pool(3);
    const std::size_t n = 1237;
    std::vector<int> hits(n, 0);
    pool.parallel_for(n, 0, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i], 1) << "index " << i;
    }
}

TEST(ParallelForGrain, PublishesResolvedGrainGauge) {
    ThreadPool pool(2);
    auto& gauge = MetricsRegistry::global().gauge("exec.parallel_for.grain");
    gauge.set(0.0);
    pool.parallel_for(64, 0, [](std::size_t, std::size_t) {});
    EXPECT_DOUBLE_EQ(gauge.value(),
                     static_cast<double>(ThreadPool::auto_grain(64, 2)));
    // An explicit grain is published as-is.
    pool.parallel_for(64, 16, [](std::size_t, std::size_t) {});
    EXPECT_DOUBLE_EQ(gauge.value(), 16.0);
}

} // namespace
} // namespace stsense::exec
