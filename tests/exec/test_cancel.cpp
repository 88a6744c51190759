// Cooperative cancellation: token semantics (latch-once, hierarchy,
// deadline clamping), the ambient CancelScope, the ThreadPool's
// skip-on-dequeue drain, and the deterministic CancelStorm / SlowTask
// injector rungs. The races here (cancel vs complete at 1/2/N threads)
// are the TSan targets for the cancellation rails.
#include "exec/cancel.hpp"

#include "exec/fault_injector.hpp"
#include "exec/metrics.hpp"
#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

namespace stsense::exec {
namespace {

/// Asserts the pool fully drained. The pool settles its counters for a
/// task before it releases the task's group, so once wait() (or
/// parallel_for) returned they must read zero at once — no spin.
void expect_pool_drained(const ThreadPool& pool) {
    EXPECT_EQ(pool.queue_depth(), 0u);
    EXPECT_EQ(pool.inflight(), 0u);
}

// ----------------------------------------------------------- CancelToken

TEST(CancelToken, DefaultTokenIsInert) {
    CancelToken token;
    EXPECT_FALSE(token.valid());
    EXPECT_EQ(token.poll(), CancelCause::None);
    EXPECT_FALSE(token.cancelled());
    EXPECT_NO_THROW(token.check());

    // cancel() on an empty handle is a documented no-op.
    token.cancel(CancelCause::Shutdown);
    EXPECT_EQ(token.poll(), CancelCause::None);

    CancelToken::Clock::time_point deadline;
    EXPECT_FALSE(token.deadline(deadline));
    double ms = 0.0;
    EXPECT_FALSE(token.remaining_ms(ms));
}

TEST(CancelToken, ChildOfInvalidTokenIsAFreshRoot) {
    CancelToken invalid;
    CancelToken child = invalid.child();
    EXPECT_TRUE(child.valid());
    EXPECT_EQ(child.poll(), CancelCause::None);
    child.cancel();
    EXPECT_EQ(child.poll(), CancelCause::Cancelled);
}

TEST(CancelToken, FirstCauseWinsAndLatches) {
    CancelToken token = CancelToken::make();
    EXPECT_EQ(token.poll(), CancelCause::None);

    token.cancel(CancelCause::Disconnected);
    token.cancel(CancelCause::Cancelled); // late arrival loses
    EXPECT_EQ(token.poll(), CancelCause::Disconnected);
    EXPECT_EQ(token.poll(), CancelCause::Disconnected); // stays latched
}

TEST(CancelToken, CheckThrowsWithTheLatchedCause) {
    CancelToken token = CancelToken::make();
    token.cancel(CancelCause::Shutdown);
    try {
        token.check();
        FAIL() << "check() on a fired token must throw";
    } catch (const CancelledError& e) {
        EXPECT_EQ(e.cause, CancelCause::Shutdown);
        EXPECT_NE(std::string(e.what()).find("shutdown"), std::string::npos);
    }
}

TEST(CancelToken, ChildObservesAncestorCause) {
    CancelToken root = CancelToken::make();
    CancelToken client = root.child();
    CancelToken request = client.child();

    EXPECT_EQ(request.poll(), CancelCause::None);
    root.cancel(CancelCause::Shutdown);
    EXPECT_EQ(request.poll(), CancelCause::Shutdown); // walks the chain
    EXPECT_EQ(client.poll(), CancelCause::Shutdown);
}

TEST(CancelToken, ChildCancelDoesNotFireTheParent) {
    CancelToken parent = CancelToken::make();
    CancelToken child = parent.child();
    child.cancel(CancelCause::Cancelled);
    EXPECT_EQ(child.poll(), CancelCause::Cancelled);
    EXPECT_EQ(parent.poll(), CancelCause::None);

    // A sibling created after the child fired is unaffected too.
    CancelToken sibling = parent.child();
    EXPECT_EQ(sibling.poll(), CancelCause::None);
}

TEST(CancelToken, ExpiredDeadlineLatchesDeadlineExceeded) {
    CancelToken token = CancelToken::make().child_with_deadline_ms(0.0);
    // ms is clamped to >= 0, so the deadline is "now": poll must latch
    // DeadlineExceeded at (or immediately after) creation.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_EQ(token.poll(), CancelCause::DeadlineExceeded);

    // The deadline cause is latched like any other: a later explicit
    // cancel cannot overwrite it.
    token.cancel(CancelCause::Cancelled);
    EXPECT_EQ(token.poll(), CancelCause::DeadlineExceeded);
}

TEST(CancelToken, RemainingMsTracksTheDeadline) {
    CancelToken token = CancelToken::make().child_with_deadline_ms(1e6);
    double ms = 0.0;
    ASSERT_TRUE(token.remaining_ms(ms));
    EXPECT_GT(ms, 0.0);
    EXPECT_LE(ms, 1e6);
    EXPECT_EQ(token.poll(), CancelCause::None);
}

TEST(CancelToken, ChildDeadlineClampsAgainstAncestors) {
    // The parent allows 1 hour; a child asking for a week is clamped to
    // the parent's budget — a request can only tighten, never extend.
    CancelToken parent = CancelToken::make().child_with_deadline_ms(3.6e6);
    CancelToken::Clock::time_point parent_deadline;
    ASSERT_TRUE(parent.deadline(parent_deadline));

    CancelToken child = parent.child_with_deadline_ms(6.048e8);
    CancelToken::Clock::time_point child_deadline;
    ASSERT_TRUE(child.deadline(child_deadline));
    EXPECT_LE(child_deadline, parent_deadline);

    // And the other direction: a tighter child keeps its own deadline.
    CancelToken tight = parent.child_with_deadline_ms(1.0);
    CancelToken::Clock::time_point tight_deadline;
    ASSERT_TRUE(tight.deadline(tight_deadline));
    EXPECT_LT(tight_deadline, parent_deadline);
}

TEST(CancelToken, PlainChildInheritsTheAncestorDeadline) {
    CancelToken parent = CancelToken::make().child_with_deadline_ms(1e6);
    CancelToken child = parent.child();
    double ms = 0.0;
    ASSERT_TRUE(child.remaining_ms(ms));
    EXPECT_GT(ms, 0.0);
    EXPECT_LE(ms, 1e6);
}

// ----------------------------------------------------------- CancelScope

TEST(CancelScope, InstallsAndRestoresTheAmbientToken) {
    EXPECT_FALSE(CancelScope::current().valid());

    CancelToken outer = CancelToken::make();
    {
        CancelScope outer_scope(outer);
        ASSERT_TRUE(CancelScope::current().valid());
        outer.cancel(CancelCause::Disconnected);
        EXPECT_EQ(CancelScope::current().poll(), CancelCause::Disconnected);

        CancelToken inner = CancelToken::make();
        {
            CancelScope inner_scope(inner);
            // The innermost token wins, and it is live.
            EXPECT_EQ(CancelScope::current().poll(), CancelCause::None);
        }
        // Restored to the (fired) outer token.
        EXPECT_EQ(CancelScope::current().poll(), CancelCause::Disconnected);
    }
    EXPECT_FALSE(CancelScope::current().valid());
}

TEST(CancelScope, InvalidTokenScopeDoesNotMaskTheEnclosingToken) {
    CancelToken request = CancelToken::make();
    CancelScope request_scope(request);
    {
        // A layer installing its (unconfigured, invalid) token must not
        // hide the request token from deeper poll points.
        CancelScope noop_scope{CancelToken{}};
        EXPECT_TRUE(CancelScope::current().valid());
        request.cancel(CancelCause::Cancelled);
        EXPECT_EQ(CancelScope::current().poll(), CancelCause::Cancelled);
    }
}

// ------------------------------------------------------- ThreadPoolCancel

TEST(ThreadPoolCancel, QueuedTasksAreSkippedOnceTheTokenFires) {
    ThreadPool pool(2);
    auto& skipped =
        MetricsRegistry::global().counter("exec.cancel.tasks_skipped");
    const std::uint64_t skipped_before = skipped.value();

    CancelToken token = CancelToken::make();
    CancelScope scope(token);

    std::atomic<int> blockers_started{0};
    std::atomic<bool> release{false};
    std::atomic<int> ran{0};

    TaskGroup group(pool);
    // Park both workers so everything submitted after stays queued.
    for (int i = 0; i < 2; ++i) {
        group.run([&] {
            blockers_started.fetch_add(1);
            while (!release.load()) std::this_thread::yield();
        });
    }
    while (blockers_started.load() < 2) std::this_thread::yield();

    constexpr int kQueued = 64;
    for (int i = 0; i < kQueued; ++i) {
        group.run([&] { ran.fetch_add(1); });
    }

    // Fire the token while all kQueued tasks sit in the deques, then
    // unblock the workers: every queued task must be skipped, never run.
    token.cancel(CancelCause::Cancelled);
    release.store(true);

    try {
        group.wait();
        FAIL() << "wait() must rethrow the skip's CancelledError";
    } catch (const CancelledError& e) {
        EXPECT_EQ(e.cause, CancelCause::Cancelled);
    }
    EXPECT_EQ(ran.load(), 0);
    EXPECT_GE(skipped.value() - skipped_before,
              static_cast<std::uint64_t>(kQueued));

    // Zero leaked pool tasks: a cancelled batch still drains fully.
    expect_pool_drained(pool);
}

TEST(ThreadPoolCancel, ParallelForRefusesAnAlreadyFiredToken) {
    ThreadPool pool(2);
    CancelToken token = CancelToken::make();
    token.cancel(CancelCause::DeadlineExceeded);
    CancelScope scope(token);

    std::atomic<int> ran{0};
    try {
        pool.parallel_for(100, 1, [&](std::size_t, std::size_t) {
            ran.fetch_add(1);
        });
        FAIL() << "parallel_for with a fired ambient token must throw";
    } catch (const CancelledError& e) {
        EXPECT_EQ(e.cause, CancelCause::DeadlineExceeded);
    }
    EXPECT_EQ(ran.load(), 0);
    expect_pool_drained(pool);
}

TEST(ThreadPoolCancel, ParallelForUnwindsWhenTheBodyCancels) {
    ThreadPool pool(4);
    CancelToken token = CancelToken::make();
    CancelScope scope(token);

    try {
        pool.parallel_for(256, 1, [&](std::size_t begin, std::size_t) {
            if (begin == 0) token.cancel(CancelCause::Cancelled);
            // Every chunk polls at its boundary, so the loop unwinds as
            // CancelledError no matter which worker saw the fire first.
            CancelScope::current().check();
        });
        FAIL() << "a body that cancels its own token must unwind";
    } catch (const CancelledError& e) {
        EXPECT_EQ(e.cause, CancelCause::Cancelled);
    }
    expect_pool_drained(pool);
}

TEST(ThreadPoolCancel, AmbientTokenCrossesTheThreadHop) {
    ThreadPool pool(2);
    CancelToken token = CancelToken::make();
    CancelScope scope(token);

    std::atomic<bool> started{false};
    std::atomic<bool> saw_token{false};
    std::atomic<bool> saw_fire{false};
    std::atomic<bool> fired{false};

    TaskGroup group(pool);
    group.run([&] {
        started.store(true);
        // The worker re-installed the submission-time ambient token.
        saw_token.store(CancelScope::current().valid());
        while (!fired.load()) std::this_thread::yield();
        // A fire on the submitting thread is visible inside the task.
        saw_fire.store(CancelScope::current().poll() ==
                       CancelCause::Disconnected);
    });
    // Sync on the body, not on inflight(): the worker counts the task
    // in flight before it polls the token, so a cancel fired in that
    // gap would get the task skipped and make wait() throw.
    while (!started.load()) std::this_thread::yield();
    token.cancel(CancelCause::Disconnected);
    fired.store(true);
    group.wait(); // body already started: it runs to completion
    EXPECT_TRUE(saw_token.load());
    EXPECT_TRUE(saw_fire.load());
}

TEST(ThreadPoolCancel, CancelVersusCompleteRaceDrainsCleanly) {
    // The cancel can land before, during, or after the batch: every
    // interleaving must end with a fully drained pool and either a clean
    // result or a typed CancelledError — never a hang, never a leaked
    // task. Exercised at 1/2/N workers (N > hardware is fine).
    for (const int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        for (int round = 0; round < 12; ++round) {
            CancelToken token = CancelToken::make();
            CancelScope scope(token);
            std::atomic<int> ran{0};

            std::thread canceller([&token, round] {
                // Stagger the fire across rounds to move the race window.
                for (int spin = 0; spin < round * 97; ++spin) {
                    std::this_thread::yield();
                }
                token.cancel(CancelCause::Cancelled);
            });

            bool cancelled = false;
            try {
                pool.parallel_for(64, 1, [&](std::size_t, std::size_t) {
                    ran.fetch_add(1);
                    CancelScope::current().check();
                });
            } catch (const CancelledError& e) {
                cancelled = true;
                EXPECT_EQ(e.cause, CancelCause::Cancelled);
            }
            canceller.join();

            if (!cancelled) {
                EXPECT_EQ(ran.load(), 64);
            }
            SCOPED_TRACE(std::to_string(threads) + " threads, round " +
                         std::to_string(round));
            expect_pool_drained(pool);
        }
    }
}

// --------------------------------------------------- FaultInjectorCancel

TEST(FaultInjectorCancel, CancelStormTripsAreDeterministicPerSeed) {
    FaultInjector::Config config;
    config.seed = 42;
    config.p_cancel_storm = 0.5;

    std::vector<bool> first;
    {
        FaultInjector injector(config);
        for (std::uint64_t i = 0; i < 64; ++i) {
            first.push_back(injector.trip(FaultInjector::Site::CancelStorm, i));
        }
    }
    FaultInjector replay(config);
    int trips = 0;
    for (std::uint64_t i = 0; i < 64; ++i) {
        const bool t = replay.trip(FaultInjector::Site::CancelStorm, i);
        EXPECT_EQ(t, first[i]) << "trip decision drifted at index " << i;
        trips += t ? 1 : 0;
    }
    // p = 0.5 over 64 draws: both outcomes must occur.
    EXPECT_GT(trips, 0);
    EXPECT_LT(trips, 64);

    // A different seed draws a different storm.
    config.seed = 43;
    FaultInjector other(config);
    int diffs = 0;
    for (std::uint64_t i = 0; i < 64; ++i) {
        diffs +=
            other.trip(FaultInjector::Site::CancelStorm, i) != first[i] ? 1 : 0;
    }
    EXPECT_GT(diffs, 0);
}

TEST(FaultInjectorCancel, CancelStormFiresTheSharedAmbientToken) {
    // Every task submitted under one scope shares the sweep's token, so
    // a single storm trip cancels the whole batch: with p = 1 the first
    // dispatched task fires it and nothing runs to completion un-skipped
    // afterwards. The batch must still surface a typed CancelledError.
    FaultInjector::Config config;
    config.seed = 7;
    config.p_cancel_storm = 1.0;
    FaultInjector injector(config);
    FaultInjector::Scope fault_scope(injector);

    ThreadPool pool(2);
    CancelToken token = CancelToken::make();
    CancelScope scope(token);

    std::atomic<int> ran{0};
    TaskGroup group(pool);
    for (int i = 0; i < 8; ++i) {
        group.run([&] { ran.fetch_add(1); });
    }
    try {
        group.wait();
        FAIL() << "a p=1 cancel storm must cancel the batch";
    } catch (const CancelledError& e) {
        EXPECT_EQ(e.cause, CancelCause::Cancelled);
    }
    EXPECT_EQ(token.poll(), CancelCause::Cancelled);
    EXPECT_EQ(ran.load(), 0);
    expect_pool_drained(pool);
}

TEST(FaultInjectorCancel, CancelStormIsInertWithoutAnAmbientToken) {
    // Firing an invalid (absent) task token is a no-op: uncancellable
    // work — fault-free library calls with no runtime token — runs
    // identically under a storm.
    FaultInjector::Config config;
    config.seed = 7;
    config.p_cancel_storm = 1.0;
    FaultInjector injector(config);
    FaultInjector::Scope fault_scope(injector);

    ThreadPool pool(2);
    std::atomic<int> ran{0};
    TaskGroup group(pool);
    for (int i = 0; i < 8; ++i) {
        group.run([&] { ran.fetch_add(1); });
    }
    EXPECT_NO_THROW(group.wait());
    EXPECT_EQ(ran.load(), 8);
}

TEST(FaultInjectorCancel, SlowTaskStallEndsEarlyOnAFiredDeadline) {
    // The straggler rung must respect wall-clock budgets: a 500 ms
    // injected stall under a 20 ms deadline ends at the deadline (the
    // sleep is sliced and polls the token), and the task is then
    // skipped with DeadlineExceeded instead of running late.
    FaultInjector::Config config;
    config.seed = 3;
    config.p_slow_task = 1.0;
    config.slow_task_us = 500000;
    FaultInjector injector(config);
    FaultInjector::Scope fault_scope(injector);

    ThreadPool pool(1);
    CancelToken token = CancelToken::make().child_with_deadline_ms(20.0);
    CancelScope scope(token);

    std::atomic<int> ran{0};
    const auto start = std::chrono::steady_clock::now();
    TaskGroup group(pool);
    group.run([&] { ran.fetch_add(1); });
    try {
        group.wait();
        FAIL() << "the deadline must cancel the stalled task";
    } catch (const CancelledError& e) {
        EXPECT_EQ(e.cause, CancelCause::DeadlineExceeded);
    }
    const auto elapsed = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    EXPECT_LT(elapsed, 400.0) << "stall outlived the 20 ms deadline";
    EXPECT_EQ(ran.load(), 0);
}

} // namespace
} // namespace stsense::exec
