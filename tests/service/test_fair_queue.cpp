// FairScheduler: weighted round-robin dispatch order is deterministic
// given arrival order, admission caps reject with the right verdict
// (never hang), drain discards queued work through on_discard, and at
// most one job per session runs at a time.
#include "service/fair_queue.hpp"

#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace stsense::service {
namespace {

/// Records job labels in execution order, thread-safely.
class OrderLog {
public:
    void add(const std::string& label) {
        std::lock_guard<std::mutex> lk(m_);
        order_.push_back(label);
    }
    std::vector<std::string> get() const {
        std::lock_guard<std::mutex> lk(m_);
        return order_;
    }

private:
    mutable std::mutex m_;
    std::vector<std::string> order_;
};

/// A job the test can hold open until every later submission is queued.
class Gate {
public:
    void open() {
        {
            std::lock_guard<std::mutex> lk(m_);
            open_ = true;
        }
        cv_.notify_all();
    }
    void wait() {
        std::unique_lock<std::mutex> lk(m_);
        cv_.wait(lk, [this] { return open_; });
    }

private:
    std::mutex m_;
    std::condition_variable cv_;
    bool open_ = false;
};

TEST(ServiceFairQueue, WeightedRoundRobinOrderIsDeterministic) {
    exec::ThreadPool pool(2);
    FairScheduler::Limits limits;
    limits.max_concurrency = 1; // serialize: dispatch order == run order
    limits.max_inflight_per_client = 0;
    limits.max_queued_per_client = 0;
    limits.max_queued_total = 0;
    FairScheduler sched(pool, limits);

    // A gate job occupies the single dispatch slot while we enqueue the
    // real workload, so arrival order is fully under test control.
    const int gate_client = sched.add_client(1);
    const int a = sched.add_client(1);
    const int b = sched.add_client(3);

    Gate gate;
    OrderLog log;
    ASSERT_EQ(sched.submit(gate_client, [&gate] { gate.wait(); }),
              FairScheduler::Admit::Ok);

    for (int i = 1; i <= 3; ++i) {
        std::string label = "A?";
        label[1] = static_cast<char>('0' + i);
        ASSERT_EQ(sched.submit(a, [&log, label] { log.add(label); }),
                  FairScheduler::Admit::Ok);
    }
    for (int i = 1; i <= 6; ++i) {
        std::string label = "B?";
        label[1] = static_cast<char>('0' + i);
        ASSERT_EQ(sched.submit(b, [&log, label] { log.add(label); }),
                  FairScheduler::Admit::Ok);
    }

    gate.open();
    sched.wait_idle();

    // Cursor grants each client `weight` consecutive dispatches per
    // visit: A(w1) one job, B(w3) three jobs, repeat.
    const std::vector<std::string> expected = {"A1", "B1", "B2", "B3", "A2",
                                               "B4", "B5", "B6", "A3"};
    EXPECT_EQ(log.get(), expected);
    EXPECT_EQ(sched.completed(), 10u); // 9 + the gate job
    EXPECT_EQ(sched.rejected(), 0u);
}

TEST(ServiceFairQueue, PerClientInflightCapRejectsAsClientSaturated) {
    exec::ThreadPool pool(2);
    FairScheduler::Limits limits;
    limits.max_concurrency = 1;
    limits.max_inflight_per_client = 2;
    limits.max_queued_per_client = 0;
    limits.max_queued_total = 0;
    FairScheduler sched(pool, limits);
    const int c = sched.add_client(1);

    Gate gate;
    ASSERT_EQ(sched.submit(c, [&gate] { gate.wait(); }),
              FairScheduler::Admit::Ok);
    ASSERT_EQ(sched.submit(c, [] {}), FairScheduler::Admit::Ok);
    // Third submission: 1 executing + 1 queued == cap.
    EXPECT_EQ(sched.submit(c, [] {}),
              FairScheduler::Admit::ClientSaturated);
    EXPECT_EQ(sched.rejected(), 1u);

    gate.open();
    sched.wait_idle();
    // Capacity freed — admission recovers.
    EXPECT_EQ(sched.submit(c, [] {}), FairScheduler::Admit::Ok);
    sched.wait_idle();
}

TEST(ServiceFairQueue, GlobalQueueCapRejectsAsQueueFull) {
    exec::ThreadPool pool(2);
    FairScheduler::Limits limits;
    limits.max_concurrency = 1;
    limits.max_inflight_per_client = 0;
    limits.max_queued_per_client = 0;
    limits.max_queued_total = 2;
    FairScheduler sched(pool, limits);
    const int a = sched.add_client(1);
    const int b = sched.add_client(1);

    Gate gate;
    ASSERT_EQ(sched.submit(a, [&gate] { gate.wait(); }),
              FairScheduler::Admit::Ok);
    ASSERT_EQ(sched.submit(a, [] {}), FairScheduler::Admit::Ok);
    ASSERT_EQ(sched.submit(b, [] {}), FairScheduler::Admit::Ok);
    // Queue holds 2 (the gate job is executing, not queued): full.
    EXPECT_EQ(sched.submit(b, [] {}), FairScheduler::Admit::QueueFull);

    gate.open();
    sched.wait_idle();
}

TEST(ServiceFairQueue, DrainDiscardsQueuedJobsThroughCallback) {
    exec::ThreadPool pool(2);
    FairScheduler::Limits limits;
    limits.max_concurrency = 1;
    FairScheduler sched(pool, limits);
    const int c = sched.add_client(1);

    Gate gate;
    std::atomic<int> ran{0};
    ASSERT_EQ(sched.submit(c,
                           [&gate, &ran] {
                               gate.wait();
                               ran.fetch_add(1);
                           }),
              FairScheduler::Admit::Ok);
    for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(sched.submit(c, [&ran] { ran.fetch_add(1); }),
                  FairScheduler::Admit::Ok);
    }

    // Open the gate only once drain() has set the draining flag — by
    // then the queued jobs are already popped (drain discards under the
    // same lock that publishes the flag), so none can sneak into the
    // freed dispatch slot.
    std::atomic<int> discarded{0};
    std::thread opener([&sched, &gate] {
        while (!sched.draining()) std::this_thread::yield();
        gate.open();
    });
    sched.drain(/*discard_queued=*/true,
                [&discarded](std::function<void()>) { discarded.fetch_add(1); });
    opener.join();

    // The executing job finished; the 3 queued jobs were discarded, not run.
    EXPECT_EQ(ran.load(), 1);
    EXPECT_EQ(discarded.load(), 3);
    EXPECT_TRUE(sched.draining());
    EXPECT_EQ(sched.submit(c, [] {}), FairScheduler::Admit::Draining);
}

TEST(ServiceFairQueue, DrainWithoutDiscardRunsEverythingQueued) {
    exec::ThreadPool pool(2);
    FairScheduler::Limits limits;
    limits.max_concurrency = 2;
    FairScheduler sched(pool, limits);
    const int c = sched.add_client(1);

    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i) {
        ASSERT_EQ(sched.submit(c, [&ran] { ran.fetch_add(1); }),
                  FairScheduler::Admit::Ok);
    }
    sched.drain(); // graceful: queued work completes
    EXPECT_EQ(ran.load(), 8);
    EXPECT_EQ(sched.completed(), 8u);
}

TEST(ServiceFairQueue, CountersTrackLifecycle) {
    exec::ThreadPool pool(2);
    FairScheduler::Limits limits;
    limits.max_concurrency = 1;
    FairScheduler sched(pool, limits);
    const int c = sched.add_client(1);

    EXPECT_EQ(sched.queued(), 0u);
    EXPECT_EQ(sched.executing(), 0u);
    EXPECT_EQ(sched.inflight(c), 0u);

    Gate gate;
    ASSERT_EQ(sched.submit(c, [&gate] { gate.wait(); }),
              FairScheduler::Admit::Ok);
    ASSERT_EQ(sched.submit(c, [] {}), FairScheduler::Admit::Ok);

    EXPECT_EQ(sched.executing(), 1u);
    EXPECT_EQ(sched.queued(), 1u);
    EXPECT_EQ(sched.inflight(c), 2u);

    gate.open();
    sched.wait_idle();
    EXPECT_EQ(sched.queued(), 0u);
    EXPECT_EQ(sched.executing(), 0u);
    EXPECT_EQ(sched.inflight(c), 0u);
    EXPECT_EQ(sched.completed(), 2u);
}

/// Polls `done` (a scheduler counter condition) for up to 10 s.
template <class Pred>
bool eventually(Pred done) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done()) {
        if (std::chrono::steady_clock::now() > give_up) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

FairScheduler::Limits unbounded(int max_concurrency) {
    FairScheduler::Limits limits;
    limits.max_concurrency = max_concurrency;
    limits.max_inflight_per_client = 0;
    limits.max_queued_per_client = 0;
    limits.max_queued_total = 0;
    return limits;
}

TEST(ServiceFairQueue, SecondJobForABusySessionWaitsWhileAnotherSessionRuns) {
    exec::ThreadPool pool(4);
    FairScheduler sched(pool, unbounded(4));
    const int a = sched.add_client(1);
    const int b = sched.add_client(1);

    Gate gate0;
    Gate gate1;
    std::atomic<bool> second_ran{false};
    ASSERT_EQ(sched.submit(a, [&gate0] { gate0.wait(); }, {}, 0),
              FairScheduler::Admit::Ok);
    ASSERT_EQ(sched.submit(a, [&second_ran] { second_ran = true; }, {}, 0),
              FairScheduler::Admit::Ok);
    ASSERT_EQ(sched.submit(b, [&gate1] { gate1.wait(); }, {}, 1),
              FairScheduler::Admit::Ok);

    // Session 0's second job stays queued behind the first while the
    // session-1 job of the other client takes a free slot.
    EXPECT_EQ(sched.executing(), 2u);
    EXPECT_EQ(sched.queued(), 1u);
    EXPECT_FALSE(second_ran.load());

    gate1.open();
    ASSERT_TRUE(eventually([&] { return sched.executing() == 1; }));
    EXPECT_EQ(sched.queued(), 1u); // still session 0's turn to finish
    EXPECT_FALSE(second_ran.load());

    gate0.open();
    sched.wait_idle();
    EXPECT_TRUE(second_ran.load());
    EXPECT_EQ(sched.completed(), 3u);
}

TEST(ServiceFairQueue, SameSessionJobsStartInSubmissionOrder) {
    exec::ThreadPool pool(4);
    FairScheduler sched(pool, unbounded(4));
    const int c = sched.add_client(1);

    Gate gate;
    OrderLog log;
    ASSERT_EQ(sched.submit(c, [&gate] { gate.wait(); }, {}, 0),
              FairScheduler::Admit::Ok);
    for (int i = 1; i <= 6; ++i) {
        const std::string label = "J" + std::to_string(i);
        ASSERT_EQ(sched.submit(c, [&log, label] { log.add(label); }, {}, 0),
                  FairScheduler::Admit::Ok);
    }
    // Four slots, one session: only the gate job runs.
    EXPECT_EQ(sched.executing(), 1u);
    EXPECT_EQ(sched.queued(), 6u);

    gate.open();
    sched.wait_idle();
    const std::vector<std::string> expected = {"J1", "J2", "J3",
                                               "J4", "J5", "J6"};
    EXPECT_EQ(log.get(), expected);
}

TEST(ServiceFairQueue, JobForAnIdleSessionPassesJobForABusySession) {
    exec::ThreadPool pool(4);
    FairScheduler sched(pool, unbounded(4));
    const int c = sched.add_client(1);

    Gate gate;
    Gate idle_gate;
    std::atomic<bool> idle_started{false};
    std::atomic<bool> busy_ran{false};
    ASSERT_EQ(sched.submit(c, [&gate] { gate.wait(); }, {}, 0),
              FairScheduler::Admit::Ok);
    // Queued first, but its session is busy.
    ASSERT_EQ(sched.submit(c, [&busy_ran] { busy_ran = true; }, {}, 0),
              FairScheduler::Admit::Ok);
    // Queued second, for an idle session: it must not wait.
    ASSERT_EQ(sched.submit(c,
                           [&idle_started, &idle_gate] {
                               idle_started = true;
                               idle_gate.wait();
                           },
                           {}, 1),
              FairScheduler::Admit::Ok);

    ASSERT_TRUE(eventually([&] { return idle_started.load(); }));
    EXPECT_EQ(sched.executing(), 2u);
    EXPECT_EQ(sched.queued(), 1u);
    EXPECT_FALSE(busy_ran.load());

    idle_gate.open();
    gate.open();
    sched.wait_idle();
    EXPECT_TRUE(busy_ran.load());
}

TEST(ServiceFairQueue, ThrowingJobFreesItsSession) {
    exec::ThreadPool pool(2);
    FairScheduler sched(pool, unbounded(2));
    const int c = sched.add_client(1);

    Gate gate;
    std::atomic<bool> next_ran{false};
    ASSERT_EQ(sched.submit(c,
                           [&gate] {
                               gate.wait();
                               throw std::runtime_error("job failed");
                           },
                           {}, 0),
              FairScheduler::Admit::Ok);
    ASSERT_EQ(sched.submit(c, [&next_ran] { next_ran = true; }, {}, 0),
              FairScheduler::Admit::Ok);
    EXPECT_EQ(sched.queued(), 1u);

    gate.open();
    sched.wait_idle();
    EXPECT_TRUE(next_ran.load());
    EXPECT_EQ(sched.completed(), 2u);
    EXPECT_EQ(sched.executing(), 0u);
}

TEST(ServiceFairQueue, DiscardDrainHandsSessionBlockedJobsToCallback) {
    exec::ThreadPool pool(4);
    FairScheduler sched(pool, unbounded(4));
    const int c = sched.add_client(1);

    Gate gate;
    std::atomic<int> ran{0};
    ASSERT_EQ(sched.submit(c,
                           [&gate, &ran] {
                               gate.wait();
                               ran.fetch_add(1);
                           },
                           {}, 0),
              FairScheduler::Admit::Ok);
    for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(sched.submit(c, [&ran] { ran.fetch_add(1); }, {}, 0),
                  FairScheduler::Admit::Ok);
    }
    // Free slots, but every queued job waits for session 0.
    EXPECT_EQ(sched.executing(), 1u);
    EXPECT_EQ(sched.queued(), 3u);

    std::atomic<int> discarded{0};
    std::thread opener([&sched, &gate] {
        while (!sched.draining()) std::this_thread::yield();
        gate.open();
    });
    sched.drain(/*discard_queued=*/true,
                [&discarded](std::function<void()>) { discarded.fetch_add(1); });
    opener.join();

    EXPECT_EQ(ran.load(), 1);
    EXPECT_EQ(discarded.load(), 3);
    EXPECT_EQ(sched.queued(), 0u);
    EXPECT_EQ(sched.executing(), 0u);
}

TEST(ServiceFairQueue, SessionlessJobsRunConcurrently) {
    exec::ThreadPool pool(4);
    FairScheduler sched(pool, unbounded(4));
    const int c = sched.add_client(1);

    Gate gate;
    std::atomic<int> started{0};
    for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(sched.submit(c,
                               [&gate, &started] {
                                   started.fetch_add(1);
                                   gate.wait();
                               }),
                  FairScheduler::Admit::Ok);
    }
    EXPECT_EQ(sched.executing(), 3u);
    EXPECT_EQ(sched.queued(), 0u);
    ASSERT_TRUE(eventually([&] { return started.load() == 3; }));

    gate.open();
    sched.wait_idle();
    EXPECT_EQ(sched.completed(), 3u);
}

} // namespace
} // namespace stsense::service
