// Fixed-size work-stealing thread pool — the execution backbone of the
// library's embarrassingly parallel workloads (temperature sweeps,
// design-space enumeration, distributed-sensor scans, Monte-Carlo
// trials).
//
// Design goals, in order:
//   1. *Determinism*: parallel_for chunks the index space with a fixed
//      chunk -> index mapping and callers commit results by index, so a
//      parallel run is bitwise identical to a serial one regardless of
//      the thread count or scheduling. Nothing about ordering is left to
//      the scheduler.
//   2. *Nestability*: a task may itself call parallel_for (the optimizer
//      parallelizes candidates whose sweeps could parallelize points).
//      Waiters help execute pending tasks instead of blocking, so nested
//      use cannot deadlock even on a single-thread pool. Jobs of a
//      top-level TaskGroup are the exception: only worker loops start
//      them.
//   3. *Exception safety*: a task that throws does not take a worker
//      down. The first exception (lowest chunk index for parallel_for)
//      is captured and rethrown to the caller after the batch drains.
//   4. *Cancellability*: every task captures the ambient
//      exec::CancelToken at submission and the worker re-installs it
//      around the body, so cooperative cancellation crosses the thread
//      hop with no signature plumbing. A task whose token already fired
//      at dequeue is skipped (a CancelledError is delivered through the
//      group), so a cancelled batch drains in O(queue scan), not
//      O(work). With no token installed this costs one null check.
#pragma once

#include "exec/cancel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace stsense::exec {

class ThreadPool;

/// A batch of heterogeneous jobs submitted to one pool. wait() blocks —
/// helping to execute pending pool tasks meanwhile — until every job of
/// *this group* finished, then rethrows the first captured exception.
///
/// A `top_level` group's jobs only ever start from a worker's own loop,
/// never inside a thread helping in some wait(): such a job must not
/// begin on top of another task's stack. The service's fair scheduler
/// dispatches its request jobs this way, so a request's answer and its
/// cancel latency never wait for an unrelated job its waiter started.
class TaskGroup {
public:
    explicit TaskGroup(ThreadPool& pool, bool top_level = false)
        : pool_(pool), top_level_(top_level) {}
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;
    /// Joins outstanding tasks (exceptions swallowed — call wait()).
    ~TaskGroup();

    /// Schedules one job on the group's pool.
    void run(std::function<void()> fn);

    /// Blocks until all scheduled jobs completed; rethrows the first
    /// exception any of them threw (first = earliest submission order).
    void wait();

private:
    friend class ThreadPool;
    struct State {
        std::mutex m;
        std::condition_variable cv;
        std::size_t pending = 0;
        /// Exception of the lowest submission ticket that threw.
        std::exception_ptr error;
        std::size_t error_ticket = ~std::size_t{0};
    };
    ThreadPool& pool_;
    const bool top_level_;
    std::shared_ptr<State> state_ = std::make_shared<State>();
    std::size_t next_ticket_ = 0;
};

/// Fixed-size pool with per-worker deques and work stealing: workers pop
/// their own deque LIFO (cache-friendly) and steal FIFO from victims.
class ThreadPool {
public:
    /// Spawns `n_threads` workers (clamped to >= 1).
    explicit ThreadPool(int n_threads);
    ~ThreadPool();
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Worker count.
    int size() const { return static_cast<int>(workers_.size()); }

    /// Chunked deterministic parallel loop over [0, n): `body(begin, end)`
    /// is invoked for consecutive chunks of at most `grain` indices
    /// (chunk c covers [c*grain, min(n, (c+1)*grain))). The caller helps
    /// execute chunks, so the call also makes progress on a busy pool.
    /// Rethrows the exception of the lowest-index failing chunk.
    ///
    /// grain = 0 selects auto_grain(n, size()): the batch width is split
    /// into ~4 chunks per worker so stragglers rebalance, without paying
    /// per-index scheduling on wide loops. The chunk -> index mapping is
    /// still fixed once the grain is resolved, so the auto grain keeps
    /// the bitwise-deterministic contract (results are committed by
    /// index; only scheduling changes). The resolved grain of every
    /// scheduled loop is published to the "exec.parallel_for.grain"
    /// gauge.
    ///
    /// Cancellation: polls the ambient CancelToken before scheduling
    /// (throwing CancelledError without running anything) and skips
    /// not-yet-started chunks once the token fires mid-loop; chunks
    /// already executing run to completion unless the body polls.
    void parallel_for(std::size_t n, std::size_t grain,
                      const std::function<void(std::size_t, std::size_t)>& body);

    /// The grain-size heuristic behind parallel_for's grain = 0: about 4
    /// chunks per worker (ceil division, so the tail chunk is never the
    /// only small one), floored at 1 index per chunk. Exposed for tests
    /// and for callers that want the number without scheduling.
    static std::size_t auto_grain(std::size_t n, int workers);

    /// The process-wide pool, sized by the STSENSE_THREADS environment
    /// variable when set (>= 1), else std::thread::hardware_concurrency.
    static ThreadPool& global();

    /// Thread count global() would use: STSENSE_THREADS override or
    /// hardware concurrency, clamped to the hardware thread count either
    /// way — oversubscribing a CPU-bound pool only adds context-switch
    /// overhead. Exposed (with the raw string parser below) so the
    /// override is testable without mutating the environment.
    static int default_thread_count();

    /// Clamps a requested worker count to the hardware: a request < 1
    /// means "auto" (hardware_concurrency); anything larger is reduced
    /// to the hardware thread count. Explicit ThreadPool(n) construction
    /// stays unclamped (tests deliberately build odd-shaped pools).
    static int clamp_to_hardware(int requested);

    /// Parses a STSENSE_THREADS value; returns `fallback` for null,
    /// empty, non-numeric, or < 1 values.
    static int parse_thread_env(const char* value, int fallback);

    /// Total tasks executed (all queues, lifetime). For tests/metrics.
    /// Both this and inflight() are settled for a task before its
    /// TaskGroup is released, so they are exact once wait() returns.
    std::uint64_t tasks_executed() const;
    /// Tasks a worker stole from another worker's deque.
    std::uint64_t tasks_stolen() const;
    /// Tasks sitting in the deques right now, not yet picked up. Relaxed
    /// read — an instantaneous load signal for admission control and the
    /// service object model, not a synchronization point.
    std::size_t queue_depth() const;
    /// Tasks currently executing on a worker (or a helping waiter).
    /// Relaxed read; never exceeds size() plus the number of helpers.
    std::size_t inflight() const;

private:
    friend class TaskGroup;
    struct Task {
        std::function<void()> fn;
        std::shared_ptr<TaskGroup::State> group;
        std::size_t ticket = 0;
        /// Ambient token at submission time: the worker re-installs it
        /// around fn so cancellation crosses the thread hop, and a task
        /// whose token fired before dequeue is skipped (never run) with
        /// a CancelledError delivered through the group instead.
        CancelToken token;
        /// From a top_level TaskGroup: never run by a helping waiter.
        bool top_level = false;
    };
    struct Queue {
        std::mutex m;
        std::deque<Task> q;
    };

    void submit(Task task);
    void worker_loop(std::size_t self);
    /// Pops one task (own deque back first, then steals front of
    /// others). `self` == npos for non-worker threads. A `helping`
    /// caller (a waiter) skips top-level tasks.
    bool try_pop(std::size_t self, Task& out, bool helping);
    void execute(Task& task);
    /// Runs one pending task if any; used by waiters to help.
    bool help_one();

    std::vector<std::unique_ptr<Queue>> queues_;
    std::vector<std::thread> workers_;
    /// First logical trace tid of this pool's contiguous worker block
    /// (see obs::Tracer::reserve_tid_block).
    std::uint32_t trace_tid_base_ = 0;
    std::mutex sleep_m_;
    std::condition_variable sleep_cv_;
    bool stop_ = false; ///< Guarded by sleep_m_.
    std::atomic<std::size_t> pending_{0};
    std::atomic<std::size_t> inflight_{0};
    std::atomic<std::size_t> round_robin_{0};
    std::atomic<std::uint64_t> executed_{0};
    std::atomic<std::uint64_t> stolen_{0};
};

} // namespace stsense::exec
