#include "exec/thread_pool.hpp"

#include "exec/fault_injector.hpp"
#include "exec/metrics.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <string>

namespace stsense::exec {

namespace {

/// Thread-local worker index inside its owning pool (npos elsewhere).
/// Lets submit() target the local deque and try_pop() prefer it.
constexpr std::size_t kNoWorker = ~std::size_t{0};
thread_local const ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_worker = kNoWorker;

} // namespace

// ---------------------------------------------------------------- TaskGroup

TaskGroup::~TaskGroup() {
    try {
        wait();
    } catch (...) {
        // Destructor join: the exception was already delivered to an
        // earlier wait() or there is no live waiter to rethrow to.
    }
}

void TaskGroup::run(std::function<void()> fn) {
    {
        std::lock_guard lock(state_->m);
        ++state_->pending;
    }
    ThreadPool::Task task;
    task.fn = std::move(fn);
    task.group = state_;
    task.ticket = next_ticket_++;
    task.top_level = top_level_;
    pool_.submit(std::move(task));
}

void TaskGroup::wait() {
    for (;;) {
        {
            std::unique_lock lock(state_->m);
            if (state_->pending == 0) break;
        }
        // Help drain the pool instead of blocking: this makes nested
        // parallel sections deadlock-free (a worker waiting on an inner
        // group keeps executing tasks) and lets the calling thread
        // contribute throughput. Top-level jobs are left to the worker
        // loops (see TaskGroup).
        if (pool_.help_one()) continue;
        std::unique_lock lock(state_->m);
        // Bounded wait: a task submitted concurrently with the last
        // help_one() scan could otherwise be missed until the next
        // notification.
        state_->cv.wait_for(lock, std::chrono::milliseconds(1),
                            [&] { return state_->pending == 0; });
    }
    std::lock_guard lock(state_->m);
    if (state_->error) {
        auto err = state_->error;
        state_->error = nullptr; // Deliver once.
        std::rethrow_exception(err);
    }
}

// ---------------------------------------------------------------- ThreadPool

ThreadPool::ThreadPool(int n_threads) {
    const int n = std::max(1, n_threads);
    queues_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) queues_.push_back(std::make_unique<Queue>());
    // Contiguous logical-tid block: worker K of this pool traces under a
    // stable id even when several pools are alive at once.
    trace_tid_base_ =
        obs::Tracer::reserve_tid_block(static_cast<std::uint32_t>(n));
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        workers_.emplace_back([this, i] { worker_loop(static_cast<std::size_t>(i)); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard lock(sleep_m_);
        stop_ = true;
    }
    sleep_cv_.notify_all();
    for (auto& w : workers_) w.join();
}

void ThreadPool::submit(Task task) {
    // Capture the submitting thread's ambient cancel token so the
    // worker can re-install it around the body (and skip the body
    // outright once it fires).
    task.token = CancelScope::current();
    // A worker submits to its own deque (LIFO locality); outside threads
    // round-robin across workers.
    std::size_t target = (tl_pool == this) ? tl_worker : kNoWorker;
    if (target == kNoWorker) {
        target = round_robin_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
    }
    {
        std::lock_guard lock(queues_[target]->m);
        queues_[target]->q.push_back(std::move(task));
    }
    {
        // Increment under sleep_m_ so a worker that just evaluated the
        // sleep predicate cannot miss this task's notification.
        std::lock_guard lock(sleep_m_);
        pending_.fetch_add(1, std::memory_order_release);
    }
    sleep_cv_.notify_one();
}

bool ThreadPool::try_pop(std::size_t self, Task& out, bool helping) {
    const std::size_t n = queues_.size();
    const auto runnable = [helping](const Task& t) {
        return !(helping && t.top_level);
    };
    // Own deque, newest first.
    if (self != kNoWorker) {
        Queue& mine = *queues_[self];
        std::lock_guard lock(mine.m);
        const auto it = std::find_if(mine.q.rbegin(), mine.q.rend(), runnable);
        if (it != mine.q.rend()) {
            out = std::move(*it);
            mine.q.erase(std::next(it).base());
            pending_.fetch_sub(1, std::memory_order_acquire);
            return true;
        }
    }
    // Steal oldest-first from the other deques.
    const std::size_t start = (self != kNoWorker)
                                  ? self + 1
                                  : round_robin_.load(std::memory_order_relaxed);
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t victim = (start + k) % n;
        if (victim == self) continue;
        Queue& q = *queues_[victim];
        std::lock_guard lock(q.m);
        const auto it = std::find_if(q.q.begin(), q.q.end(), runnable);
        if (it != q.q.end()) {
            out = std::move(*it);
            q.q.erase(it);
            pending_.fetch_sub(1, std::memory_order_acquire);
            if (self != kNoWorker) stolen_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }
    return false;
}

void ThreadPool::execute(Task& task) {
    // inflight_ brackets the user code so queue_depth() + inflight()
    // together account for every admitted-but-unfinished task.
    inflight_.fetch_add(1, std::memory_order_relaxed);
    if (auto* injector = FaultInjector::active(); injector != nullptr) {
        // Injected cancel storm: fire this task's token right before it
        // would run — a deterministic stand-in for a client cancelling
        // at exactly this dispatch index.
        if (injector->trip(FaultInjector::Site::CancelStorm,
                           static_cast<std::uint64_t>(task.ticket))) {
            task.token.cancel(CancelCause::Cancelled);
        }
        // Injected straggler: delay the task before running it
        // (exercises deadline budgets and waiter/helping paths under
        // slow workers). The sleep is sliced so a fired token or an
        // expired deadline ends the stall early — straggler injection
        // must compose with wall-clock budgets, not defeat them.
        if (injector->trip(FaultInjector::Site::SlowTask,
                           static_cast<std::uint64_t>(task.ticket))) {
            const auto until =
                std::chrono::steady_clock::now() +
                std::chrono::microseconds(injector->config().slow_task_us);
            constexpr auto kSlice = std::chrono::microseconds(50);
            for (auto now = std::chrono::steady_clock::now(); now < until;
                 now = std::chrono::steady_clock::now()) {
                if (task.token.poll() != CancelCause::None) break;
                std::this_thread::sleep_for(
                    std::min<std::chrono::steady_clock::duration>(
                        until - now, kSlice));
            }
        }
    }
    std::exception_ptr error;
    if (const CancelCause fired = task.token.poll();
        fired != CancelCause::None) {
        // Skip-on-dequeue: the request this task belongs to is already
        // dead, so don't burn a worker on it — deliver the typed cause
        // through the group's error channel instead. The group/pending
        // bookkeeping below runs unchanged, so queue_depth/inflight
        // drain to zero exactly as for an executed task.
        MetricsRegistry::global().counter("exec.cancel.tasks_skipped").add();
        error = std::make_exception_ptr(CancelledError(fired));
    } else {
        CancelScope scope(task.token);
        try {
            OBS_SPAN("exec.pool.task");
            task.fn();
        } catch (...) {
            error = std::current_exception();
        }
    }
    // Settle the pool counters before releasing the group: once wait()
    // returns, inflight() no longer counts the group's tasks and
    // tasks_executed() does.
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    executed_.fetch_add(1, std::memory_order_relaxed);
    if (task.group) {
        std::lock_guard lock(task.group->m);
        if (error && task.ticket < task.group->error_ticket) {
            // Move, don't copy: the worker must not keep a second
            // reference, or the *last* exception_ptr release can land
            // on this thread after the waiter already rethrew and read
            // the exception — TSan (rightly unable to see libstdc++'s
            // internal refcount ordering) reports that free as a race.
            task.group->error = std::move(error);
            task.group->error_ticket = task.ticket;
        }
        if (--task.group->pending == 0) task.group->cv.notify_all();
    }
}

bool ThreadPool::help_one() {
    Task task;
    const std::size_t self = (tl_pool == this) ? tl_worker : kNoWorker;
    if (!try_pop(self, task, /*helping=*/true)) return false;
    execute(task);
    return true;
}

void ThreadPool::worker_loop(std::size_t self) {
    tl_pool = this;
    tl_worker = self;
    const std::uint32_t tid =
        trace_tid_base_ + static_cast<std::uint32_t>(self);
    obs::Tracer::set_thread_identity(
        tid, "pool" + std::to_string(trace_tid_base_) + ".w" +
                 std::to_string(self));
    for (;;) {
        Task task;
        if (try_pop(self, task, /*helping=*/false)) {
            execute(task);
            continue;
        }
        std::unique_lock lock(sleep_m_);
        sleep_cv_.wait(lock, [&] {
            return stop_ || pending_.load(std::memory_order_acquire) > 0;
        });
        if (stop_) return;
    }
}

std::size_t ThreadPool::auto_grain(std::size_t n, int workers) {
    const auto w = static_cast<std::size_t>(std::max(1, workers));
    // ~4 chunks per worker: enough slack for work stealing to absorb
    // uneven chunk costs, few enough that scheduling stays negligible.
    const std::size_t target_chunks = 4 * w;
    return std::max<std::size_t>(1, (n + target_chunks - 1) / target_chunks);
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
    if (n == 0) return;
    // Already-cancelled caller: refuse to schedule (or run inline) at
    // all. Throwing here gives loops above a deterministic unwind point
    // before any work is admitted.
    CancelScope::current().check();
    grain = grain == 0 ? auto_grain(n, size()) : grain;
    const std::size_t chunks = (n + grain - 1) / grain;
    if (chunks == 1) {
        body(0, n); // No parallelism to extract; skip the scheduling cost.
        return;
    }
    MetricsRegistry::global().counter("exec.pool.parallel_for").add();
    MetricsRegistry::global()
        .gauge("exec.parallel_for.grain")
        .set(static_cast<double>(grain));
    obs::Span span("exec.parallel_for");
    span.num("chunks", static_cast<double>(chunks));
    span.num("grain", static_cast<double>(grain));
    TaskGroup group(*this);
    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t begin = c * grain;
        const std::size_t end = std::min(n, begin + grain);
        group.run([&body, begin, end] { body(begin, end); });
    }
    group.wait();
}

ThreadPool& ThreadPool::global() {
    static ThreadPool pool(default_thread_count());
    return pool;
}

int ThreadPool::parse_thread_env(const char* value, int fallback) {
    if (value == nullptr || *value == '\0') return fallback;
    char* end = nullptr;
    const long parsed = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || parsed < 1 || parsed > 4096) return fallback;
    return static_cast<int>(parsed);
}

int ThreadPool::default_thread_count() {
    const int hw = std::max(1u, std::thread::hardware_concurrency());
    return clamp_to_hardware(parse_thread_env(std::getenv("STSENSE_THREADS"), hw));
}

int ThreadPool::clamp_to_hardware(int requested) {
    const int hw =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    if (requested < 1) return hw;
    return std::min(requested, hw);
}

std::uint64_t ThreadPool::tasks_executed() const {
    return executed_.load(std::memory_order_relaxed);
}

std::uint64_t ThreadPool::tasks_stolen() const {
    return stolen_.load(std::memory_order_relaxed);
}

std::size_t ThreadPool::queue_depth() const {
    return pending_.load(std::memory_order_relaxed);
}

std::size_t ThreadPool::inflight() const {
    return inflight_.load(std::memory_order_relaxed);
}

} // namespace stsense::exec
