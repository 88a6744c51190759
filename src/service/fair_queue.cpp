#include "service/fair_queue.hpp"

#include "exec/metrics.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

namespace stsense::service {

FairScheduler::FairScheduler(exec::ThreadPool& pool, Limits limits)
    : pool_(pool), limits_(limits), group_(pool, /*top_level=*/true) {}

FairScheduler::~FairScheduler() {
    // Discard whatever is still queued; block until dispatched jobs
    // finished (the TaskGroup member would join them anyway, but by then
    // the counters they update would be destroyed).
    drain(/*discard_queued=*/true);
}

int FairScheduler::add_client(int weight) {
    std::lock_guard lock(m_);
    const int id = next_client_++;
    Client c;
    c.weight = std::clamp(weight, 1, 64);
    c.quantum_left = c.weight;
    clients_.emplace(id, std::move(c));
    return id;
}

void FairScheduler::set_weight(int client, int weight) {
    std::lock_guard lock(m_);
    const auto it = clients_.find(client);
    if (it == clients_.end()) return;
    it->second.weight = std::clamp(weight, 1, 64);
    it->second.quantum_left =
        std::min(it->second.quantum_left, it->second.weight);
}

FairScheduler::Admit FairScheduler::submit(int client,
                                           std::function<void()> job,
                                           const exec::CancelToken& token,
                                           int session) {
    // Infeasibility shed, before any queue slot is taken: a request
    // whose deadline has already passed (or whose token already fired)
    // cannot answer in time no matter how fast the pool drains.
    if (token.valid() && token.poll() != exec::CancelCause::None) {
        std::lock_guard lock(m_);
        ++rejected_;
        exec::MetricsRegistry::global().counter("service.shed.deadline").add();
        return Admit::DeadlineUnmet;
    }
    std::lock_guard lock(m_);
    if (draining_) {
        ++rejected_;
        return Admit::Draining;
    }
    const auto it = clients_.find(client);
    if (it == clients_.end()) {
        ++rejected_;
        return Admit::ClientSaturated;
    }
    Client& c = it->second;
    const std::size_t client_inflight = c.queue.size() + c.executing;
    if (limits_.max_inflight_per_client > 0 &&
        client_inflight >= static_cast<std::size_t>(limits_.max_inflight_per_client)) {
        ++rejected_;
        return Admit::ClientSaturated;
    }
    if (limits_.max_queued_per_client > 0 &&
        c.queue.size() >= static_cast<std::size_t>(limits_.max_queued_per_client)) {
        ++rejected_;
        return Admit::ClientSaturated;
    }
    if (limits_.max_queued_total > 0 &&
        queued_ >= static_cast<std::size_t>(limits_.max_queued_total)) {
        ++rejected_;
        return Admit::QueueFull;
    }
    c.queue.push_back(Job{std::move(job), session});
    ++queued_;
    exec::MetricsRegistry::global().gauge("service.queue.depth").set(
        static_cast<double>(queued_));
    pump_locked();
    return Admit::Ok;
}

void FairScheduler::pump_locked() {
    const std::size_t max_concurrency =
        limits_.max_concurrency > 0
            ? static_cast<std::size_t>(limits_.max_concurrency)
            : static_cast<std::size_t>(pool_.size());
    while (executing_ < max_concurrency && queued_ > 0) {
        // Weighted round-robin: serve the cursor client while it has a
        // runnable job and quantum; moving the cursor regrants the next
        // client's quantum (= its weight). A job is runnable when its
        // session has no job running (kNoSession is never busy).
        std::size_t moves = 0;
        const std::size_t n_clients = clients_.size();
        bool dispatched = false;
        while (moves <= n_clients) {
            auto it = clients_.lower_bound(cursor_);
            if (it == clients_.end()) it = clients_.begin();
            Client& c = it->second;
            auto runnable = c.queue.end();
            if (c.quantum_left > 0) {
                runnable = std::find_if(
                    c.queue.begin(), c.queue.end(), [this](const Job& j) {
                        return !busy_sessions_.contains(j.session);
                    });
            }
            if (runnable != c.queue.end()) {
                Job job = std::move(*runnable);
                c.queue.erase(runnable);
                if (job.session != kNoSession) busy_sessions_.insert(job.session);
                --queued_;
                ++executing_;
                ++c.executing;
                --c.quantum_left;
                const int id = it->first;
                group_.run([this, id, job = std::move(job)]() mutable {
                    run_job(id, std::move(job));
                });
                dispatched = true;
                break;
            }
            auto next = std::next(it);
            if (next == clients_.end()) next = clients_.begin();
            cursor_ = next->first;
            next->second.quantum_left = next->second.weight;
            ++moves;
        }
        if (!dispatched) break; // nothing queued is runnable
    }
    exec::MetricsRegistry::global().gauge("service.queue.depth").set(
        static_cast<double>(queued_));
}

void FairScheduler::run_job(int client, Job job) {
    {
        OBS_SPAN("service.job");
        try {
            job.fn();
        } catch (...) {
            // Server job wrappers answer the client themselves; an
            // exception escaping one is a bug, but it must not poison
            // the scheduler's books or take down a worker batch.
            exec::MetricsRegistry::global()
                .counter("service.jobs.uncaught")
                .add();
        }
    }
    bool idle = false;
    {
        std::lock_guard lock(m_);
        busy_sessions_.erase(job.session);
        const auto it = clients_.find(client);
        if (it != clients_.end() && it->second.executing > 0) {
            --it->second.executing;
        }
        --executing_;
        ++completed_;
        pump_locked();
        idle = queued_ == 0 && executing_ == 0;
    }
    exec::MetricsRegistry::global().counter("service.jobs.completed").add();
    if (idle) idle_cv_.notify_all();
}

void FairScheduler::drain(
    bool discard_queued,
    const std::function<void(std::function<void()>)>& on_discard) {
    std::vector<std::function<void()>> discarded;
    {
        std::lock_guard lock(m_);
        draining_ = true;
        if (discard_queued) {
            for (auto& [id, c] : clients_) {
                for (Job& job : c.queue) discarded.push_back(std::move(job.fn));
                queued_ -= c.queue.size();
                c.queue.clear();
            }
        }
    }
    for (auto& job : discarded) {
        if (on_discard) on_discard(std::move(job));
    }
    std::unique_lock lock(m_);
    idle_cv_.wait(lock, [&] { return queued_ == 0 && executing_ == 0; });
}

bool FairScheduler::draining() const {
    std::lock_guard lock(m_);
    return draining_;
}

void FairScheduler::wait_idle() {
    std::unique_lock lock(m_);
    idle_cv_.wait(lock, [&] { return queued_ == 0 && executing_ == 0; });
}

std::size_t FairScheduler::queued() const {
    std::lock_guard lock(m_);
    return queued_;
}

std::size_t FairScheduler::executing() const {
    std::lock_guard lock(m_);
    return executing_;
}

std::uint64_t FairScheduler::completed() const {
    std::lock_guard lock(m_);
    return completed_;
}

std::uint64_t FairScheduler::rejected() const {
    std::lock_guard lock(m_);
    return rejected_;
}

std::size_t FairScheduler::inflight(int client) const {
    std::lock_guard lock(m_);
    const auto it = clients_.find(client);
    if (it == clients_.end()) return 0;
    return it->second.queue.size() + it->second.executing;
}

} // namespace stsense::service
