// service::FairScheduler — admission control + weighted fair queuing of
// client jobs onto the shared exec::ThreadPool.
//
// Heavy requests (sweeps, thermal maps, optimizer runs) do not go
// straight to the pool: a client that pipelines a thousand sweeps would
// monopolize every worker and starve everyone else. Instead each client
// owns a FIFO of pending jobs and the scheduler releases at most
// `max_concurrency` jobs into the pool at once, choosing the next job by
// *weighted round-robin*: each visit of the release cursor grants a
// client up to `weight` consecutive dispatches before moving on, so a
// weight-3 client gets 3x the service rate of a weight-1 client under
// contention and exactly its demand when the pool is idle.
//
// The scheduler runs one job per session at a time, and is the only
// place that rule lives: a session's state needs no lock, and no pool
// worker ever blocks on a session. The cursor's client dispatches its
// oldest queued job whose session has no job running (a job naming no
// session always can), so one client's jobs for one session start in
// arrival order and a job for an idle session never waits behind one
// for a busy session. A client with no such job spends no quantum: the
// cursor moves on.
//
// Admission is bounded on three axes, each rejection typed Overloaded
// (never a silent hang):
//   * per-client inflight (queued + executing) cap,
//   * per-client queue cap,
//   * global queue cap.
//
// A job may carry a cancel token. A token whose deadline has already
// expired at submit is shed with the typed DeadlineUnmet verdict before
// any queue slot or pool time is spent on it; a token that fires while
// the job is queued is the dispatcher's problem (the server's job
// wrapper answers it without doing the heavy work).
//
// Jobs go to the pool as a top-level exec::TaskGroup: a pool thread
// waiting inside one job's fan-out never starts another job on top of
// it, so a job's answer (and its cancel latency) never waits for an
// unrelated job to finish on the same stack.
//
// Dispatch order is deterministic given the arrival order: the cursor
// walks clients in registration order and jobs in FIFO order — the
// determinism tests pin this down with max_concurrency = 1.
#pragma once

#include "exec/thread_pool.hpp"

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <set>

namespace stsense::service {

class FairScheduler {
public:
    struct Limits {
        /// Max queued + executing jobs one client may have. <= 0: unbounded.
        int max_inflight_per_client = 8;
        /// Max queued jobs one client may have. <= 0: unbounded.
        int max_queued_per_client = 32;
        /// Max queued jobs across all clients. <= 0: unbounded.
        int max_queued_total = 128;
        /// Jobs released into the pool at once; <= 0 uses the pool width.
        int max_concurrency = 0;
    };

    enum class Admit {
        Ok,               ///< Queued (and possibly already dispatched).
        ClientSaturated,  ///< Per-client inflight or queue cap hit.
        QueueFull,        ///< Global queue cap hit.
        Draining,         ///< drain() began; no new jobs.
        DeadlineUnmet,    ///< Token deadline already expired; job shed.
    };

    FairScheduler(exec::ThreadPool& pool, Limits limits);
    ~FairScheduler();
    FairScheduler(const FairScheduler&) = delete;
    FairScheduler& operator=(const FairScheduler&) = delete;

    /// Registers a client and returns its id. `weight` is clamped to
    /// [1, 64].
    int add_client(int weight = 1);
    void set_weight(int client, int weight);

    /// `session` value of a job that works on no session.
    static constexpr int kNoSession = -1;

    /// Queues `job` for `client`. On Admit::Ok the job will run on the
    /// pool (possibly before submit returns), never while another job
    /// of the same `session` runs. Any other verdict means the job was
    /// NOT queued and the caller must answer the client. `token`
    /// (optional) is the request's cancel token: a deadline already
    /// expired at submit sheds the job (DeadlineUnmet) instead of
    /// wasting a queue slot on work that cannot answer in time.
    Admit submit(int client, std::function<void()> job,
                 const exec::CancelToken& token = {},
                 int session = kNoSession);

    /// Stops admissions. `discard_queued` pops every not-yet-dispatched
    /// job, including those waiting for their session, and hands it to
    /// `on_discard` (so the server can answer ShuttingDown) instead of
    /// running it. Blocks until every dispatched job finished.
    /// Idempotent.
    void drain(bool discard_queued = false,
               const std::function<void(std::function<void()>)>& on_discard = {});

    bool draining() const;

    /// Blocks until no job is queued or executing (admissions stay open).
    void wait_idle();

    // ---- live counters for the object model -----------------------------
    std::size_t queued() const;
    std::size_t executing() const;
    std::uint64_t completed() const;
    std::uint64_t rejected() const;
    std::size_t inflight(int client) const;

private:
    struct Job {
        std::function<void()> fn;
        int session = kNoSession;
    };
    struct Client {
        int weight = 1;
        int quantum_left = 1;              ///< Dispatches left this visit.
        std::deque<Job> queue;
        std::size_t executing = 0;
    };

    /// Releases queued jobs into the pool while below max_concurrency.
    /// Requires m_ held; may be re-entered from job completions.
    void pump_locked();
    void run_job(int client, Job job);

    exec::ThreadPool& pool_;
    Limits limits_;
    mutable std::mutex m_;
    std::condition_variable idle_cv_;
    std::map<int, Client> clients_;
    /// Sessions with a job dispatched and not yet finished.
    std::set<int> busy_sessions_;
    int next_client_ = 0;
    /// Weighted round-robin cursor: id of the client served next.
    int cursor_ = 0;
    std::size_t queued_ = 0;
    std::size_t executing_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t rejected_ = 0;
    bool draining_ = false;
    exec::TaskGroup group_;
};

} // namespace stsense::service
