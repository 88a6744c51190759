// service::Server — the resident thermal-telemetry daemon.
//
// One server owns the shared execution runtime (an exec::ThreadPool and
// a cross-request exec::ResultCache) and N die Sessions, and serves
// newline-delimited JSON requests over any Transport (Unix socket for
// real clients, LoopbackTransport for tests and benches). Per
// connection, one reader thread parses requests and routes them through
// the CommandProcessor registry:
//
//   connection -> parse -> registry -> light: inline answer
//                                   -> heavy: session -> FairScheduler -> pool
//
// Admission resolves a per-session request's session (an unknown one is
// answered there and takes no queue slot); the scheduler then runs one
// job per session at a time. Admission control is the scheduler's: a
// saturated client gets a typed `overloaded` response, a draining
// server `shutting-down` — never a hang, never a dropped line. Every
// response carries the request id; heavy responses overtake each other
// freely.
//
// The whole runtime is queryable through the lazily-evaluated object
// model rooted here: `state.pool.queue_depth`, `state.cache.hit_rate`,
// `state.sessions[3].sites[12].health` — each query evaluates exactly
// the subtree it renders (depth-limited, key-filtered), reading live
// atomics and short state locks, so observability stays cheap while
// every worker is busy sweeping.
//
// Shutdown: `shutdown {"mode":"drain"}` (or request_shutdown()) stops
// admissions, lets queued jobs finish, answers everything, then closes
// the transport; mode "now" answers still-queued jobs `shutting-down`
// instead of running them. In-flight sweeps persist per-request
// checkpoints under spool_dir (fingerprint-keyed), so a killed request
// re-issued against a restarted server resumes bitwise.
#pragma once

#include "exec/result_cache.hpp"
#include "exec/thread_pool.hpp"
#include "service/dispatch.hpp"
#include "service/fair_queue.hpp"
#include "service/object_model.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "service/transport.hpp"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace stsense::service {

struct ServerConfig {
    /// Pool workers; <= 0 uses exec::ThreadPool::default_thread_count().
    int threads = 0;
    /// Byte budget of the server-owned result cache shared by every
    /// session (cross-request memoization).
    std::size_t cache_bytes = exec::ResultCache::kDefaultByteBudget;
    /// Directory for per-request sweep/optimizer checkpoints; empty
    /// disables checkpointing (and therefore restart-resume).
    std::string spool_dir;
    /// Admission-control and fairness knobs.
    FairScheduler::Limits limits;
    /// Weight new connections start with (hello can raise it).
    int default_client_weight = 1;
};

class Server {
public:
    Server(ServerConfig config, std::vector<SessionSpec> sessions);
    ~Server();
    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Serves `transport` on the calling thread until shutdown. Joins
    /// every connection reader before returning.
    void serve(Transport& transport);

    /// serve() on an internal thread; pair with wait().
    void start(Transport& transport);
    /// Joins the start() thread (no-op when serve wasn't started).
    void wait();

    /// Programmatic shutdown: stops admissions, drains (or, with
    /// `discard_queued`, answers queued jobs `shutting-down` AND fires
    /// the server cancel token so in-flight heavy work unwinds at its
    /// next poll point instead of running to completion — checkpoints
    /// flush consistent on the way out), then closes the transport so
    /// serve() returns. Idempotent.
    void request_shutdown(bool discard_queued = false);

    bool draining() const { return draining_.load(std::memory_order_relaxed); }

    // ---- composition access (examples, benches, tests) ------------------
    exec::ThreadPool& pool() { return *pool_; }
    exec::ResultCache& cache() { return *cache_; }
    FairScheduler& scheduler() { return *scheduler_; }
    CommandProcessor& processor() { return processor_; }
    std::size_t session_count() const { return sessions_.size(); }
    const ServerConfig& config() const { return config_; }

    /// Root of the object model (`state.`); stable for the server's
    /// lifetime, safe to query from any thread.
    const ModelPtr& model() const { return root_; }

    /// Root of the cancel hierarchy (server -> client -> request).
    /// Copies share state: firing it cancels every request in flight.
    exec::CancelToken cancel_root() const { return cancel_root_; }

    /// One request handled in-process (no transport): the wire path
    /// without the connection. Light methods answer on the calling
    /// thread; heavy ones go through admission and the scheduler like
    /// any wire request, and the call blocks for the answer. Returns the
    /// response line. The benches use this to measure dispatch overhead
    /// without socket noise.
    std::string handle_inline(const std::string& line);

    std::uint64_t requests_total() const {
        return requests_.load(std::memory_order_relaxed);
    }
    std::uint64_t errors_total() const {
        return errors_.load(std::memory_order_relaxed);
    }

private:
    void register_builtin_methods();
    ModelPtr build_model() const;

    /// Resolves params["session"] (index or name; default 0).
    Session& resolve_session(const Json& params);

    void reader_loop(int client, std::shared_ptr<Connection> conn);
    /// Parses one request line, answers it (light) or admits it to the
    /// scheduler (heavy). `conn` receives exactly one response line.
    /// `client` is kInlineClient for handle_inline's requests.
    void handle_line(int client, const std::shared_ptr<Connection>& conn,
                     const std::string& line);
    /// The scheduler client handle_inline's heavy requests queue as,
    /// registered on first use.
    int inline_client();
    /// Stops admissions and waits for the scheduler to drain. With
    /// `discard_queued` it also fires the server cancel token, so
    /// running work unwinds at its next poll point, and answers queued
    /// jobs `shutting-down` without running them.
    void drain(bool discard_queued);
    /// Runs one request through its handler; returns the response line.
    std::string execute(const CommandProcessor::CommandSpec& spec,
                        const Request& req, RequestContext& ctx);

    // ---- cancellation (server -> client -> request token chain) ----------
    /// The client's token, created as a child of the server root on
    /// first use (serve() registers clients lazily this way too).
    exec::CancelToken client_token(int client);
    /// Builds the per-request token (deadline-armed when the request
    /// carried deadline_ms) and registers it for cancel-by-id.
    exec::CancelToken make_request_token(int client, const Request& req);
    /// Drops a finished request from the cancel registry.
    void finish_request(int client, std::int64_t id);
    /// Fires the Cancelled cause on a registered in-flight request.
    /// `requester >= 0` may only cancel its own requests; a negative
    /// requester (in-process dispatch) may cancel anyone's.
    bool cancel_request(int requester, std::int64_t id);
    /// Disconnect path: fires `cause` on the client's token (cancelling
    /// its in-flight requests through the parent chain) and forgets it.
    void drop_client(int client, exec::CancelCause cause);

    // ---- subscriptions ---------------------------------------------------
    struct Subscription {
        std::weak_ptr<Connection> conn;
        std::string path;
        QueryOptions opt;
        std::string last_rendered; ///< Dedup: push only on change.
    };
    void add_subscription(const std::shared_ptr<Connection>& conn,
                          std::string path, QueryOptions opt);
    /// Re-evaluates every live subscription and pushes changed values.
    void notify_subscribers();

    ServerConfig config_;
    std::unique_ptr<exec::ThreadPool> pool_;
    std::unique_ptr<exec::ResultCache> cache_;
    std::vector<std::unique_ptr<Session>> sessions_;
    std::unique_ptr<FairScheduler> scheduler_;
    CommandProcessor processor_;
    ModelPtr root_;

    std::atomic<bool> draining_{false};

    static constexpr int kInlineClient = -1;
    std::once_flag inline_client_once_;
    int inline_client_ = kInlineClient;

    /// Cancel hierarchy root (valid for the server's lifetime) and the
    /// registries below it. Request tokens live in `active_` only while
    /// the request is queued/executing — the `cancel` method looks them
    /// up by (client, request id); in-flight jobs hold their own copies,
    /// so erasure never invalidates a running poll.
    exec::CancelToken cancel_root_ = exec::CancelToken::make();
    std::mutex cancel_m_;
    std::map<int, exec::CancelToken> client_tokens_;
    std::map<std::pair<int, std::int64_t>, exec::CancelToken> active_;

    std::mutex serve_m_;
    Transport* transport_ = nullptr; ///< Non-null while serve() runs.
    std::vector<std::thread> readers_;
    std::thread serve_thread_;

    std::mutex sub_m_;
    std::vector<Subscription> subscriptions_;
    std::atomic<std::uint64_t> event_seq_{0};

    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> responses_{0};
    std::atomic<std::uint64_t> errors_{0};
};

} // namespace stsense::service
