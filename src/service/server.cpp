#include "service/server.hpp"

#include "exec/metrics.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>
#include <thread>
#include <utility>

namespace stsense::service {

namespace {

/// True only while FairScheduler::drain's discard callback is replaying
/// a queued-but-undispatched job on the drainer's thread. Thread-local
/// on purpose: a job the scheduler already dispatched to a pool worker
/// must run to completion even when shutdown lands mid-flight — a
/// global flag would race the worker into discarding admitted work.
thread_local bool t_discarding = false;

/// handle_inline's stand-in for a connection: hands the one response
/// line handle_line writes to the caller waiting for it.
class InlineReply final : public Connection {
public:
    bool read_line(std::string&) override { return false; }
    bool write_line(const std::string& line) override {
        line_.set_value(line);
        return true;
    }
    void close() override {}
    std::string wait() { return line_.get_future().get(); }

private:
    std::promise<std::string> line_;
};

} // namespace

Server::Server(ServerConfig config, std::vector<SessionSpec> sessions)
    : config_(std::move(config)) {
    const int threads = config_.threads > 0
                            ? config_.threads
                            : exec::ThreadPool::default_thread_count();
    pool_ = std::make_unique<exec::ThreadPool>(threads);
    cache_ = std::make_unique<exec::ResultCache>(
        config_.cache_bytes, &exec::MetricsRegistry::global(),
        "service.cache");
    sessions_.reserve(sessions.size());
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        sessions_.push_back(std::make_unique<Session>(
            static_cast<int>(i), std::move(sessions[i]), pool_.get(),
            cache_.get(), config_.spool_dir));
    }
    scheduler_ = std::make_unique<FairScheduler>(*pool_, config_.limits);
    register_builtin_methods();
    root_ = build_model();
}

Server::~Server() {
    request_shutdown(/*discard_queued=*/true);
    wait();
    // Readers of a serve() running on a caller thread were joined by
    // serve() itself; the scheduler is already drained.
}

// --------------------------------------------------------------- serving

void Server::serve(Transport& transport) {
    {
        std::lock_guard lock(serve_m_);
        transport_ = &transport;
    }
    for (;;) {
        auto conn = transport.accept();
        if (!conn) break;
        const int client = scheduler_->add_client(config_.default_client_weight);
        std::lock_guard lock(serve_m_);
        readers_.emplace_back(&Server::reader_loop, this, client,
                              std::move(conn));
    }
    std::vector<std::thread> readers;
    {
        std::lock_guard lock(serve_m_);
        readers.swap(readers_);
        transport_ = nullptr;
    }
    for (auto& t : readers) {
        if (t.joinable()) t.join();
    }
}

void Server::start(Transport& transport) {
    serve_thread_ = std::thread([this, &transport] { serve(transport); });
}

void Server::wait() {
    if (serve_thread_.joinable()) serve_thread_.join();
}

void Server::request_shutdown(bool discard_queued) {
    drain(discard_queued);
    std::lock_guard lock(serve_m_);
    if (transport_) transport_->shutdown();
}

void Server::drain(bool discard_queued) {
    draining_.store(true, std::memory_order_relaxed);
    if (!discard_queued) {
        scheduler_->drain(/*discard_queued=*/false);
        return;
    }
    // Immediate teardown: in-flight heavy work unwinds at its next poll
    // point (checkpoints flush consistent), so the drain waits
    // milliseconds, not sweep-lengths.
    cancel_root_.cancel(exec::CancelCause::Shutdown);
    // Queued-but-undispatched jobs replay via on_discard under the
    // thread-local discard flag and answer `shutting-down` without doing
    // their work; already-dispatched jobs finish normally.
    scheduler_->drain(/*discard_queued=*/true, [](std::function<void()> job) {
        t_discarding = true;
        job();
        t_discarding = false;
    });
}

void Server::reader_loop(int client, std::shared_ptr<Connection> conn) {
    std::string line;
    while (conn->read_line(line)) {
        if (line.find_first_not_of(" \t\r\n") == std::string::npos) continue;
        handle_line(client, conn, line);
    }
    conn->close();
    // End-of-stream: the peer is gone and nothing can deliver its
    // answers. Cancel whatever it still has queued or in flight so
    // pool workers stop burning on undeliverable work.
    drop_client(client, exec::CancelCause::Disconnected);
}

// ----------------------------------------------------------- cancellation

exec::CancelToken Server::client_token(int client) {
    std::lock_guard lock(cancel_m_);
    auto it = client_tokens_.find(client);
    if (it == client_tokens_.end()) {
        it = client_tokens_.emplace(client, cancel_root_.child()).first;
    }
    return it->second;
}

exec::CancelToken Server::make_request_token(int client, const Request& req) {
    exec::CancelToken parent =
        client >= 0 ? client_token(client) : cancel_root_;
    exec::CancelToken token = req.deadline_ms > 0.0
                                  ? parent.child_with_deadline_ms(req.deadline_ms)
                                  : parent.child();
    std::lock_guard lock(cancel_m_);
    active_[{client, req.id}] = token;
    return token;
}

void Server::finish_request(int client, std::int64_t id) {
    std::lock_guard lock(cancel_m_);
    active_.erase({client, id});
}

bool Server::cancel_request(int requester, std::int64_t id) {
    exec::CancelToken token;
    {
        std::lock_guard lock(cancel_m_);
        const auto it = active_.find({requester, id});
        if (it != active_.end()) {
            token = it->second;
        } else if (requester < 0) {
            for (const auto& [key, t] : active_) {
                if (key.second == id) {
                    token = t;
                    break;
                }
            }
        }
    }
    if (!token.valid()) return false;
    token.cancel(exec::CancelCause::Cancelled);
    return true;
}

void Server::drop_client(int client, exec::CancelCause cause) {
    exec::CancelToken token;
    {
        std::lock_guard lock(cancel_m_);
        const auto it = client_tokens_.find(client);
        if (it != client_tokens_.end()) {
            token = it->second;
            client_tokens_.erase(it);
        }
        // Registry entries die with the client; running jobs keep their
        // own token copies, which observe the parent's cause below.
        active_.erase(
            active_.lower_bound(
                {client, std::numeric_limits<std::int64_t>::min()}),
            active_.upper_bound(
                {client, std::numeric_limits<std::int64_t>::max()}));
    }
    if (token.valid()) token.cancel(cause);
}

void Server::handle_line(int client, const std::shared_ptr<Connection>& conn,
                         const std::string& line) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    exec::MetricsRegistry::global().counter("service.requests").add();
    const auto reject = [&](std::int64_t id, ErrorCode code,
                            const std::string& message) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        exec::MetricsRegistry::global().counter("service.errors").add();
        conn->write_line(make_error_response(id, code, message));
    };

    Request req;
    try {
        req = parse_request(line);
    } catch (const ServiceError& e) {
        reject(salvage_id(line), e.code(), e.what());
        return;
    }

    const auto* spec = processor_.find(req.method);
    if (!spec) {
        reject(req.id, ErrorCode::UnknownMethod,
               "unknown method: " + req.method);
        return;
    }

    RequestContext ctx;
    ctx.client = client;
    ctx.request_id = req.id;
    // In-process requests have no peer to push subscription events to.
    if (client != kInlineClient) ctx.connection = conn;

    if (spec->weight == WeightClass::Light) {
        conn->write_line(execute(*spec, req, ctx));
        // A shutdown request must see its own response before the
        // transport goes down; the transport close happens here, after
        // the write, not inside the handler.
        if (req.method == "shutdown") {
            std::lock_guard lock(serve_m_);
            if (transport_) transport_->shutdown();
        }
        return;
    }

    int session = FairScheduler::kNoSession;
    if (spec->weight == WeightClass::PerSession) {
        try {
            ctx.session = &resolve_session(req.params);
        } catch (const ServiceError& e) {
            reject(req.id, e.code(), e.what());
            return;
        }
        session = ctx.session->id();
    }
    if (ctx.client == kInlineClient) ctx.client = inline_client();

    ctx.cancel = make_request_token(ctx.client, req);
    const auto verdict = scheduler_->submit(
        ctx.client,
        [this, spec, req, ctx, conn]() mutable {
            if (t_discarding) {
                finish_request(ctx.client, req.id);
                errors_.fetch_add(1, std::memory_order_relaxed);
                conn->write_line(make_error_response(
                    req.id, ErrorCode::ShuttingDown,
                    "server is shutting down; request not executed"));
                return;
            }
            // Unregister before the response goes out: a client that has
            // read the answer must see `cancelled: false` for this id,
            // never a stale registry hit on finished work.
            const std::string response = execute(*spec, req, ctx);
            finish_request(ctx.client, req.id);
            conn->write_line(response);
            notify_subscribers();
        },
        ctx.cancel, session);
    const auto refuse = [&](ErrorCode code, const char* message) {
        finish_request(ctx.client, req.id);
        errors_.fetch_add(1, std::memory_order_relaxed);
        conn->write_line(make_error_response(req.id, code, message));
    };
    switch (verdict) {
    case FairScheduler::Admit::Ok:
        break;
    case FairScheduler::Admit::ClientSaturated:
        exec::MetricsRegistry::global().counter("service.rejected").add();
        refuse(ErrorCode::Overloaded,
               "client request limit reached; retry after a response");
        break;
    case FairScheduler::Admit::QueueFull:
        exec::MetricsRegistry::global().counter("service.rejected").add();
        refuse(ErrorCode::Overloaded, "server queue is full; retry later");
        break;
    case FairScheduler::Admit::Draining:
        refuse(ErrorCode::ShuttingDown,
               "server is draining; no new work admitted");
        break;
    case FairScheduler::Admit::DeadlineUnmet:
        refuse(ErrorCode::DeadlineUnmet,
               "deadline_ms already expired at admission; request shed");
        break;
    }
}

int Server::inline_client() {
    // Registered on first use, not at construction, so the client ids
    // `hello` reports to wire clients do not depend on whether anyone
    // ever called handle_inline.
    std::call_once(inline_client_once_, [this] {
        inline_client_ = scheduler_->add_client(config_.default_client_weight);
    });
    return inline_client_;
}

std::string Server::execute(const CommandProcessor::CommandSpec& spec,
                            const Request& req, RequestContext& ctx) {
    OBS_SPAN("service.request");
    // The request token governs every poll point below the handler —
    // sweep dispatch, optimizer candidates, Newton iterations. No-op
    // (and free) for light methods, whose token is invalid.
    exec::CancelScope cancel_scope(ctx.cancel);
    try {
        const exec::CancelCause queued_cause =
            ctx.cancel.valid() ? ctx.cancel.poll() : exec::CancelCause::None;
        if (queued_cause != exec::CancelCause::None &&
            queued_cause != exec::CancelCause::Shutdown) {
            // Fired while queued (deadline lapsed, cancel method,
            // disconnect): answer without starting the heavy work.
            // Shutdown is excluded: mode-now discards *queued* jobs via
            // the drain path, and a job the scheduler already dispatched
            // is contracted to begin — its own poll points unwind it.
            exec::MetricsRegistry::global().counter("service.shed.queued").add();
            throw exec::CancelledError(queued_cause);
        }
        Json result = spec.handler(req.params, ctx);
        responses_.fetch_add(1, std::memory_order_relaxed);
        return make_ok_response(req.id, std::move(result));
    } catch (const exec::CancelledError& e) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        exec::MetricsRegistry::global().counter("service.cancelled").add();
        if (e.cause == exec::CancelCause::DeadlineExceeded) {
            return make_error_response(
                req.id, ErrorCode::DeadlineUnmet,
                "deadline_ms exceeded mid-computation; completed work "
                "is checkpointed where a spool dir is configured");
        }
        return make_error_response(
            req.id, ErrorCode::Cancelled,
            std::string("request cancelled (") + exec::to_string(e.cause) +
                "); completed work is checkpointed where a spool dir "
                "is configured");
    } catch (const ServiceError& e) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        exec::MetricsRegistry::global().counter("service.errors").add();
        return make_error_response(req.id, e.code(), e.what());
    } catch (const std::exception& e) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        exec::MetricsRegistry::global().counter("service.errors").add();
        return make_error_response(req.id, ErrorCode::Internal, e.what());
    } catch (...) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        exec::MetricsRegistry::global().counter("service.errors").add();
        return make_error_response(req.id, ErrorCode::Internal,
                                   "handler failed");
    }
}

std::string Server::handle_inline(const std::string& line) {
    const auto reply = std::make_shared<InlineReply>();
    handle_line(kInlineClient, reply, line);
    return reply->wait();
}

// ----------------------------------------------------------- subscriptions

void Server::add_subscription(const std::shared_ptr<Connection>& conn,
                              std::string path, QueryOptions opt) {
    std::lock_guard lock(sub_m_);
    subscriptions_.push_back(
        Subscription{conn, std::move(path), std::move(opt), std::string()});
}

void Server::notify_subscribers() {
    std::lock_guard lock(sub_m_);
    auto it = subscriptions_.begin();
    while (it != subscriptions_.end()) {
        auto conn = it->conn.lock();
        if (!conn) {
            it = subscriptions_.erase(it);
            continue;
        }
        auto res = query_model(root_, it->path, it->opt);
        if (!res.ok) {
            ++it;
            continue;
        }
        std::string rendered = res.value.dump();
        if (rendered == it->last_rendered) {
            ++it;
            continue;
        }
        const auto seq = event_seq_.fetch_add(1, std::memory_order_relaxed);
        if (!conn->write_line(make_event(seq, it->path, std::move(res.value)))) {
            it = subscriptions_.erase(it);
            continue;
        }
        it->last_rendered = std::move(rendered);
        ++it;
    }
}

// ------------------------------------------------------------- dispatch

Session& Server::resolve_session(const Json& params) {
    const Json& which = params.at("session");
    if (which.is_null()) {
        if (sessions_.empty()) {
            throw ServiceError(ErrorCode::UnknownSession, "no sessions");
        }
        return *sessions_[0];
    }
    if (which.is_number()) {
        const int i = which.as_int(-1);
        if (i >= 0 && static_cast<std::size_t>(i) < sessions_.size()) {
            return *sessions_[static_cast<std::size_t>(i)];
        }
    } else if (which.is_string()) {
        for (auto& s : sessions_) {
            if (s->name() == which.as_string()) return *s;
        }
    } else {
        throw ServiceError(ErrorCode::BadParams,
                           "param 'session' must be an index or a name");
    }
    throw ServiceError(ErrorCode::UnknownSession,
                       "unknown session: " + which.dump());
}

void Server::register_builtin_methods() {
    // ---- light methods: answered inline on the reader thread ----------
    processor_.register_method(
        "ping", WeightClass::Light,
        [](const Json&, RequestContext&) -> Json {
            Json j = Json::object();
            j.set("pong", true);
            return j;
        });

    processor_.register_method(
        "hello", WeightClass::Light,
        [this](const Json& params, RequestContext& ctx) -> Json {
            int weight = config_.default_client_weight;
            if (!params.at("weight").is_null()) {
                weight = std::clamp(require_int(params, "weight", weight), 1, 64);
                if (ctx.client >= 0) {
                    scheduler_->set_weight(ctx.client, weight);
                }
            }
            Json j = Json::object();
            j.set("server", "stsense-telemetry");
            j.set("version", 1);
            j.set("client", ctx.client);
            j.set("weight", weight);
            j.set("sessions", sessions_.size());
            return j;
        });

    processor_.register_method(
        "sessions", WeightClass::Light,
        [this](const Json&, RequestContext&) -> Json {
            Json arr = Json::array();
            for (const auto& s : sessions_) {
                Json j = Json::object();
                j.set("id", s->id());
                j.set("name", s->name());
                j.set("sites", s->site_count());
                j.set("requests", s->requests());
                arr.push_back(std::move(j));
            }
            return arr;
        });

    processor_.register_method(
        "query", WeightClass::Light,
        [this](const Json& params, RequestContext&) -> Json {
            QueryOptions opt;
            opt.depth = std::clamp(require_int(params, "depth", opt.depth), 0, 64);
            opt.filter = require_string(params, "filter");
            const std::string path = require_string(params, "path");
            auto res = query_model(root_, path, opt);
            if (!res.ok) {
                throw ServiceError(ErrorCode::UnknownPath, res.error);
            }
            Json j = Json::object();
            j.set("path", path);
            j.set("value", std::move(res.value));
            return j;
        });

    processor_.register_method(
        "subscribe", WeightClass::Light,
        [this](const Json& params, RequestContext& ctx) -> Json {
            if (!ctx.connection) {
                throw ServiceError(ErrorCode::BadParams,
                                   "subscribe requires a connection");
            }
            QueryOptions opt;
            opt.depth = std::clamp(require_int(params, "depth", opt.depth), 0, 64);
            opt.filter = require_string(params, "filter");
            const std::string path = require_string(params, "path");
            auto res = query_model(root_, path, opt);
            if (!res.ok) {
                throw ServiceError(ErrorCode::UnknownPath, res.error);
            }
            add_subscription(ctx.connection, path, opt);
            Json j = Json::object();
            j.set("subscribed", path);
            j.set("value", std::move(res.value));
            return j;
        });

    processor_.register_method(
        "help", WeightClass::Light,
        [this](const Json&, RequestContext&) -> Json {
            Json arr = Json::array();
            for (const auto& name : processor_.methods()) arr.push_back(name);
            Json j = Json::object();
            j.set("methods", std::move(arr));
            return j;
        });

    // Cancels one of the caller's in-flight heavy requests by id. Light
    // on purpose: it must land while every pool worker is busy with the
    // very work being cancelled. `cancelled: false` means the id was
    // not in flight — already answered, or never admitted; racing a
    // completion is normal, not an error.
    processor_.register_method(
        "cancel", WeightClass::Light,
        [this](const Json& params, RequestContext& ctx) -> Json {
            if (!params.at("request").is_number()) {
                throw ServiceError(
                    ErrorCode::BadParams,
                    "param 'request' must be the id of the request to cancel");
            }
            const std::int64_t id = params.at("request").as_int64();
            const bool hit = cancel_request(ctx.client, id);
            Json j = Json::object();
            j.set("request", id);
            j.set("cancelled", hit);
            return j;
        });

    processor_.register_method(
        "shutdown", WeightClass::Light,
        [this](const Json& params, RequestContext&) -> Json {
            const std::string mode = require_string(params, "mode", "drain");
            if (mode != "drain" && mode != "now") {
                throw ServiceError(ErrorCode::BadParams,
                                   "param 'mode' must be \"drain\" or \"now\"");
            }
            drain(/*discard_queued=*/mode == "now");
            Json j = Json::object();
            j.set("draining", true);
            j.set("mode", mode);
            j.set("completed", scheduler_->completed());
            return j;
        });

    // ---- per-session methods: admission resolves the session, and the
    // scheduler runs one job per session at a time ----------------------
    using SessionMethod = Json (Session::*)(const Json&);
    const std::pair<const char*, SessionMethod> session_methods[] = {
        {"measure_site", &Session::measure_site},
        {"thermal_map", &Session::thermal_map},
        {"sweep", &Session::sweep},
        {"optimize", &Session::optimize},
        {"dtm_run", &Session::dtm_run},
        {"population_run", &Session::population_run},
    };
    for (const auto& [name, method] : session_methods) {
        processor_.register_method(
            name, WeightClass::PerSession,
            [method](const Json& params, RequestContext& ctx) -> Json {
                return (ctx.session->*method)(params);
            });
    }

    // Deterministic load generator: occupies one scheduler slot for a
    // fixed wall time. The saturation tests use it to make admission
    // rejection reproducible; it does no session work. The sleep is
    // sliced so a deadline or cancel lands within one slice, not after
    // the full burn — burn is the demo's deterministic "slow request".
    processor_.register_method(
        "burn", WeightClass::Heavy,
        [](const Json& params, RequestContext&) -> Json {
            const int ms = std::clamp(params.at("ms").as_int(10), 0, 2000);
            const auto& token = exec::CancelScope::current();
            const auto end = std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(ms);
            while (std::chrono::steady_clock::now() < end) {
                if (token.valid()) token.check();
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
            Json j = Json::object();
            j.set("burned_ms", ms);
            return j;
        });
}

// ----------------------------------------------------------- object model

ModelPtr Server::build_model() const {
    const Server* self = this;

    auto service_node = [self]() -> ModelPtr {
        return object({
            {"name", [] { return fixed_leaf(Json("stsense-telemetry")); }},
            {"version", [] { return fixed_leaf(Json(1)); }},
            {"draining", [self] {
                 return leaf([self] {
                     return Json(self->draining_.load(std::memory_order_relaxed));
                 });
             }},
            {"requests", [self] {
                 return leaf([self] {
                     return Json(self->requests_.load(std::memory_order_relaxed));
                 });
             }},
            {"responses", [self] {
                 return leaf([self] {
                     return Json(
                         self->responses_.load(std::memory_order_relaxed));
                 });
             }},
            {"errors", [self] {
                 return leaf([self] {
                     return Json(self->errors_.load(std::memory_order_relaxed));
                 });
             }},
            {"spool_dir",
             [self] { return fixed_leaf(Json(self->config_.spool_dir)); }},
        });
    };

    auto pool_node = [self]() -> ModelPtr {
        return object({
            {"size", [self] { return fixed_leaf(Json(self->pool_->size())); }},
            {"queue_depth", [self] {
                 return leaf([self] { return Json(self->pool_->queue_depth()); });
             }},
            {"inflight", [self] {
                 return leaf([self] { return Json(self->pool_->inflight()); });
             }},
            {"tasks_executed", [self] {
                 return leaf(
                     [self] { return Json(self->pool_->tasks_executed()); });
             }},
            {"tasks_stolen", [self] {
                 return leaf(
                     [self] { return Json(self->pool_->tasks_stolen()); });
             }},
        });
    };

    auto cache_node = [self]() -> ModelPtr {
        auto stat = [self](auto read) {
            return leaf([self, read] { return read(self->cache_->stats()); });
        };
        return object({
            {"entries", [stat] {
                 return stat([](const exec::ResultCache::Stats& s) {
                     return Json(s.entries);
                 });
             }},
            {"bytes", [stat] {
                 return stat([](const exec::ResultCache::Stats& s) {
                     return Json(s.bytes);
                 });
             }},
            {"hits", [stat] {
                 return stat([](const exec::ResultCache::Stats& s) {
                     return Json(s.hits);
                 });
             }},
            {"misses", [stat] {
                 return stat([](const exec::ResultCache::Stats& s) {
                     return Json(s.misses);
                 });
             }},
            {"evictions", [stat] {
                 return stat([](const exec::ResultCache::Stats& s) {
                     return Json(s.evictions);
                 });
             }},
            {"hit_rate", [stat] {
                 return stat([](const exec::ResultCache::Stats& s) {
                     return Json(s.hit_rate());
                 });
             }},
            {"byte_budget", [self] {
                 return fixed_leaf(Json(self->cache_->byte_budget()));
             }},
        });
    };

    auto scheduler_node = [self]() -> ModelPtr {
        return object({
            {"queued", [self] {
                 return leaf([self] { return Json(self->scheduler_->queued()); });
             }},
            {"executing", [self] {
                 return leaf(
                     [self] { return Json(self->scheduler_->executing()); });
             }},
            {"completed", [self] {
                 return leaf(
                     [self] { return Json(self->scheduler_->completed()); });
             }},
            {"rejected", [self] {
                 return leaf(
                     [self] { return Json(self->scheduler_->rejected()); });
             }},
        });
    };

    const std::size_t n_sessions = sessions_.size();
    auto sessions_node = [self, n_sessions]() -> ModelPtr {
        return array([n_sessions] { return n_sessions; },
                     [self](std::size_t i) -> ModelPtr {
                         return self->sessions_[i]->model();
                     });
    };

    // Request-lifecycle counters, read live from the global registry so
    // `query path:"metrics"` shows cancellation and shedding activity.
    // Keys are the registry names verbatim; dots keep them out of the
    // path grammar, so this node is read whole, never element-wise.
    auto metrics_node = []() -> ModelPtr {
        auto count = [](const char* name) {
            return leaf([name] {
                return Json(
                    exec::MetricsRegistry::global().counter(name).value());
            });
        };
        std::vector<std::pair<std::string, ChildFactory>> children;
        for (const char* name :
             {"exec.cancel.fired", "exec.cancel.tasks_skipped",
              "exec.cancel.sweeps", "exec.cancel.optimizes",
              "service.cancelled", "service.shed.deadline",
              "service.shed.queued"}) {
            children.emplace_back(name, [count, name] { return count(name); });
        }
        return object(std::move(children));
    };

    return object({
        {"service", service_node},
        {"pool", pool_node},
        {"cache", cache_node},
        {"scheduler", scheduler_node},
        {"metrics", metrics_node},
        {"sessions", sessions_node},
    });
}

} // namespace stsense::service
