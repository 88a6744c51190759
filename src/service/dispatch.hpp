// service::CommandProcessor — the method registry of the telemetry
// service (the RepRapFirmware GCodeBuffer/command-table idiom, JSON
// flavored): every wire method is one registered entry naming its
// handler and its *weight class*.
//
// Light methods (query, ping, sessions, subscribe, shutdown...) execute
// inline on the connection's reader thread — they only read atomics or
// take short state locks, so they stay responsive even when every pool
// worker is busy with sweeps. Heavy methods are submitted through the
// FairScheduler and answer out of order; the dispatcher is what turns
// an admission rejection into a typed Overloaded/ShuttingDown response
// instead of a hang. Per-session methods (measure_site, thermal_map,
// sweep, optimize, dtm_run, population_run) are heavy methods whose
// session is resolved at admission, so the scheduler can run one job
// per session at a time.
//
// The registry itself is deliberately dumb — name -> {weight, handler} —
// so the server composes it from lambdas over its own state (e.g. the
// deterministic `burn` load generator, heavy but sessionless).
#pragma once

#include "exec/cancel.hpp"
#include "service/json.hpp"
#include "service/transport.hpp"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace stsense::service {

class Session;

/// Where and how a method runs.
enum class WeightClass {
    Light,      ///< Answered inline on the connection's reader thread.
    Heavy,      ///< Admitted through the FairScheduler; runs on the pool.
    PerSession, ///< Heavy, on the session params["session"] names.
};

/// Per-request data the server hands a handler.
struct RequestContext {
    int client = -1;           ///< FairScheduler client id of the connection.
    std::int64_t request_id = 0;
    /// The requesting connection — subscribe-style handlers register it
    /// for pushes. May be null for in-process (loopback-free) dispatch.
    std::shared_ptr<Connection> connection;
    /// Per-request cancel token (child of the client's token, deadline-
    /// armed when the request carried deadline_ms). The dispatcher
    /// installs it as the ambient CancelScope around the handler, so
    /// every poll point below — sweep dispatch, optimizer candidates,
    /// Newton iterations — observes a fired cancel or expired deadline.
    /// Invalid (default) for light methods: polling stays free.
    exec::CancelToken cancel;
    /// The session a PerSession method runs on, resolved at admission;
    /// null for every other method.
    Session* session = nullptr;
};

using Handler = std::function<Json(const Json& params, RequestContext& ctx)>;

class CommandProcessor {
public:
    struct CommandSpec {
        WeightClass weight = WeightClass::Light;
        Handler handler;
    };

    /// Registers (or replaces) a method.
    void register_method(const std::string& name, WeightClass weight,
                         Handler handler);

    /// nullptr when the method is unknown.
    const CommandSpec* find(const std::string& name) const;

    /// Registered method names, sorted (the `help` payload).
    std::vector<std::string> methods() const;

private:
    std::map<std::string, CommandSpec> commands_;
};

} // namespace stsense::service
