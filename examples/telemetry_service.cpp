// The resident thermal-telemetry daemon: N die sessions behind a
// newline-delimited JSON protocol, a shared thread pool + result cache,
// weighted fair queuing, and the lazily-evaluated object-model query
// surface (state.sessions[i].sites[j].health, state.pool.queue_depth).
//
//   $ ./examples/telemetry_service --demo            # scripted loopback tour
//   $ ./examples/telemetry_service --socket=/tmp/stsense.sock --sessions=4
//   ... then drive it with ./examples/telemetry_client
#include "stsense.hpp"

#include <iostream>
#include <string>
#include <vector>

using namespace stsense;

namespace {

std::vector<service::SessionSpec> make_sessions(int n) {
    std::vector<service::SessionSpec> specs;
    for (int i = 0; i < n; ++i) {
        service::SessionSpec spec;
        spec.name = "die-" + std::to_string(i);
        // The paper configuration per die: 3x3 sites on the demo
        // floorplan, health supervision on so quarantine/recovery state
        // shows up in the object model.
        spec.monitor.enable_health = true;
        specs.push_back(std::move(spec));
    }
    return specs;
}

/// Scripted in-process tour over the loopback transport — the same
/// protocol stack a socket client exercises, no OS socket needed.
int run_demo(service::Server& server) {
    service::LoopbackTransport loopback;
    server.start(loopback);
    auto conn = loopback.connect();

    const std::vector<std::string> script = {
        R"({"id":1,"method":"hello","params":{"weight":2}})",
        R"({"id":2,"method":"sessions"})",
        R"({"id":3,"method":"thermal_map","params":{"session":0}})",
        R"({"id":4,"method":"measure_site","params":{"session":1,"site":4}})",
        R"({"id":5,"method":"sweep","params":{"t_min_c":-50,"t_max_c":150,"points":9}})",
        R"({"id":6,"method":"query","params":{"path":"pool"}})",
        R"({"id":7,"method":"query","params":{"path":"sessions[0].sites[4]","filter":"*"}})",
        R"({"id":8,"method":"query","params":{"path":"state","depth":1}})",
        R"({"id":9,"method":"query","params":{"path":"cache","filter":"hit*"}})",
        R"({"id":10,"method":"dtm_run","params":{"session":0,"duration_s":0.4,"grid":12}})",
        R"({"id":11,"method":"query","params":{"path":"sessions[0].dtm.regions[0]","filter":"*"}})",
        // Request-lifecycle tour: an already-expired deadline is shed
        // typed (`deadline-unmet`) before any work runs; a deadline that
        // lapses mid-burn unwinds at the next poll point; cancel of an
        // answered id reports cancelled:false (nothing left in flight);
        // the metrics node shows the counters those paths bumped.
        R"({"id":12,"method":"sweep","params":{"points":9},"deadline_ms":0.0001})",
        R"({"id":13,"method":"burn","params":{"ms":500},"deadline_ms":25})",
        R"({"id":14,"method":"cancel","params":{"request":13}})",
        R"({"id":15,"method":"query","params":{"path":"metrics"}})",
        R"({"id":16,"method":"shutdown","params":{"mode":"drain"}})",
    };
    for (const auto& line : script) {
        std::cout << "-> " << line << "\n";
        if (!conn->write_line(line)) break;
        std::string response;
        if (!conn->read_line(response)) break;
        std::cout << "<- " << response << "\n\n";
    }
    server.wait();
    std::cout << "served " << server.requests_total() << " requests, "
              << server.errors_total() << " errors\n";
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const util::Cli cli(argc, argv);
    const int n_sessions = cli.get("sessions", 4);

    service::ServerConfig cfg;
    cfg.threads = cli.get("threads", 0);
    cfg.spool_dir = cli.get("spool", std::string{});
    cfg.limits.max_inflight_per_client = cli.get("max-inflight", 8);
    service::Server server(cfg, make_sessions(n_sessions));

    if (cli.has("demo")) return run_demo(server);

    const std::string socket_path =
        cli.get("socket", std::string("/tmp/stsense-telemetry.sock"));
    try {
        service::UnixSocketTransport transport(socket_path);
        std::cout << "stsense telemetry daemon: " << n_sessions
                  << " session(s), pool of " << server.pool().size()
                  << ", listening on " << socket_path << "\n"
                  << "stop with: ./examples/telemetry_client --socket="
                  << socket_path << " --method=shutdown\n";
        server.serve(transport); // blocks until a shutdown request
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    std::cout << "drained and stopped; served " << server.requests_total()
              << " requests\n";
    return 0;
}
