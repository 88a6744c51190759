// service::Session — one die under management.
//
// A session is the unit of multi-tenancy of the telemetry service: it
// owns a die's technology card, ring configuration, floorplan, sensor
// placement, and — crucially — the *stateful* runtime pieces that must
// persist across requests: the ThermalMonitor with its
// SiteHealthSupervisor ledger (quarantine, backoff, recovery walk the
// epochs forward scan over scan), built from SessionSpec::monitor, and
// the RuntimeOptions that project the sweep and optimizer runtimes.
//
// The server's scheduler runs one job per session at a time (the
// supervisor is a single ledger; two concurrent scans would race it),
// so the running job owns the monitor and the DTM fleet without a lock;
// jobs for different sessions run concurrently on the server's shared
// pool. The session publishes a lazily-evaluated object model subtree
// (sessions[i].sites[j].health, .last_map, .dtm, .population, .config)
// from state a job publishes under a short state lock — queries never
// wait for a running job.
//
// Determinism contract, inherited from the layers below: the same
// request against the same session state yields bitwise the same result
// regardless of client interleaving, thread count, or a kill/resume
// cycle through the per-request checkpoint (spool_dir).
#pragma once

#include "api/runtime_options.hpp"
#include "sensor/monitor.hpp"
#include "service/object_model.hpp"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace stsense::dtm {
class DtmFleet;
}

namespace stsense::service {

/// Everything needed to stand up one die session. The defaults are the
/// paper configuration (5-inverter ring on the demo floorplan, 3x3
/// sensor sites) — examples/thermal_mapping.cpp is the style reference.
struct SessionSpec {
    std::string name;
    phys::Technology tech = phys::cmos350();
    ring::RingConfig ring =
        ring::RingConfig::uniform(cells::CellKind::Inv, 5, 2.75);
    thermal::Floorplan floorplan = thermal::demo_floorplan();
    int sites_nx = 3;
    int sites_ny = 3;
    /// The session's monitor (grid resolution, gate, calibration
    /// points, health supervision, ring redundancy). dtm_run's fleet
    /// monitor starts from it too, at the request's grid.
    sensor::MonitorConfig monitor;
    /// The execution knobs: fast kernel, fault policy, cache, checkpoint
    /// cadence. The session projects this onto SweepRuntime /
    /// OptimizerRuntime, overriding the pool and cache with the
    /// server's shared ones.
    stsense::RuntimeOptions runtime;
};

class Session {
public:
    /// `pool`/`cache` are the server's shared runtime; `spool_dir`
    /// (empty = no checkpointing) is where per-request sweep/optimizer
    /// checkpoints live so a restarted server can resume them.
    Session(int id, SessionSpec spec, exec::ThreadPool* pool,
            exec::ResultCache* cache, std::string spool_dir);
    ~Session(); // out of line: dtm::DtmFleet is forward-declared here

    int id() const { return id_; }
    const std::string& name() const { return name_; }
    std::size_t site_count() const { return monitor_.sites().size(); }

    // ---- request handlers: the server runs one at a time ----------------

    /// {"site": index | name, "fresh": bool} -> one SiteReading. Uses
    /// the cached map when available unless fresh is set.
    Json measure_site(const Json& params);

    /// {} -> full thermal map summary (always runs a fresh scan).
    Json thermal_map(const Json& params);

    /// {"t_min_c","t_max_c","points","engine":"analytic"|"spice"}
    /// -> the period/frequency series at full (round-trip) precision.
    /// Checkpointed under spool_dir keyed by the sweep fingerprint, so a
    /// killed request resumes bitwise on re-issue.
    Json sweep(const Json& params);

    /// {"ratio_lo","ratio_hi","points","stages"} -> ranked ratio sweep
    /// (the Fig. 2 optimization axis) with the best point called out.
    Json optimize(const Json& params);

    /// {"supervised","duration_s","target_c","trip_c","grid"} -> one
    /// supervised closed-loop DTM fleet run over this session's die:
    /// autotune (cached across repeat requests with identical params),
    /// run, and report per-region controller/supervisor telemetry. The
    /// fleet owns a private monitor; the session's readout ledger is
    /// untouched. Publishes the outcome for sessions[i].dtm queries.
    Json dtm_run(const Json& params);

    /// {"dice","shard","seed","calibration","horizon_hours",
    ///  "recal_interval_hours","recal_temp_c","yield_limit_c","corner"}
    /// -> one population Monte-Carlo study over this session's die
    /// design: sharded, streaming-statistics, checkpointed under
    /// spool_dir keyed by the population fingerprint (a killed request
    /// resumes bitwise on re-issue). Publishes a live snapshot after
    /// every folded shard for sessions[i].population queries — a second
    /// client can watch dice_done / running quantiles mid-run.
    Json population_run(const Json& params);

    // ---- object model ----------------------------------------------------

    /// The sessions[i] subtree. It reads the session's published state
    /// under the state mutex, never anything a running job owns.
    ModelPtr model() const;

    // ---- introspection ---------------------------------------------------
    std::uint64_t requests() const { return requests_.load(std::memory_order_relaxed); }

private:
    /// Runs a scan and publishes its summary.
    sensor::MapResult scan();
    /// Copies the scan outcome into the query-visible snapshot.
    void publish_map(const sensor::MapResult& map);
    /// Replaces one published Json snapshot under the state mutex.
    void publish(Json& slot, Json value);
    /// A node over a published snapshot, read once, plus its `runs`.
    ModelPtr published_node(const Json& slot,
                            const std::atomic<std::uint64_t>& runs) const;

    static Json reading_json(const sensor::SiteReading& r);

    const int id_;
    const std::string name_;
    SessionSpec spec_;
    exec::ThreadPool* pool_;
    exec::ResultCache* cache_;
    const std::string spool_dir_;

    /// Owned by the running job: the supervisor ledger is one state
    /// machine, and scans must not interleave.
    sensor::ThermalMonitor monitor_;

    /// Lazily built closed-loop DTM fleet, owned by the running job.
    /// Keyed by the request params that shape it: a repeat request with
    /// the same key reuses the tuned fleet (runs reset their own state),
    /// so only the first call per parameter set pays the autotune
    /// solves.
    std::unique_ptr<dtm::DtmFleet> dtm_fleet_;
    std::string dtm_fleet_key_;

    /// Query-visible state, guarded by state_m_ only — object-model
    /// reads never wait on a running job.
    mutable std::mutex state_m_;
    struct SiteSnapshot {
        std::string name;
        double x = 0.0;
        double y = 0.0;
        sensor::SiteState health = sensor::SiteState::Healthy;
        sensor::SiteConfidence confidence = sensor::SiteConfidence::Measured;
        double last_c = 0.0;
        bool has_reading = false;
        std::uint64_t faults_total = 0;
        int strikes = 0;
    };
    std::vector<SiteSnapshot> sites_;
    std::vector<sensor::SiteReading> last_readings_;
    std::optional<Json> last_map_summary_;
    std::uint64_t scans_ = 0;

    /// sessions[i].dtm: the outcome of the most recent dtm_run, and
    /// sessions[i].population: the most recent (or running)
    /// population_run, updated after every folded shard. Each is one
    /// Json value under state_m_, in the shape queries render it; before
    /// the first run every field is null.
    Json dtm_state_;
    Json population_state_;

    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> sweeps_{0};
    std::atomic<std::uint64_t> maps_{0};
    std::atomic<std::uint64_t> measures_{0};
    std::atomic<std::uint64_t> optimizes_{0};
    std::atomic<std::uint64_t> dtm_runs_{0};
    std::atomic<std::uint64_t> population_runs_{0};
};

} // namespace stsense::service
