// dtm::DtmFleet — the supervised closed-loop DTM subsystem.
//
// Where ClosedLoopSim (closed_loop.hpp) is the paper's minimal
// demonstration — one sensor, one hysteretic throttle — the fleet is
// the production shape: the die is partitioned into independently
// throttleable *regions* (floorplan block groups), each driven by a PID
// controller that was autotuned against the RC thermal grid itself and
// each watched by a ControllerSupervisor that latches a safe state the
// moment its sensors, its actuator, or the plant stop behaving.
//
// The loop, once per control period:
//
//     transient field ──> ThermalMonitor::scan_field (degraded readout)
//          ^                     │ per-site confidence -> trust weight
//          │                     v
//     power raster <── u ── PID + feedforward ──> ControllerSupervisor
//                            ^        │                  │
//                            └── model predictor <───────┘ (envelope)
//
// * Readings flow through the PR 4 resilient readout: quorum votes,
//   watchdogs, drift rejection, health ladder. Site confidence maps to
//   a trust weight; the process value handed to the PID is
//   trust-blended between measurement and model prediction, so a
//   degraded region leans on the model instead of a lying sensor.
// * The model predictor is a per-region FOPDT response (autotuned)
//   around a MIMO static-gain matrix identified from steady-state grid
//   solves — cross-region heating is first-class, not a disturbance.
// * Supervision is an observer: in a fault-free run the supervisor
//   never modifies the loop, and a supervised run is bitwise identical
//   to an unsupervised one. Only a latched FaultedSafe region is forced
//   to the throttle floor (plus neighbor derating); recovery probes ride
//   the supervisor's exponential backoff.
// * Chaos: the exec::FaultInjector rungs ActuatorStuck / RegionKill
//   (plus the PR 4 sensor rungs StuckOscillator / DriftSite / Point)
//   hit this loop deterministically per (seed, region).
#pragma once

#include "dtm/autotune.hpp"
#include "dtm/pid.hpp"
#include "dtm/supervisor.hpp"
#include "sensor/monitor.hpp"
#include "util/expected.hpp"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace stsense::dtm {

/// One independently throttleable region: a set of floorplan blocks
/// whose power scales with the region's power factor, observed by a set
/// of monitor sites.
struct RegionSpec {
    std::string name;
    std::vector<std::size_t> block_indices; ///< Into Floorplan::blocks().
    std::vector<std::size_t> site_indices;  ///< Into ThermalMonitor::sites().
};

/// Piecewise-constant per-region activity trace: the workload power map
/// the feedforward path anticipates. activity scales the region's block
/// power multiplicatively (1 = the floorplan's nominal power).
struct WorkloadPhase {
    double duration_s = 0.0;
    std::vector<double> activity; ///< Per region; missing entries = 1.
};

struct WorkloadTrace {
    std::vector<WorkloadPhase> phases;

    /// Activity of `region` at time `t_s`; 1.0 for an empty trace, the
    /// last phase's value past the end of the trace.
    double activity_at(double t_s, std::size_t region) const;
};

/// Fluent fleet configuration, in the RuntimeOptions builder style: set
/// what you need, chain, and let try_validate()/validate() check the
/// whole surface once.
class ControlOptions {
public:
    ControlOptions() = default;

    // ---- fluent knobs ---------------------------------------------------

    /// Regulation setpoint for every region [degC].
    ControlOptions& target(double c) { target_c_ = c; return *this; }
    /// Thermal trip line [degC]; the chaos invariant is measured against
    /// trip + margin, and the safe state exists to respect it.
    ControlOptions& trip(double c) { trip_c_ = c; return *this; }
    /// Control (sensor sampling) period [s].
    ControlOptions& control_dt(double s) { control_dt_s_ = s; return *this; }
    /// Inner thermal integration step [s]; must divide control_dt.
    ControlOptions& sim_dt(double s) { sim_dt_s_ = s; return *this; }
    /// Simulated run length [s].
    ControlOptions& duration(double s) { duration_s_ = s; return *this; }
    /// Deepest throttle: the safe-state power factor and the PID's
    /// output floor.
    ControlOptions& throttle_floor(double u) { u_floor_ = u; return *this; }
    /// SIMC closed-loop time constant [s] (smaller = more aggressive).
    ControlOptions& tau_c(double s) { tau_c_s_ = s; return *this; }
    /// Identification step magnitude (throttle dip during autotune).
    ControlOptions& tune_step(double du) { tune_step_ = du; return *this; }
    /// Identification transient horizon [s].
    ControlOptions& tune_horizon(double s) { tune_horizon_s_ = s; return *this; }
    /// Fault supervision on/off. Off = pure PID fleet (the bitwise
    /// reference the parity tests compare against).
    ControlOptions& supervised(bool on) { supervised_ = on; return *this; }
    /// Supervisor detector/ladder policy.
    ControlOptions& supervisor(SupervisorConfig cfg) {
        supervisor_ = cfg;
        return *this;
    }
    /// Power-factor cap applied to regions adjacent to a FaultedSafe
    /// region whose fault leaves it possibly hot (StuckActuator or
    /// Excursion); 1 disables derating. Sensor-loss regions sit at the
    /// throttle floor and do not derate their neighbors.
    ControlOptions& neighbor_derate(double cap) {
        neighbor_derate_ = cap;
        return *this;
    }
    /// Regions whose block rectangles come within this gap [m] are
    /// adjacent for derating purposes.
    ControlOptions& adjacency_gap(double m) { adjacency_gap_m_ = m; return *this; }
    /// Settling band [degC] for the settling-time statistic.
    ControlOptions& settle_band(double c) { settle_band_c_ = c; return *this; }

    // ---- validation -----------------------------------------------------

    /// Non-throwing whole-surface check per the unified error contract;
    /// every violation is ErrorKind::OutOfRange naming the knob. A NaN or
    /// infinite value is a violation, and so is a run, inner or tune
    /// step count that does not fit an int.
    Expected<bool> try_validate() const;
    /// Throwing wrapper (std::invalid_argument), matching validate(const
    /// ThrottlePolicy&) and RuntimeOptions::validate().
    const ControlOptions& validate() const;

    // ---- introspection --------------------------------------------------

    double target_c() const { return target_c_; }
    double trip_c() const { return trip_c_; }
    double control_dt_s() const { return control_dt_s_; }
    double sim_dt_s() const { return sim_dt_s_; }
    double duration_s() const { return duration_s_; }
    double throttle_floor_u() const { return u_floor_; }
    double tau_c_s() const { return tau_c_s_; }
    double tune_step_u() const { return tune_step_; }
    double tune_horizon_s() const { return tune_horizon_s_; }
    bool supervised_enabled() const { return supervised_; }
    const SupervisorConfig& supervisor_config() const { return supervisor_; }
    double neighbor_derate_cap() const { return neighbor_derate_; }
    double adjacency_gap_m() const { return adjacency_gap_m_; }
    double settle_band_c() const { return settle_band_c_; }

private:
    double target_c_ = 95.0;
    double trip_c_ = 110.0;
    double control_dt_s_ = 2e-2;
    double sim_dt_s_ = 5e-3;
    double duration_s_ = 3.0;
    double u_floor_ = 0.1;
    double tau_c_s_ = 0.06;
    double tune_step_ = 0.5;
    double tune_horizon_s_ = 1.0;
    bool supervised_ = true;
    SupervisorConfig supervisor_;
    double neighbor_derate_ = 0.25;
    double adjacency_gap_m_ = 1.5e-3;
    double settle_band_c_ = 2.0;
};

/// One control step of the whole fleet, recorded for tests, benches,
/// and telemetry. Vectors are indexed by region.
struct FleetStep {
    double t_s = 0.0;
    double die_peak_c = 0.0;          ///< True grid peak after this step.
    std::vector<double> u;            ///< Commanded power factor.
    std::vector<double> u_achieved;   ///< After actuator faults.
    std::vector<double> true_c;       ///< True region temperature (max cell).
    std::vector<double> measured_c;   ///< Region reading (NaN = no reading).
    std::vector<double> predicted_c;  ///< Model envelope center.
    std::vector<double> trust;        ///< Reading-trust weight.
    std::vector<ControlState> state;  ///< Supervisor state after this step.
};

/// Final per-region summary.
struct RegionTelemetry {
    std::string name;
    ControlState state = ControlState::Tuning;
    ControlFault last_fault = ControlFault::None;
    double u = 1.0;
    double true_c = 0.0;
    double peak_true_c = 0.0;      ///< Max true region temp over the run.
    FopdtModel model;              ///< Identified plant.
    PidGains gains;                ///< SIMC gains in force.
    SupervisorRecord supervisor;   ///< Ladder counters.
};

/// Aggregate result of one fleet run.
struct FleetResult {
    std::vector<FleetStep> steps;
    std::vector<RegionTelemetry> regions;
    double die_peak_c = 0.0;       ///< Max true grid peak over the run.
    /// Earliest time after which every region's true temperature stays
    /// within settle_band of its end-of-run value; -1 = never settled.
    double settling_time_s = -1.0;
    /// Max positive (true - target) excursion over regions and time.
    double max_overshoot_c = 0.0;
    std::uint64_t fault_latches = 0;  ///< Sum over regions.
    std::uint64_t tune_solves = 0;    ///< Grid solves spent autotuning.
};

class DtmFleet {
public:
    /// The monitor is built internally from (tech, ring_config,
    /// floorplan, sites, monitor_config) so the fleet and the readout
    /// share one grid. Region specs must index real blocks/sites;
    /// options are validated up front (std::invalid_argument).
    DtmFleet(const phys::Technology& tech, ring::RingConfig ring_config,
             thermal::Floorplan floorplan, std::vector<RegionSpec> regions,
             std::vector<sensor::SensorSite> sites,
             sensor::MonitorConfig monitor_config, ControlOptions options);

    /// Identifies the plant: R+1 steady-state solves for the static
    /// gain matrix, one throttle-step transient per region for the
    /// FOPDT fit, SIMC gains from both. Regions whose fit degenerates
    /// are latched FaultedSafe (TuneFailed) under supervision. Called
    /// implicitly by the first run(); idempotent.
    void tune();
    bool tuned() const { return tuned_; }

    /// Runs the closed loop from a uniform ambient start. Repeatable:
    /// controllers, supervisors, and the predictor are reset per run
    /// (tuning is reused).
    FleetResult run(const WorkloadTrace& trace = {});

    std::size_t region_count() const { return regions_.size(); }
    const RegionSpec& region(std::size_t r) const { return regions_[r]; }
    const ControllerSupervisor& supervisor(std::size_t r) const {
        return supervisors_[r];
    }
    const FopdtModel& model(std::size_t r) const { return models_[r]; }
    const PidGains& gains(std::size_t r) const { return gains_[r]; }
    const sensor::ThermalMonitor& monitor() const { return monitor_; }
    const ControlOptions& options() const { return options_; }
    /// Static gain matrix entry dT_r/du_q [degC per power factor].
    double static_gain(std::size_t r, std::size_t q) const {
        return gain_matrix_[r * regions_.size() + q];
    }

private:
    /// Per-cell power [W] for the given per-region power scales
    /// (activity x throttle); blocks outside every region at nominal.
    std::vector<double> raster(const std::vector<double>& scale) const;
    /// Model region temperature: median of the field sampled at the
    /// region's sites (same definition the measurement path aggregates
    /// to, so predictor and sensor speak the same variable).
    double region_temp(const std::vector<double>& field,
                       std::size_t r) const;
    /// True region temperature: max cell temperature over the region's
    /// blocks (what the envelope invariant is asserted against).
    double region_true_peak(const std::vector<double>& field,
                            std::size_t r) const;

    thermal::Floorplan floorplan_;
    std::vector<RegionSpec> regions_;
    ControlOptions options_;
    sensor::ThermalMonitor monitor_;

    std::vector<ControllerSupervisor> supervisors_;
    std::vector<PidController> pids_;
    std::vector<FopdtModel> models_;
    std::vector<PidGains> gains_;

    // ---- identification products (filled by tune()) ---------------------
    bool tuned_ = false;
    std::uint64_t tune_solves_ = 0;
    std::vector<double> gain_matrix_;   ///< R x R, dT_r/du_q.
    std::vector<double> t_full_;        ///< Region temps at u = 1, act = 1.
    std::vector<std::vector<std::size_t>> region_cells_;
    std::vector<std::vector<std::size_t>> adjacency_; ///< Derate targets.
    /// Per-region fixed raster of its own blocks at scale 1 (cache).
    std::vector<std::vector<double>> region_raster_;
    std::vector<double> base_raster_;   ///< Blocks outside every region.
};

/// Region + site layout derived from a floorplan: one region per block
/// (named after it) with one sensor site at the block center, plus a
/// guard_nx x guard_ny uniform grid of unassigned "guard" sites. Guard
/// sites give the monitor's spatial drift test the fleet it needs (>= 5
/// voted sites) and keep interpolation honest when a region's own
/// sensors die.
struct FleetLayout {
    std::vector<RegionSpec> regions;
    std::vector<sensor::SensorSite> sites;
};

FleetLayout fleet_layout_from_floorplan(const thermal::Floorplan& floorplan,
                                        int guard_nx = 3, int guard_ny = 3);

} // namespace stsense::dtm
