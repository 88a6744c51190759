// exec::FaultInjector — deterministic fault injection for the runtime.
//
// Robustness claims ("the sweep survives a failed point", "the recovery
// ladder rescues a non-converging solve", "a torn checkpoint resumes")
// are only testable if failures can be produced on demand, and
// only *debuggable* if the same seed produces the same failures every
// run at every thread count. The injector is therefore a pure function:
// whether site S trips at work index i depends only on
// (seed, site, index) via util::Rng::split — never on scheduling,
// wall-clock, or call order.
//
// Sites are the hook points wired through the stack:
//   * NewtonFail — spice::Simulator: the base (undamped) Newton attempt
//     reports non-convergence, forcing the recovery ladder to engage.
//     `newton_fail_rungs` widens the sabotage to the first N ladder
//     rungs, so tests can prove each deeper rung individually.
//   * NanState  — spice::Simulator: a NaN is planted in the converged
//     solution of a sabotaged attempt (caught by the finiteness check).
//   * Point     — ring::temperature_sweep / sensor::ThermalMonitor: the
//     whole unit of work fails with a SimError before evaluation
//     (exercises the per-point FaultPolicy machinery for both engines).
//   * SlowTask  — exec::ThreadPool: the task sleeps `slow_task_us`
//     before running (exercises deadline budgets and stragglers).
//   * StuckOscillator — sensor::ThermalMonitor: the ring's period is
//     stuck at `stuck_period_s` regardless of temperature, a persistent
//     hardware fault (caught by the per-measurement watchdog or the
//     supervisor's stuck-at self-test).
//   * DriftSite — sensor::ThermalMonitor: the ring reads the field
//     `drift_offset_c` degrees off, a persistent calibration-drift
//     fault (caught by the supervisor's spatial MAD outlier test;
//     a NaN offset plants a non-finite readout).
//   * CheckpointTruncate — exec::Checkpoint::flush: the persisted
//     checkpoint is sheared in half (caught by the per-row checksums
//     at resume time).
//   * SweepKill — ring::temperature_sweep: the process "dies" right
//     after completing point i (modelled as an InjectedKill exception),
//     exercising checkpoint/resume at every kill index.
//   * ActuatorStuck — dtm::DtmFleet: the region's power-gating actuator
//     ignores the commanded throttle and applies `stuck_factor` instead,
//     a persistent fault (caught by the controller supervisor's
//     stuck-actuator self-test).
//   * RegionKill — dtm::DtmFleet: every sensor site of the region is
//     reported unreadable before readout, a persistent fault (drives the
//     supervisor's sensor-loss latch).
//   * CancelStorm — exec::ThreadPool: the task's cancel token is fired
//     right before the task body runs, exercising the cooperative
//     cancellation rails (skip-on-dequeue, group error delivery,
//     checkpoint flush-on-cancel) at deterministic task indices.
//   * ShardKill — population::run_population: the process "dies" right
//     after folding shard i into the streaming accumulators (modelled
//     as an InjectedKill exception), exercising shard-granular
//     checkpoint/resume at every boundary.
//
// Installation is process-global and test-scoped: construct a
// FaultInjector::Scope with a Config and every hook consults it until
// the scope dies. No injector installed (the default) costs one relaxed
// atomic load per hook.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace stsense::exec {

/// Thrown by the SweepKill site: stands in for a process kill in tests
/// and benches (a real kill cannot be unwound from; the exception lets
/// one process "die" mid-sweep and then resume from the checkpoint).
struct InjectedKill : std::runtime_error {
    explicit InjectedKill(std::uint64_t index)
        : std::runtime_error("injected kill after work index " +
                             std::to_string(index)),
          index(index) {}
    std::uint64_t index;
};

class FaultInjector {
public:
    /// Each site's value seeds its trip streams (trip() hashes
    /// site << 56), so values are never renumbered; 3 is unused.
    enum class Site : int {
        NewtonFail = 0,
        NanState = 1,
        Point = 2,
        SlowTask = 4,
        StuckOscillator = 5,
        DriftSite = 6,
        CheckpointTruncate = 7,
        SweepKill = 8,
        ActuatorStuck = 9,
        RegionKill = 10,
        CancelStorm = 11,
        ShardKill = 12,
    };

    struct Config {
        std::uint64_t seed = 1;       ///< Root of every trip decision.
        double p_newton_fail = 0.0;   ///< P(base Newton attempt sabotaged).
        double p_nan_state = 0.0;     ///< P(NaN planted in a solution).
        double p_point = 0.0;         ///< P(sweep/monitor point fails).
        double p_slow_task = 0.0;     ///< P(pool task delayed).
        double p_stuck_osc = 0.0;     ///< P(ring period stuck, per ring).
        double p_drift_site = 0.0;    ///< P(ring drifted, per ring).
        double p_ckpt_truncate = 0.0; ///< P(checkpoint flush torn).
        double p_sweep_kill = 0.0;    ///< P(run killed after a point).
        double p_actuator_stuck = 0.0;///< P(region throttle actuator stuck).
        double p_region_kill = 0.0;   ///< P(region's sensors all unreadable).
        double p_cancel_storm = 0.0;  ///< P(task's cancel token fired mid-run).
        double p_shard_kill = 0.0;    ///< P(run killed after folding a shard).
        /// How deep the Newton/NaN sabotage reaches: 1 = base attempt
        /// only (damped rung rescues), 2 = base + damped (gmin rescues),
        /// 3 = + gmin (source stepping rescues), >= 4 = unrescuable.
        int newton_fail_rungs = 1;
        int slow_task_us = 200;       ///< SlowTask delay.
        /// Period a stuck oscillator outputs [s]. The default is slow
        /// enough that a gated measurement blows its watchdog budget.
        double stuck_period_s = 1.5e-3;
        /// Field offset a drifted ring reads [degC]. NaN plants a
        /// non-finite readout instead of a plausible-but-wrong one.
        double drift_offset_c = 25.0;
        /// Power factor a stuck actuator applies regardless of command.
        /// The default (1.0 = no throttle) is the dangerous direction.
        double stuck_factor = 1.0;
        /// When non-empty, unit-addressed sites trip only for these unit
        /// indices — lets a test pin a fault onto one specific ring,
        /// zone, or sweep point deterministically. Point, StuckOscillator,
        /// DriftSite, ActuatorStuck and RegionKill address units through
        /// point_stream (index / 16); SweepKill and ShardKill address the
        /// raw point/shard index. Other sites ignore the filter.
        std::vector<std::uint64_t> only_units;
    };

    explicit FaultInjector(Config config);

    /// Pure trip decision for (site, index): same seed, same answer,
    /// regardless of threads or call order. Counts trips into the
    /// metrics registry ("exec.fault.<site>").
    bool trip(Site site, std::uint64_t index) const;

    const Config& config() const { return config_; }

    /// Trips recorded so far, all sites (for recovery-rate reporting).
    std::uint64_t total_trips() const { return trips_.load(std::memory_order_relaxed); }

    /// The installed injector, or nullptr when fault injection is off.
    static FaultInjector* active() {
        return active_.load(std::memory_order_acquire);
    }

    /// RAII install/uninstall of the process-global injector. Nesting
    /// restores the previous injector on destruction.
    class Scope {
    public:
        explicit Scope(FaultInjector& injector)
            : previous_(active_.exchange(&injector, std::memory_order_acq_rel)) {}
        ~Scope() { active_.store(previous_, std::memory_order_release); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        FaultInjector* previous_;
    };

    /// Stream index for Site::Point decisions: distinct retry attempts
    /// of the same work unit get distinct streams (a retry is a fresh
    /// draw, so injected faults are transient unless p = 1), while the
    /// same (unit, attempt) pair always reproduces the same verdict.
    static std::uint64_t point_stream(std::uint64_t unit_index,
                                      std::uint64_t attempt = 0) {
        return unit_index * 16 + (attempt & 15);
    }

    /// Parses the STSENSE_FAULT_SEED environment variable; returns
    /// `fallback` when unset/empty/non-numeric. The benches seed their
    /// injector with this so a failing run is replayable.
    static std::uint64_t seed_from_env(std::uint64_t fallback);
    /// Raw-string form of the above, exposed for tests.
    static std::uint64_t parse_seed(const char* value, std::uint64_t fallback);

private:
    double probability(Site site) const;

    Config config_;
    mutable std::atomic<std::uint64_t> trips_{0};
    static std::atomic<FaultInjector*> active_;
};

/// Scoped work-index context: layers that own a meaningful index (the
/// sweep's point index, the monitor's site index) publish it here so
/// deeper hooks (the simulator's Newton sabotage) derive their trip
/// streams from it — keeping decisions deterministic per unit of work
/// instead of per wall-clock call. Thread-local, so concurrent points
/// do not interfere.
class FaultContext {
public:
    // Defined out of line: every touch of the thread-local slot stays in
    // fault_injector.cpp, where the TLS model is local and sanitizer
    // instrumentation of cross-TU accesses cannot misfire.
    explicit FaultContext(std::uint64_t index);
    ~FaultContext();
    FaultContext(const FaultContext&) = delete;
    FaultContext& operator=(const FaultContext&) = delete;

    /// The innermost published index (0 outside any context).
    static std::uint64_t current();

private:
    std::uint64_t previous_;
    static thread_local std::uint64_t current_;
};

} // namespace stsense::exec
