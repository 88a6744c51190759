// Transistor-level ring-oscillator simulation (the paper's Fig. 1).
//
// Builds the full MOSFET netlist of a RingConfig, kick-starts it with an
// alternating initial condition, runs the transient engine, and extracts
// period/frequency/duty-cycle from the settled waveform.
#pragma once

#include "phys/technology.hpp"
#include "ring/config.hpp"
#include "spice/netlist.hpp"
#include "spice/sim_error.hpp"
#include "spice/simulator.hpp"
#include "spice/waveform.hpp"

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace stsense::ring {

/// Simulation knobs. The defaults target the accuracy/runtime balance
/// used by the benches; tests tighten or loosen them deliberately.
struct SpiceRingOptions {
    int skip_cycles = 3;       ///< Startup cycles excluded from measurement.
    int measure_cycles = 8;    ///< Cycles used to average the period.
    int steps_per_period = 300;///< Time resolution (dt = estimate / this).
    double estimate_margin = 1.6; ///< Extra sim time vs the analytic estimate.
    bool record_waveform = true;  ///< Keep the probe trace in the result.
    /// Solver fault tolerance (forwarded into spice::SimOptions): the
    /// recovery ladder engages only after a plain solve fails, and the
    /// budgets (0 = unlimited) turn pathological points into
    /// StepLimit/DeadlineExceeded errors instead of hangs.
    bool enable_recovery = true;
    double max_wall_ms = 0.0;
    long max_total_newton_iters = 0;
    /// Fast-transient-kernel knobs, forwarded into
    /// spice::SimOptions::kernel (defaults off = seed-identical engine).
    spice::TransientOptions kernel;
    /// Stop the transient once skip_cycles + measure_cycles + 2 rising
    /// crossings of Vdd/2 are banked on the probe node, instead of
    /// integrating out the full estimate_margin * t_stop window. The
    /// truncated trace still contains every cycle the measurement uses.
    bool early_exit = false;

    /// The tuned fast preset the benches use: fast kernel + early exit.
    static SpiceRingOptions fast() {
        SpiceRingOptions o;
        o.kernel = spice::TransientOptions::fast();
        o.early_exit = true;
        return o;
    }
};

/// Result of one transistor-level ring run.
struct RingSimResult {
    double period = 0.0;        ///< Mean settled period [s].
    double period_stddev = 0.0; ///< Cycle-to-cycle spread [s].
    double frequency = 0.0;     ///< 1 / period [Hz].
    double duty_cycle = 0.0;    ///< High fraction at Vdd/2 (0 if unmeasured).
    int cycles_measured = 0;
    double avg_supply_power_w = 0.0; ///< Vdd-source power averaged over the run
                                     ///< (supply metering; cross-checks the
                                     ///< analytic self-heating power model).
    /// Deepest solver recovery-ladder rung the transient needed (None on
    /// the fault-free fast path) and how many steps were rescued.
    spice::RecoveryRung recovery_rung = spice::RecoveryRung::None;
    long rescued_steps = 0;
    bool early_exit = false;    ///< The settled-period early exit fired.
    double sim_time_s = 0.0;    ///< Transient time actually integrated [s].
    spice::Trace waveform;      ///< Probe-node trace (empty if not recorded).
};

class SpiceRingModel {
public:
    /// Validates both arguments; copies them in.
    SpiceRingModel(const phys::Technology& tech, RingConfig config);

    /// Simulates at junction temperature `temp_k`. Solver failures
    /// (after the recovery ladder), a missing probe trace, or an
    /// unmeasurable waveform come back as a structured SimError instead
    /// of an exception — the sweep FaultPolicy machinery consumes this.
    /// So does a point whose analytic period estimate (which paces the
    /// transient) is not finite and positive: NonFiniteState, before
    /// any simulation.
    spice::Result<RingSimResult> try_simulate(
        double temp_k, const SpiceRingOptions& opt = {}) const;

    /// Throwing wrapper around try_simulate (spice::SimException),
    /// preserved for existing call sites.
    RingSimResult simulate(double temp_k, const SpiceRingOptions& opt = {}) const;

    /// Simulates every `temps_k` point over one shared batched evaluator,
    /// lock-stepping their Newton iterations (spice::run_lockstep): the
    /// netlist is built once and each point's voltages live in one SoA
    /// block, so the device-evaluation loop streams K points per sweep of
    /// the population. Results are bitwise identical to calling
    /// try_simulate per point, in order (a point with a non-finite
    /// estimate is left out of the lock-step group). `fault_ctx`, when
    /// non-empty (must match temps_k's length), gives the per-point
    /// exec::FaultContext ids to install around each point's injected-
    /// sabotage draws — pass the same ids the solo sweep path would.
    std::vector<spice::Result<RingSimResult>> try_simulate_batch(
        std::span<const double> temps_k, const SpiceRingOptions& opt = {},
        std::span<const std::uint64_t> fault_ctx = {}) const;

    /// Emits the full transistor netlist into `ckt` and returns the ring
    /// node ids (stage i's input is node i). When `enable` is given,
    /// stage 0 must be a NAND-family cell with Supply tie: its first
    /// side input becomes an "en" node driven by that source — the
    /// standard-cell implementation of the paper's oscillator disable.
    /// Exposed for custom experiments; simulate() uses it internally.
    std::vector<spice::NodeId> build(
        spice::Circuit& ckt,
        const std::optional<spice::Source>& enable = std::nullopt) const;

    const RingConfig& config() const { return config_; }

private:
    /// The transient spec try_simulate has always built (dt/t_stop paced
    /// off the analytic estimate, alternating kick-start ICs, stage-0
    /// probe, optional settled-cycle early exit). Shared between the solo
    /// and lock-step paths so they stay spec-identical by construction.
    spice::TransientSpec make_tspec(double est, const SpiceRingOptions& opt,
                                    const std::vector<spice::NodeId>& nodes) const;

    /// Measurement + bookkeeping on one finished transient (period, duty,
    /// supply power, recovery telemetry, early-exit metric) — the tail of
    /// try_simulate, shared with the lock-step path.
    spice::Result<RingSimResult> extract_result(
        const spice::Circuit& ckt, const std::vector<spice::NodeId>& nodes,
        double est, const spice::TransientSpec& tspec,
        const SpiceRingOptions& opt, const spice::TransientResult& res) const;

    phys::Technology tech_;
    RingConfig config_;
};

} // namespace stsense::ring
