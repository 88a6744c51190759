// Newton/MNA circuit simulator: DC operating point and fixed-step
// transient analysis with trapezoidal (default) or backward-Euler
// integration.
//
// Scope: the circuits in this library are small (tens of nodes), stiff
// only at logic edges, and always have every source node-to-ground, so
// the engine eliminates driven nodes instead of adding branch unknowns,
// assembles a dense Jacobian, and retries failed Newton solves by
// recursive step halving. That is all Fig. 1-class simulation needs.
//
// Every solve assembles its MOSFET stamps through one evaluator, the
// Simulator's spice::DeviceBatch (SoA lanes, bitwise identical to
// phys::evaluate; its lane kernel is the CPU probe's), and factors a
// dense LU. A preallocated per-Simulator Workspace (Jacobian, residual,
// delta, trial state, LU factors, device batch) makes the steady state
// of advance()/solve_newton() allocation-free. Performance kernel
// (opt-in via SimOptions::kernel, default off and bitwise identical to
// the historical engine):
//   * modified Newton: the LU factorization is kept and re-solved
//     across iterations and across steps of equal width, refactoring
//     when convergence stalls or after two re-solves
//     (spice.newton.refactor / spice.newton.reuse metrics);
//   * device-evaluation bypass: a MOSFET whose terminal voltages moved
//     less than bypass_tol_v since its last phys::evaluate is restamped
//     from the cached linearization (spice.eval.bypass_hits);
//   * lock-step width for the sweep layers (spice/lockstep.hpp).
//
// Fault tolerance: the try_* entry points return spice::Result<T>
// carrying a structured SimError instead of throwing, and failed solves
// climb a recovery ladder before giving up:
//
//   DC:        plain Newton (+ mid-rail restart) -> damped Newton ->
//              gmin stepping -> source stepping
//   transient: plain Newton -> step halving (the legacy path, preserved
//              bit-for-bit) -> damped Newton -> gmin stepping
//
// The ladder only engages after the plain solve fails, so any run the
// pre-ladder engine completed produces bitwise identical results. The
// ladder rungs always run the classic full-Newton path (the fast
// kernel's reuse/bypass shortcuts are exactly what a struggling solve
// should not lean on). Per-solve iteration and wall-clock budgets
// (SimOptions) turn pathological points into StepLimit/DeadlineExceeded
// errors instead of hangs. Under an installed exec::FaultInjector,
// sabotaged steps skip the halving descent (an injected Newton failure
// models one that halving cannot fix) and exercise the ladder rungs
// directly.
#pragma once

#include "spice/device_batch.hpp"
#include "spice/linalg.hpp"
#include "spice/netlist.hpp"
#include "spice/sim_error.hpp"
#include "spice/waveform.hpp"

#include "exec/cancel.hpp"

#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace stsense::spice {

/// Integration rule for the transient companion models.
enum class Integrator {
    BackwardEuler,
    Trapezoidal,
};

/// Fast-transient-kernel knobs. Everything here is opt-in: with the
/// defaults the engine reproduces the historical fixed-step full-Newton
/// results bit for bit. fast() returns the tuned preset the ring
/// benches use.
struct TransientOptions {
    /// Modified Newton: keep the LU factorization and re-solve against
    /// it across iterations (and across steps of equal width), at most
    /// two re-solves per factorization. A reused-Jacobian iteration
    /// whose max |dV| failed to shrink below 0.3 of the previous
    /// iteration's forces a fresh factorization — any stall refactors
    /// at once rather than limping along on a stale Jacobian. A relaxed
    /// stall ratio (0.9, the obvious choice against the ring's 0.6-0.8
    /// contraction rate) reuses far more but nearly doubles the
    /// iteration count and loses outright; see DESIGN §15.
    bool reuse_lu = false;

    /// Device-evaluation bypass tolerance [V]: a MOSFET whose terminal
    /// voltages moved less than this since its last real evaluation is
    /// restamped from the cached linearization. 0 disables bypass.
    double bypass_tol_v = 0.0;

    /// Lock-step multi-point width for the sweep layers: sweep points
    /// sharing a grid stamp advance their Newton iterations together
    /// over one shared batched evaluator, at most lockstep_width points
    /// per group; a parallel sweep uses at least as many groups as pool
    /// workers (ring::lockstep_groups). 1 disables lock-step. Consumed
    /// by ring::temperature_sweep (the Simulator itself always solves
    /// one point); results are bitwise identical to per-point solves by
    /// construction.
    int lockstep_width = 1;

    /// The tuned fast path: 0.5 mV device bypass (the ring's Jacobian
    /// is tiny, so phys::evaluate dominates each iteration and bypass
    /// is the big win), contraction-gated modified Newton, and
    /// lock-step multi-point evaluation.
    static TransientOptions fast() {
        TransientOptions k;
        k.bypass_tol_v = 5e-4;
        k.reuse_lu = true;
        k.lockstep_width = 8;
        return k;
    }
};

/// Engine-wide options.
struct SimOptions {
    double temp_k = 300.0;       ///< Junction temperature for all devices [K].
    double gmin = 1e-9;          ///< Shunt conductance to ground per node [S].
    int max_newton_iters = 80;   ///< Per solve.
    double abstol_v = 1e-7;      ///< Newton convergence: max |dV| [V].
    double v_step_limit = 0.4;   ///< Per-iteration voltage damping [V].
    Integrator integrator = Integrator::Trapezoidal;
    int max_step_halvings = 12;  ///< Transient retry depth on Newton failure.

    /// Fast transient kernel (all defaults off = seed-identical).
    TransientOptions kernel;

    // --- Recovery ladder (engages only after a plain solve fails) ---
    bool enable_recovery = true;    ///< false: legacy fail-fast behavior.
    double damped_step_limit = 0.05;///< Rung-1 per-iteration voltage clamp [V].
    double gmin_start = 1e-3;       ///< Rung-2 initial shunt conductance [S].
    int source_steps = 10;          ///< Rung-3 homotopy steps on source scale.

    // --- Per-solve budgets (0 = unlimited) ---
    long max_total_newton_iters = 0; ///< Whole-call budget -> StepLimit.
    long max_transient_steps = 0;    ///< Attempted (accepted + halved)
                                     ///< steps -> StepLimit.
    double max_wall_ms = 0.0;        ///< Whole-call budget -> DeadlineExceeded.
};

/// Transient run description.
struct TransientSpec {
    double t_stop = 0.0;  ///< End time [s]. Must be > 0.
    double dt = 0.0;      ///< Base time step [s]. Must be > 0.
    bool start_from_dc = true; ///< Solve DC op before applying overrides.
    /// Node-voltage overrides applied at t = 0 (e.g. ring kick-start).
    std::vector<std::pair<NodeId, double>> initial_conditions;
    /// Nodes to record; empty records every node.
    std::vector<NodeId> probes;
    int record_stride = 1; ///< Record every k-th accepted base step.
    /// Accumulate per-source delivered energy (supply-current metering).
    bool measure_power = false;
    /// Optional early-stop predicate, evaluated after every accepted
    /// base step with the step-end time and full node-voltage vector.
    /// Returning true ends the run cleanly at that time (the final
    /// point is always recorded and TransientResult::early_exit is
    /// set). The ring layer uses this to stop once enough settled
    /// oscillation cycles are banked.
    std::function<bool(double, const std::vector<double>&)> stop_when;
};

/// Transient output: one trace per probe plus solver statistics.
struct TransientResult {
    std::vector<Trace> traces;
    long total_newton_iters = 0;
    long steps_taken = 0; ///< Including halved sub-steps.
    double t_end = 0.0;   ///< Time actually reached (== t_stop unless
                          ///< stop_when ended the run early).
    bool early_exit = false; ///< stop_when fired before t_stop.

    /// Deepest recovery-ladder rung any step needed (None on the
    /// fault-free fast path) and how many steps needed rescuing.
    RecoveryRung deepest_rung = RecoveryRung::None;
    long rescued_steps = 0;

    // --- Fast-kernel statistics (also published into the global
    // exec::MetricsRegistry as spice.newton.refactor /
    // spice.newton.reuse / spice.eval.bypass_hits) ---
    long lu_refactors = 0;   ///< Fresh Jacobian factorizations.
    long lu_reuses = 0;      ///< Iterations solved against a kept LU.
    long bypass_hits = 0;    ///< Device evaluations served from cache.
    long device_evals = 0;   ///< Real model evaluations.
    long batch_lanes = 0;    ///< SoA lanes processed by the device batch
                             ///< (spice.eval.batch_lanes).
    long simd_groups = 0;    ///< 4-lane AVX2 groups (spice.eval.simd_groups).

    /// Energy delivered by each driven node's source over the run [J],
    /// indexed by NodeId::index (zero for undriven nodes). Filled when
    /// TransientSpec::measure_power is set. Ground's entry is the energy
    /// returned through ground (negative of the supplies' sum for a
    /// lossless source network).
    std::vector<double> source_energy_j;

    /// Average power delivered by a driven node over [t_from, t_stop]
    /// given the recorded energy (simple total/duration; per-interval
    /// accounting would need per-step records). Requires measure_power.
    double average_source_power_w(NodeId node, double duration_s) const;

    /// Trace lookup by node name; throws std::invalid_argument if absent.
    const Trace& trace(const std::string& node_name) const;

    /// Non-throwing trace lookup: nullptr when the node was not probed
    /// (lets measurement layers turn a malformed netlist into a SimError
    /// instead of an uncaught exception).
    const Trace* find_trace(const std::string& node_name) const;
};

/// Error thrown when the nonlinear solver cannot converge (legacy
/// compatibility type; new code should consume SimError via try_*).
struct ConvergenceError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/// One Simulator instance is single-threaded (it owns a mutable solver
/// workspace); concurrent sweeps build one Simulator per task, which is
/// also what keeps their results deterministic.
class Simulator {
public:
    /// The circuit must outlive the simulator.
    Simulator(const Circuit& circuit, SimOptions options = {});

    /// Solves the DC operating point (capacitors open), climbing the
    /// recovery ladder on failure. Returns the full node-voltage vector
    /// indexed by NodeId::index, or a classified SimError.
    Result<std::vector<double>> try_dc_operating_point();

    /// Runs a transient analysis; solver failures come back as SimError
    /// (argument errors still throw std::invalid_argument).
    Result<TransientResult> try_transient(const TransientSpec& spec);

    /// Throwing wrappers around the try_* forms (SimException on solver
    /// failure), preserved for existing call sites.
    std::vector<double> dc_operating_point();
    TransientResult transient(const TransientSpec& spec);

    /// Ladder rung the last successful try_dc_operating_point needed.
    RecoveryRung last_dc_rung() const { return last_dc_rung_; }

    const SimOptions& options() const { return options_; }

private:
    struct CapState {
        double v_old = 0.0; ///< Branch voltage at the last accepted time.
        double i_old = 0.0; ///< Branch current at the last accepted time.
    };

    /// Outcome of one Newton solve attempt. Running is internal to the
    /// iteration seam (newton_iteration returns it to mean "keep
    /// going"); it never escapes solve_newton.
    enum class NewtonStatus {
        Converged,
        NoConverge,
        Singular,
        NonFinite,
        IterBudget,
        Deadline,
        Cancelled,
        Running,
    };

    /// Budget, deadline and cancel verdicts end the call: no rescue
    /// (halving or ladder rung) may run after one.
    static bool must_stop(NewtonStatus s) {
        return s == NewtonStatus::IterBudget || s == NewtonStatus::Deadline ||
               s == NewtonStatus::Cancelled;
    }

    /// The error kind a failed solve reports.
    static SimErrorKind error_kind(NewtonStatus s);

    /// Knobs of one solve attempt (the ladder varies these per rung).
    struct NewtonParams {
        int max_iters = 0;
        double v_step_limit = 0.0;
        double gmin = 0.0;
        /// Ladder rung this attempt belongs to, as an injection depth:
        /// the fault injector sabotages attempts with
        /// rung_index < newton_fail_rungs of a tripped solve event.
        int rung_index = 0;
        /// Allows the solve to use the fast kernel's LU-reuse/bypass
        /// shortcuts (rung-0 transient attempts only; DC and the ladder
        /// rungs always run the classic path).
        bool allow_fast = false;
    };

    /// Whole-call budgets, shared by every attempt of one public call.
    /// make_budget() folds the ambient exec::CancelToken in: its
    /// effective deadline tightens `deadline` (so request deadlines ride
    /// the existing DeadlineExceeded rail) and the token itself is
    /// polled per Newton iteration for explicit cancellation.
    struct Budget {
        long iters_left = -1; ///< < 0 = unlimited.
        bool has_deadline = false;
        std::chrono::steady_clock::time_point deadline{};
        long steps_left = -1; ///< < 0 = unlimited (transient only).
        exec::CancelToken cancel; ///< Ambient token at call entry.
    };

    /// Per-solve-event injected sabotage (inactive without an injector).
    struct Sabotage {
        bool newton = false; ///< Attempts under `rungs` report NoConverge.
        bool nan = false;    ///< Attempts under `rungs` get a planted NaN.
        int rungs = 0;
        bool active() const { return newton || nan; }
        /// Whether an attempt on ladder rung `rung_index` fails outright.
        bool fails(int rung_index) const { return newton && rung_index < rungs; }
    };

    /// Per-attempt kernel-path flags plus the loop-carried state of one
    /// Newton solve, factored out so the lock-step sweep can advance
    /// several Simulators' iterations in phase through the exact code
    /// path a solo solve runs (parity by construction).
    struct NewtonIterState {
        // Path selection, fixed per attempt (make_iter_state).
        bool fast_reuse = false; ///< Modified Newton (LU kept across iters).
        bool use_bypass = false; ///< Device bypass caches allowed.
        // Loop-carried iteration state.
        int it = 0;
        int reuse_run = 0;
        bool force_factor = false;
        double prev_max_dv = std::numeric_limits<double>::infinity();
    };

    /// Preallocated solver state, sized once in the constructor so the
    /// steady state of advance()/solve_newton() performs no heap
    /// allocation. Mutable because the public entry points are
    /// logically const; see the class comment for the threading rule.
    struct Workspace {
        Matrix jac; ///< n_unknowns x n_unknowns.
        /// n_unknowns + 1: the trailing trash slot absorbs the device
        /// stamps addressed at driven nodes.
        std::vector<double> residual;
        std::vector<double> delta; ///< Newton update.
        std::vector<double> trial_volts;
        std::vector<CapState> trial_caps;

        // Modified-Newton factorization + the (h, integ, gmin)
        // signature it was assembled under.
        LuFactors lu;
        double lu_h = -1.0;
        Integrator lu_integ = Integrator::Trapezoidal;
        double lu_gmin = -1.0;

        // The device evaluator. shared_ptr because the lock-step sweep
        // hands one multi-block batch to several Simulators (each using
        // its own block).
        std::shared_ptr<DeviceBatch> batch;
        DeviceBatch::Stats batch_stats;
        std::vector<double> node_currents; ///< Metering scratch (node count).

        // Capacitor companion conductances for the (h, rule) the last
        // stamp ran under — the division per capacitor moves out of the
        // per-iteration loop (the cached geq is the identical double).
        std::vector<double> cap_geq;
        double geq_h = -1.0;
        bool geq_trap = false;

        // Kernel statistics, harvested into TransientResult per run
        // (the device counters accumulate in batch_stats).
        long lu_refactors = 0;
        long lu_reuses = 0;

        void reset_stats() {
            lu_refactors = lu_reuses = 0;
            batch_stats = DeviceBatch::Stats{};
        }
    };

    /// One transient in flight: what the step loop carries from the
    /// head (start_transient) to the tail (finish_transient). A solo
    /// run holds one; the lock-step runner holds one per point.
    struct TransientRun {
        Budget budget;
        std::vector<double> volts;
        std::vector<CapState> caps;
        std::vector<NodeId> probes;
        TransientResult result;
        long n_steps = 0; ///< Base steps from 0 to t_stop.

        /// Appends the probed node voltages at time t.
        void record(double t);
    };

    /// Base step s of the fixed grid.
    struct BaseStep {
        double t = 0.0; ///< Start time.
        double h = 0.0; ///< Width (the last step is clipped at t_stop).
        Integrator integ = Integrator::Trapezoidal;
    };

    /// Assembles the residual (and, when `want_jac`, the Jacobian) at
    /// `volts` into the workspace; when `caps` is non-null, capacitor
    /// companion models for step `h` under the given integration rule
    /// are stamped. (The rule is per-step because the first transient
    /// step always uses backward Euler: the capacitor history current at
    /// t = 0 is unknown, and trapezoidal would carry a wrong history
    /// forward as ringing.) `gmin` is a parameter so the gmin-stepping
    /// rung can ramp it per attempt. The MOSFET slice runs through the
    /// device batch; `use_bypass` serves quiet devices from its caches.
    void assemble(const std::vector<double>& volts, double h,
                  const std::vector<CapState>* caps, Integrator integ,
                  double gmin, bool want_jac, bool use_bypass) const;

    /// Newton-iterates `volts` (full node vector; driven entries are
    /// preset by the caller) under the attempt's params, budget, and
    /// sabotage verdict. With params.allow_fast and the corresponding
    /// kernel options enabled, runs the modified-Newton/bypass path;
    /// otherwise the classic factor-every-iteration path.
    NewtonStatus solve_newton(std::vector<double>& volts, double h,
                              const std::vector<CapState>* caps,
                              Integrator integ, const NewtonParams& params,
                              Budget& budget, const Sabotage& sab,
                              long& iters) const;

    /// Resolves the kernel-path flags of one solve attempt.
    NewtonIterState make_iter_state(const NewtonParams& params,
                                    const std::vector<CapState>* caps) const;

    /// Exactly one Newton iteration (assemble, factor-or-reuse, solve,
    /// clamp, update) — the body of solve_newton's loop. Returns Running
    /// to continue iterating, Converged/a failure to stop. The lock-step
    /// sweep calls this directly to phase-advance several points.
    NewtonStatus newton_iteration(std::vector<double>& volts, double h,
                                  const std::vector<CapState>* caps,
                                  Integrator integ, const NewtonParams& params,
                                  Budget& budget, const Sabotage& sab,
                                  long& iters, NewtonIterState& st) const;

    /// DC ladder shared by try_dc_operating_point and the transient DC
    /// start. On success records the rung into last_dc_rung_.
    Result<std::vector<double>> dc_ladder(Budget& budget);

    /// Advances one step of width h from t to t+h; recursively halves on
    /// Newton failure (legacy path) and climbs the damped/gmin rungs
    /// where the legacy engine would have thrown. Updates volts and caps.
    /// Returns Converged or the terminal failure status.
    NewtonStatus advance(std::vector<double>& volts,
                         std::vector<CapState>& caps, double t, double h,
                         int depth, Integrator integ, const Sabotage& sab,
                         Budget& budget, TransientResult& result) const;

    /// The head of advance()'s rung-0 attempt: charges the step to the
    /// budget (false when none is left) and loads the workspace trial
    /// buffers with the committed state, sources at t + h.
    bool load_trial(const std::vector<double>& volts,
                    const std::vector<CapState>& caps, double t, double h,
                    Budget& budget) const;

    /// Knobs of the rung-0 attempt, the only one allowed the fast kernel.
    NewtonParams base_params() const {
        return {options_.max_newton_iters, options_.v_step_limit,
                options_.gmin, 0, true};
    }

    /// The tail of advance() once its rung-0 attempt ended in `status`:
    /// commits a converged trial, passes a must_stop verdict through, or
    /// rescues the step (halving, then the damped/gmin ladder rungs).
    /// The lock-step sweep routes its phase-advanced attempts through
    /// this too, so a failed point recovers exactly as a solo run does.
    NewtonStatus settle_step(NewtonStatus status, std::vector<double>& volts,
                             std::vector<CapState>& caps, double t, double h,
                             int depth, Integrator integ, const Sabotage& sab,
                             Budget& budget, TransientResult& result) const;

    /// Commits an accepted step solution (metering + cap history); the
    /// trial buffers are swapped into volts/caps.
    void commit_step(std::vector<double>& volts, std::vector<CapState>& caps,
                     std::vector<double>& trial,
                     std::vector<CapState>& trial_caps, double h,
                     Integrator integ, TransientResult& result) const;

    /// Draws the injected-sabotage verdict for the next solve event.
    Sabotage next_sabotage();

    Budget make_budget() const;

    void set_driven(std::vector<double>& volts, double t,
                    double scale = 1.0) const;
    void update_cap_state(const std::vector<double>& volts, double h,
                          Integrator integ, std::vector<CapState>& caps) const;

    /// Supply metering: one device-batch pass accumulates every node's
    /// injected current (resistors, capacitors, devices, then the gmin
    /// shunt, per node in element order), and each driven node banks
    /// v * i * h into result.source_energy_j.
    void meter_sources(const std::vector<double>& volts, double h,
                       const std::vector<CapState>* caps, Integrator integ,
                       bool use_bypass, TransientResult& result) const;

    // --- One transient, in the order a run calls them. try_transient
    // and the lock-step runner share each of these, so a lock-step point
    // starts, steps, fails and finishes exactly like a solo run. ---

    /// Throws std::invalid_argument on a malformed spec: a t_stop or dt
    /// that is not finite and > 0, a step count t_stop / dt that does
    /// not fit in a long, record_stride, or an initial condition on a
    /// missing or driven node.
    static void validate_spec(const Circuit& circuit, const TransientSpec& spec);

    /// The transient head: budget, DC start (or the driven flat start),
    /// initial conditions, probes, result setup, capacitor history, the
    /// t = 0 sample, and a workspace with fresh counters and no kept
    /// factorization or bypass cache. Returns the DC start's error.
    std::optional<SimError> start_transient(const TransientSpec& spec,
                                            TransientRun& run);

    BaseStep base_step(const TransientSpec& spec, long s) const;

    /// After base step s committed: sets t_end, asks stop_when, records
    /// the sample when due. Returns true when the run is over (stop_when
    /// fired or s was the last step).
    bool end_step(const TransientSpec& spec, TransientRun& run, long s,
                  const BaseStep& step) const;

    /// The error of a base step that ended in `status` at time t.
    static SimError step_failure(NewtonStatus status, double t,
                                 long newton_iters);

    /// The transient tail: harvests the kernel counters into the result
    /// and, when the run succeeded, publishes them to the global
    /// exec::MetricsRegistry. Returns the result, or `error` if set.
    Result<TransientResult> finish_transient(TransientRun& run,
                                             std::optional<SimError> error) const;

    /// Shared-batch construction: `batch` null builds this Simulator's
    /// own one-block batch at options.temp_k; otherwise `block` selects
    /// this point's lane block of a prebuilt multi-block batch (only
    /// LockStepRunner, spice/lockstep.cpp, passes one).
    Simulator(const Circuit& circuit, SimOptions options,
              std::shared_ptr<DeviceBatch> batch, std::size_t block);

    friend class LockStepRunner;

    const Circuit& circuit_;
    SimOptions options_;
    std::vector<int> unknown_index_; ///< NodeId -> unknown slot, -1 if driven.
    std::size_t n_unknowns_ = 0;

    /// Precomputed two-terminal element topology: node indices plus
    /// their unknown slots (-1 when driven), resolved once so the
    /// per-iteration stamp loops skip the NodeId -> slot lookups.
    /// `coeff` is 1/ohms for resistors and farads for capacitors.
    struct LinElem {
        std::uint32_t a, b;
        int ia, ib;
        double coeff;
    };
    std::vector<LinElem> res_elems_;
    std::vector<LinElem> cap_elems_;
    /// Driven nodes (ascending) with their sources; the undriven rest
    /// (ascending — matches unknown_index_ slot order by construction).
    std::vector<std::uint32_t> driven_nodes_;
    std::vector<const Source*> driven_srcs_;
    std::vector<std::uint32_t> unknown_nodes_;
    std::size_t batch_block_ = 0; ///< This Simulator's DeviceBatch block.
    RecoveryRung last_dc_rung_ = RecoveryRung::None;
    long fault_event_seq_ = 0; ///< Solve-event counter for injection streams.
    mutable Workspace ws_;
};

} // namespace stsense::spice
