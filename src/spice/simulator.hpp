// Newton/MNA circuit simulator: DC operating point and transient
// analysis with trapezoidal (default) or backward-Euler integration,
// fixed-step by default and LTE-controlled adaptive stepping opt-in.
//
// Scope: the circuits in this library are small (tens of nodes), stiff
// only at logic edges, and always have every source node-to-ground, so
// the engine eliminates driven nodes instead of adding branch unknowns,
// assembles a dense Jacobian, and retries failed Newton solves by
// recursive step halving. That is all Fig. 1-class simulation needs.
//
// Performance kernel (opt-in via SimOptions::kernel, default off and
// bitwise identical to the historical engine):
//   * a preallocated per-Simulator Workspace (Jacobian, residual,
//     delta, trial state, LU factors, bypass caches) makes the steady
//     state of advance()/solve_newton() allocation-free;
//   * modified Newton: the LU factorization is kept and re-solved
//     across iterations and across steps of equal width, refactoring
//     only when convergence stalls (spice.newton.refactor /
//     spice.newton.reuse metrics);
//   * device-evaluation bypass: a MOSFET whose terminal voltages moved
//     less than bypass_tol_v since its last phys::evaluate is restamped
//     from the cached linearization (spice.eval.bypass_hits);
//   * adaptive stepping: a predictor/corrector divided-difference LTE
//     estimate grows/shrinks the step within [dt_min, dt_max], with
//     rejected steps rolled back and retried smaller.
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
#include "phys/mosfet.hpp"
#include "util/simd.hpp"

#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
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
    /// it across iterations (and across steps of equal width),
    /// refactoring only when convergence stalls.
    bool reuse_lu = false;
    /// Forced-refactor threshold: consecutive re-solves against one
    /// factorization before a fresh factorization is required.
    int reuse_iter_limit = 8;
    /// Stall-detection threshold: a reused-Jacobian iteration whose
    /// max |dV| failed to shrink below this fraction of the previous
    /// iteration's forces a fresh factorization. The historical engine
    /// hard-coded 0.5, which on the ring's modified-Newton contraction
    /// rate (~0.6-0.8 per iteration) flagged nearly every reused
    /// iteration as a stall and refactored anyway — the reason PR 3
    /// measured reuse_lu as a net loss. Must be > 0.
    double reuse_stall_ratio = 0.5;

    /// Device-evaluation bypass tolerance [V]: a MOSFET whose terminal
    /// voltages moved less than this since its last real evaluation is
    /// restamped from the cached linearization. 0 disables bypass.
    double bypass_tol_v = 0.0;

    /// Batched SoA device evaluation: gather every MOSFET's terminal
    /// voltages into contiguous lanes, evaluate the population in one
    /// pass (bypass test folded into a per-lane mask), and scatter the
    /// stamps through a precomputed flat index map. Bitwise identical
    /// to the legacy per-device loop by construction (the parity suite
    /// gates it), so it is safe anywhere the legacy kernel runs.
    bool batch_eval = false;
    /// Lane-kernel dispatch for batch_eval (scalar and AVX2 kernels are
    /// bitwise identical; the STSENSE_SIMD env var overrides this).
    util::SimdMode simd = util::SimdMode::Auto;

    /// Structure-exploiting bordered-band LU for the ring's MNA pattern
    /// (O(n*b^2) instead of O(n^3) per factorization). The banded
    /// elimination order differs from the pivoted dense core, so results
    /// agree to rounding but are NOT bitwise identical — opt-in, and
    /// part of the sweep cache fingerprint. Falls back to dense
    /// LuFactors permanently when the pattern is not banded (or a
    /// pivot degenerates).
    bool banded_lu = false;

    /// Lock-step multi-point width for the sweep layers: sweep points
    /// sharing a grid stamp advance their Newton iterations together
    /// over one shared batched evaluator, at most lockstep_width points
    /// per group; a parallel sweep uses at least as many groups as pool
    /// workers (ring::lockstep_groups). 1 disables lock-step. Consumed
    /// by ring::temperature_sweep (the Simulator itself always solves
    /// one point); results are bitwise identical to per-point solves by
    /// construction.
    int lockstep_width = 1;

    /// LTE-driven adaptive time stepping (rejected steps are rolled
    /// back and retried with a smaller h).
    bool adaptive = false;
    /// Predictor/corrector LTE acceptance threshold, relative to the
    /// largest node-voltage magnitude.
    double lte_rel_tol = 5e-4;
    double dt_min_factor = 0.25; ///< h >= dt_min_factor * spec.dt.
    double dt_max_factor = 4.0;  ///< h <= dt_max_factor * spec.dt.
    double dt_grow = 1.5;        ///< Step growth on a comfortably small LTE.
    double dt_shrink = 0.5;      ///< Step shrink on a rejected step.

    /// The tuned fast path: 0.5 mV device bypass (the ring's Jacobian
    /// is tiny, so phys::evaluate dominates each iteration and bypass
    /// is the big win) on the batched SoA evaluator, banded LU on the
    /// ring's bordered-band MNA pattern, lock-step multi-point
    /// evaluation, and modified Newton gated on strict contraction.
    /// The reuse tuning is counter-intuitive and deliberate: with the
    /// banded kernel a factorization is cheap, so the preset reuses a
    /// factorization only while the iteration contracts hard (ratio
    /// 0.3) and for at most 2 iterations — any stall refactors
    /// immediately rather than limping along on a stale Jacobian. A
    /// relaxed threshold (0.9, the obvious choice against the ring's
    /// 0.6-0.8 contraction rate) reuses far more but nearly doubles
    /// the iteration count and loses outright; see DESIGN §15 for the
    /// measured ablation. Adaptive stepping stays opt-in: a ring
    /// always has an edge in flight for the LTE controller to resolve,
    /// so it trades accuracy for nothing here.
    static TransientOptions fast() {
        TransientOptions k;
        k.bypass_tol_v = 5e-4;
        k.batch_eval = true;
        k.banded_lu = true;
        k.reuse_lu = true;
        k.reuse_iter_limit = 2;
        k.reuse_stall_ratio = 0.3;
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
    long max_transient_steps = 0;    ///< Attempted (accepted+halved+rejected)
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
    long device_evals = 0;   ///< Real model evaluations (either path).
    long steps_rejected = 0; ///< Adaptive steps rolled back on LTE.
    long batch_lanes = 0;    ///< SoA lanes processed by the batched path
                             ///< (spice.eval.batch_lanes).
    long simd_groups = 0;    ///< 4-lane AVX2 groups (spice.eval.simd_groups).
    long banded_factors = 0; ///< Banded-LU factorizations
                             ///< (spice.lu.banded_factors).

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
    };

    /// Per-attempt kernel-path flags plus the loop-carried state of one
    /// Newton solve, factored out so the lock-step sweep can advance
    /// several Simulators' iterations in phase through the exact code
    /// path a solo solve runs (parity by construction).
    struct NewtonIterState {
        // Path selection, fixed per attempt (make_iter_state).
        bool fast_reuse = false; ///< Modified Newton (LU kept across iters).
        bool use_bypass = false; ///< Device bypass caches allowed.
        bool use_batch = false;  ///< Batched SoA assemble path.
        bool banded = false;     ///< Banded LU requested (may fall back).
        // Loop-carried iteration state.
        int it = 0;
        int reuse_run = 0;
        bool force_factor = false;
        double prev_max_dv = std::numeric_limits<double>::infinity();
    };

    /// Cached linearization of one MOSFET at its last real evaluation
    /// (terminal-voltage magnitudes in the device polarity convention).
    struct MosBypass {
        bool valid = false;
        double vgs = 0.0;
        double vds = 0.0;
        phys::MosEval eval;
    };

    /// Preallocated solver state, sized once in the constructor so the
    /// steady state of advance()/solve_newton() performs no heap
    /// allocation. Mutable because the public entry points are
    /// logically const; see the class comment for the threading rule.
    struct Workspace {
        Matrix jac;                   ///< n_unknowns x n_unknowns.
        std::vector<double> residual; ///< n_unknowns.
        std::vector<double> delta;    ///< Newton update.
        std::vector<double> trial_volts;
        std::vector<CapState> trial_caps;

        // Modified-Newton factorization + the (h, integ, gmin)
        // signature it was assembled under. When banded_active, the
        // live factorization is blu instead of lu (same signature
        // fields; only one factorization is current at a time).
        LuFactors lu;
        double lu_h = -1.0;
        Integrator lu_integ = Integrator::Trapezoidal;
        double lu_gmin = -1.0;

        // Banded-LU state (kernel.banded_lu). The plan is a property of
        // the circuit's sparsity pattern, so it is computed once per
        // Simulator; banded_fallback latches permanently when the
        // pattern is not banded or a pivot degenerates.
        BandedLuFactors blu;
        BandedLuFactors::Plan banded_plan;
        bool banded_planned = false;
        bool banded_fallback = false;
        bool banded_active = false; ///< blu (not lu) holds the live factors.

        std::vector<MosBypass> mos; ///< Per-MOSFET bypass caches.

        // Batched SoA evaluator (kernel.batch_eval). shared_ptr because
        // the lock-step sweep hands one multi-block batch to several
        // Simulators (each using its own block).
        std::shared_ptr<DeviceBatch> batch;
        DeviceBatch::Stats batch_stats;
        std::vector<double> residual_b;     ///< n_unknowns + 1 (trash slot).
        std::vector<double> node_currents;  ///< Metering scratch (node count).

        // Capacitor companion conductances for the (h, rule) the last
        // stamp ran under — the division per capacitor moves out of the
        // per-iteration loop (the cached geq is the identical double).
        std::vector<double> cap_geq;
        double geq_h = -1.0;
        bool geq_trap = false;

        // Adaptive-stepping bookkeeping (rollback + predictor).
        std::vector<double> save_volts;
        std::vector<CapState> save_caps;
        std::vector<double> save_energy;
        std::vector<double> prev_volts; ///< Solution one accepted step back.

        // Kernel statistics, harvested into TransientResult per run.
        long lu_refactors = 0;
        long lu_reuses = 0;
        long bypass_hits = 0;
        long device_evals = 0;
        long steps_rejected = 0;
        long banded_factors = 0;

        void reset_stats() {
            lu_refactors = lu_reuses = bypass_hits = device_evals =
                steps_rejected = banded_factors = 0;
            batch_stats = DeviceBatch::Stats{};
        }
    };

    /// Assembles the residual (and, when `want_jac`, the Jacobian) at
    /// `volts`; when `caps` is non-null, capacitor companion models for
    /// step `h` under the given integration rule are stamped. (The rule
    /// is per-step because the first transient step always uses backward
    /// Euler: the capacitor history current at t = 0 is unknown, and
    /// trapezoidal would carry a wrong history forward as ringing.)
    /// `gmin` is a parameter so the gmin-stepping rung can ramp it per
    /// attempt. `use_bypass` serves quiet MOSFETs from the workspace
    /// bypass caches instead of phys::evaluate.
    void assemble(const std::vector<double>& volts, double h,
                  const std::vector<CapState>* caps, Integrator integ,
                  double gmin, bool want_jac, bool use_bypass, Matrix& jac,
                  std::vector<double>& residual) const;

    /// The linear-element (resistor + capacitor-companion) and gmin
    /// slices of assemble(), shared between the legacy and batched
    /// assembly paths. `residual` only needs n_unknowns entries.
    void stamp_linear(const std::vector<double>& volts, double h,
                      const std::vector<CapState>* caps, Integrator integ,
                      bool want_jac, Matrix& jac,
                      std::span<double> residual) const;
    void stamp_gmin(const std::vector<double>& volts, double gmin,
                    bool want_jac, Matrix& jac,
                    std::span<double> residual) const;

    /// Batched assembly: identical element order (resistors, caps,
    /// devices, gmin) and per-cell accumulation order as assemble(), so
    /// every residual/Jacobian entry is bitwise equal — the device slice
    /// just runs through ws_.batch. Fills ws_.residual_b (whose trailing
    /// trash slot absorbs driven-node stamps).
    void assemble_batched(const std::vector<double>& volts, double h,
                          const std::vector<CapState>* caps, Integrator integ,
                          double gmin, bool want_jac, bool use_bypass,
                          Matrix& jac) const;

    /// Evaluates MOSFET `k` at the given terminal-voltage magnitudes,
    /// through the bypass cache when allowed.
    phys::MosEval eval_mosfet(std::size_t k, const Mosfet& m, double vgs,
                              double vds, bool use_bypass) const;

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

    /// The rescue tail of advance() (step halving, then the damped/gmin
    /// ladder rungs), split out so the lock-step sweep can route a
    /// failed phase-advanced point through the identical recovery the
    /// solo engine runs. `status` is the failed base attempt's verdict.
    NewtonStatus rescue_failed_step(std::vector<double>& volts,
                                    std::vector<CapState>& caps, double t,
                                    double h, int depth, Integrator integ,
                                    const Sabotage& sab, Budget& budget,
                                    TransientResult& result,
                                    NewtonStatus status) const;

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

    /// Current flowing out of `node` into the circuit elements at the
    /// given solution (the current its source must deliver) [A].
    double injected_current(NodeId node, const std::vector<double>& volts,
                            double h, const std::vector<CapState>* caps,
                            Integrator integ, bool use_bypass) const;

    /// Batched supply metering: one device-population pass accumulates
    /// every node's injected current (per-node sums run in the same
    /// element order as injected_current, so each source's current — and
    /// the banked energy — is bitwise identical to the legacy
    /// per-driven-node walks).
    void meter_sources_batched(const std::vector<double>& volts, double h,
                               const std::vector<CapState>* caps,
                               Integrator integ, bool use_bypass,
                               TransientResult& result) const;

    /// Drops every kept factorization (dense and banded).
    void invalidate_factors() const {
        ws_.lu.invalidate();
        ws_.blu.invalidate();
        ws_.banded_active = false;
    }

    /// The fixed-step loop (the historical engine, preserved bit for
    /// bit) and the opt-in adaptive loop behind try_transient. Both
    /// fill `result` in place and return the failure, if any.
    std::optional<SimError> run_fixed(const TransientSpec& spec,
                                      std::vector<double>& volts,
                                      std::vector<CapState>& caps,
                                      Budget& budget, TransientResult& result,
                                      const std::function<void(double)>& record);
    std::optional<SimError> run_adaptive(const TransientSpec& spec,
                                         std::vector<double>& volts,
                                         std::vector<CapState>& caps,
                                         Budget& budget, TransientResult& result,
                                         const std::function<void(double)>& record);

    /// Lock-step construction: share a prebuilt multi-block DeviceBatch,
    /// using `block` as this point's lane block. Only LockStepRunner
    /// (spice/lockstep.cpp) uses this.
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
