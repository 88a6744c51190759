#include "spice/simulator.hpp"

#include "exec/fault_injector.hpp"
#include "exec/metrics.hpp"
#include "obs/trace.hpp"
#include "util/simd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace stsense::spice {

namespace {

/// Later rung beats earlier rung for the "deepest rung used" statistic.
RecoveryRung deeper(RecoveryRung a, RecoveryRung b) {
    return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

/// Modified Newton (TransientOptions::reuse_lu): at most this many
/// re-solves per factorization, and a re-solved iteration whose max
/// |dV| did not shrink below kReuseStallRatio of the previous one
/// forces a refactor (see TransientOptions).
constexpr int kReuseIterLimit = 2;
constexpr double kReuseStallRatio = 0.3;

/// Base steps from 0 to t_stop (the last one may be clipped).
double step_count(const TransientSpec& spec) {
    return std::ceil(spec.t_stop / spec.dt - 1e-9);
}

} // namespace

double TransientResult::average_source_power_w(NodeId node,
                                               double duration_s) const {
    if (node.index >= source_energy_j.size()) {
        throw std::invalid_argument("average_source_power_w: bad node");
    }
    if (duration_s <= 0.0) {
        throw std::invalid_argument("average_source_power_w: bad duration");
    }
    return source_energy_j[node.index] / duration_s;
}

const Trace* TransientResult::find_trace(const std::string& node_name) const {
    for (const auto& t : traces) {
        if (t.name == node_name) return &t;
    }
    return nullptr;
}

const Trace& TransientResult::trace(const std::string& node_name) const {
    if (const Trace* t = find_trace(node_name)) return *t;
    throw std::invalid_argument("TransientResult: no trace for node '" + node_name + "'");
}

Simulator::Simulator(const Circuit& circuit, SimOptions options)
    : Simulator(circuit, std::move(options), nullptr, 0) {}

Simulator::Simulator(const Circuit& circuit, SimOptions options,
                     std::shared_ptr<DeviceBatch> batch, std::size_t block)
    : circuit_(circuit), options_(std::move(options)) {
    if (!std::isfinite(options_.temp_k) || options_.temp_k <= 0.0) {
        throw std::invalid_argument("Simulator: temp_k must be finite and > 0");
    }
    if (!std::isfinite(options_.gmin) || options_.gmin < 0.0) {
        throw std::invalid_argument("Simulator: gmin must be finite and >= 0");
    }

    const TransientOptions& k = options_.kernel;
    if (!std::isfinite(k.bypass_tol_v) || k.bypass_tol_v < 0.0) {
        throw std::invalid_argument(
            "Simulator: kernel.bypass_tol_v must be finite and >= 0");
    }
    if (k.lockstep_width < 1) {
        throw std::invalid_argument("Simulator: kernel.lockstep_width must be >= 1");
    }

    unknown_index_.assign(circuit_.node_count(), -1);
    for (std::size_t i = 0; i < circuit_.node_count(); ++i) {
        NodeId n{static_cast<std::uint32_t>(i)};
        if (!circuit_.is_driven(n)) {
            unknown_index_[i] = static_cast<int>(n_unknowns_++);
            unknown_nodes_.push_back(static_cast<std::uint32_t>(i));
        } else {
            driven_nodes_.push_back(static_cast<std::uint32_t>(i));
            driven_srcs_.push_back(&circuit_.source_of(n));
        }
    }
    for (const auto& r : circuit_.resistors()) {
        res_elems_.push_back({r.a.index, r.b.index, unknown_index_[r.a.index],
                              unknown_index_[r.b.index], 1.0 / r.ohms});
    }
    for (const auto& c : circuit_.capacitors()) {
        cap_elems_.push_back({c.a.index, c.b.index, unknown_index_[c.a.index],
                              unknown_index_[c.b.index], c.farads});
    }

    if (batch == nullptr) {
        const double temp = options_.temp_k;
        batch = std::make_shared<DeviceBatch>(
            circuit_, std::span<const double>(&temp, 1));
        block = 0;
    } else if (block >= batch->blocks()) {
        throw std::invalid_argument("Simulator: bad shared DeviceBatch/block");
    }
    if (!batch->has_scatter()) batch->build_scatter(unknown_index_, n_unknowns_);
    ws_.batch = std::move(batch);
    batch_block_ = block;

    // Size the workspace once: the solver's steady state reuses these
    // buffers and never touches the heap again.
    ws_.jac.resize(n_unknowns_, n_unknowns_);
    ws_.residual.assign(n_unknowns_ + 1, 0.0);
    ws_.delta.reserve(n_unknowns_);
    ws_.trial_volts.reserve(circuit_.node_count());
    ws_.trial_caps.reserve(circuit_.capacitors().size());
    ws_.node_currents.reserve(circuit_.node_count());
}

void Simulator::set_driven(std::vector<double>& volts, double t,
                           double scale) const {
    for (std::size_t k = 0; k < driven_nodes_.size(); ++k) {
        volts[driven_nodes_[k]] = scale * driven_srcs_[k]->value(t);
    }
}

void Simulator::assemble(const std::vector<double>& volts, double h,
                         const std::vector<CapState>* caps, Integrator integ,
                         double gmin, bool want_jac, bool use_bypass) const {
    // Element order — resistors, capacitors, devices, gmin shunts — and
    // each cell's accumulation order are the historical engine's, so
    // every residual/Jacobian entry is the same double. Only the device
    // stamps can address a driven node; they land in the trash slots.
    Matrix& jac = ws_.jac;
    std::vector<double>& residual = ws_.residual;
    if (want_jac) jac.clear();
    std::fill(residual.begin(), residual.end(), 0.0);

    // current `i` flows a -> b with conductances (di/dva, di/dvb). The
    // element's unknown slots come precomputed from the constructor.
    auto stamp_branch = [&](const LinElem& e, double i, double di_dva,
                            double di_dvb) {
        if (e.ia >= 0) {
            residual[static_cast<std::size_t>(e.ia)] += i;
            if (want_jac) {
                jac.at(static_cast<std::size_t>(e.ia), static_cast<std::size_t>(e.ia)) += di_dva;
                if (e.ib >= 0) jac.at(static_cast<std::size_t>(e.ia), static_cast<std::size_t>(e.ib)) += di_dvb;
            }
        }
        if (e.ib >= 0) {
            residual[static_cast<std::size_t>(e.ib)] -= i;
            if (want_jac) {
                jac.at(static_cast<std::size_t>(e.ib), static_cast<std::size_t>(e.ib)) -= di_dvb;
                if (e.ia >= 0) jac.at(static_cast<std::size_t>(e.ib), static_cast<std::size_t>(e.ia)) -= di_dva;
            }
        }
    };

    for (const auto& e : res_elems_) {
        const double g = e.coeff;
        const double i = g * (volts[e.a] - volts[e.b]);
        stamp_branch(e, i, g, -g);
    }

    if (caps != nullptr) {
        const bool trap = integ == Integrator::Trapezoidal;
        // The companion conductance geq = (trap ? 2 : 1) * C / h only
        // changes with the step size or the rule — cache the division
        // across the Newton iterations of a step (identical doubles:
        // same expression, evaluated once).
        if (ws_.geq_h != h || ws_.geq_trap != trap) {
            ws_.cap_geq.resize(cap_elems_.size());
            for (std::size_t k = 0; k < cap_elems_.size(); ++k) {
                ws_.cap_geq[k] = (trap ? 2.0 : 1.0) * cap_elems_[k].coeff / h;
            }
            ws_.geq_h = h;
            ws_.geq_trap = trap;
        }
        const auto& cs = *caps;
        for (std::size_t k = 0; k < cap_elems_.size(); ++k) {
            const LinElem& e = cap_elems_[k];
            const double geq = ws_.cap_geq[k];
            const double vab = volts[e.a] - volts[e.b];
            const double hist = geq * cs[k].v_old + (trap ? cs[k].i_old : 0.0);
            const double i = geq * vab - hist;
            stamp_branch(e, i, geq, -geq);
        }
    }

    DeviceBatch& batch = *ws_.batch;
    batch.gather(batch_block_, volts);
    batch.evaluate(batch_block_, use_bypass, options_.kernel.bypass_tol_v,
                   ws_.batch_stats);
    batch.scatter_stamps(batch_block_, want_jac, jac, residual);

    // gmin shunts keep otherwise floating nodes well-conditioned. The
    // unknown slot of unknown_nodes_[u] is u (both are assigned in
    // ascending node order).
    for (std::size_t u = 0; u < unknown_nodes_.size(); ++u) {
        residual[u] += gmin * volts[unknown_nodes_[u]];
        if (want_jac) {
            jac.at(u, u) += gmin;
        }
    }
}

Simulator::NewtonIterState Simulator::make_iter_state(
    const NewtonParams& params, const std::vector<CapState>* caps) const {
    // The fast shortcuts apply only to rung-0 transient attempts: DC
    // solves and the recovery-ladder rungs always run the classic
    // factor-every-iteration, evaluate-every-device path.
    const bool fast = params.allow_fast && caps != nullptr;
    NewtonIterState st;
    st.fast_reuse = fast && options_.kernel.reuse_lu;
    st.use_bypass = fast && options_.kernel.bypass_tol_v > 0.0;
    return st;
}

Simulator::NewtonStatus Simulator::newton_iteration(
    std::vector<double>& volts, double h, const std::vector<CapState>* caps,
    Integrator integ, const NewtonParams& params, Budget& budget,
    const Sabotage& sab, long& iters, NewtonIterState& st) const {
    if (budget.iters_left == 0) return NewtonStatus::IterBudget;
    if (budget.iters_left > 0) --budget.iters_left;
    if (budget.has_deadline &&
        std::chrono::steady_clock::now() > budget.deadline) {
        return NewtonStatus::Deadline;
    }
    if (budget.cancel.valid()) {
        // Poll the request's cancel token once per iteration — the same
        // cadence as the wall-clock check. A token-carried deadline was
        // already folded into budget.deadline by make_budget, so only
        // explicit causes surface here (Deadline keeps its own status so
        // the error kind stays DeadlineExceeded either way).
        const exec::CancelCause cause = budget.cancel.poll();
        if (cause == exec::CancelCause::DeadlineExceeded)
            return NewtonStatus::Deadline;
        if (cause != exec::CancelCause::None) return NewtonStatus::Cancelled;
    }
    ++iters;
    ++st.it;

    Matrix& jac = ws_.jac;
    std::vector<double>& delta = ws_.delta;
    // The residual's first n_unknowns entries (the rest is trash).
    const std::span<double> rhs(ws_.residual.data(), n_unknowns_);

    bool just_factored = false;
    const bool lu_reusable = st.fast_reuse && !st.force_factor &&
                             st.reuse_run < kReuseIterLimit &&
                             ws_.lu.valid() && ws_.lu_h == h &&
                             ws_.lu_integ == integ &&
                             ws_.lu_gmin == params.gmin;
    if (lu_reusable) {
        OBS_SPAN("spice.newton.reuse");
        // Modified Newton: residual-only assembly, re-solve against
        // the kept factorization.
        assemble(volts, h, caps, integ, params.gmin, /*want_jac=*/false,
                 st.use_bypass);
        for (double& r : rhs) r = -r;
        if (!ws_.lu.solve(rhs, delta)) return NewtonStatus::Singular;
        ++ws_.lu_reuses;
        ++st.reuse_run;
    } else {
        OBS_SPAN("spice.newton.refactor");
        assemble(volts, h, caps, integ, params.gmin, /*want_jac=*/true,
                 st.use_bypass);
        // Solve J * delta = -F.
        for (double& r : rhs) r = -r;
        if (st.fast_reuse) {
            // Retained-factor path: bitwise equal to the one-shot
            // lu_solve (see LuFactors), and kept for the re-solves.
            if (!ws_.lu.factor(jac)) return NewtonStatus::Singular;
            ws_.lu_h = h;
            ws_.lu_integ = integ;
            ws_.lu_gmin = params.gmin;
            if (!ws_.lu.solve(rhs, delta)) return NewtonStatus::Singular;
        } else {
            // One-shot solve: no factorization outlives the iteration, so
            // a later fast attempt can never reuse a ladder rung's.
            if (!lu_solve(jac, rhs, delta)) return NewtonStatus::Singular;
        }
        ++ws_.lu_refactors;
        just_factored = true;
        st.reuse_run = 0;
        st.force_factor = false;
    }

    double max_dv = 0.0;
    for (std::size_t u = 0; u < unknown_nodes_.size(); ++u) {
        double dv = delta[u];
        dv = std::clamp(dv, -params.v_step_limit, params.v_step_limit);
        volts[unknown_nodes_[u]] += dv;
        max_dv = std::max(max_dv, std::abs(dv));
    }
    if (!std::isfinite(max_dv)) return NewtonStatus::NonFinite;
    if (max_dv < options_.abstol_v) {
        if (sab.nan && params.rung_index < sab.rungs) {
            // Injected NaN state: plant one into the first unknown so
            // the finiteness gate below classifies it.
            for (std::size_t i = 0; i < circuit_.node_count(); ++i) {
                if (unknown_index_[i] >= 0) {
                    volts[i] = std::numeric_limits<double>::quiet_NaN();
                    break;
                }
            }
        }
        for (double v : volts) {
            if (!std::isfinite(v)) return NewtonStatus::NonFinite;
        }
        return NewtonStatus::Converged;
    }
    // Stall detection: a reused-Jacobian iteration that failed to
    // shrink the update meaningfully forces a fresh factorization.
    if (!just_factored && max_dv > kReuseStallRatio * st.prev_max_dv) {
        st.force_factor = true;
    }
    st.prev_max_dv = max_dv;
    return NewtonStatus::Running;
}

Simulator::NewtonStatus Simulator::solve_newton(
    std::vector<double>& volts, double h, const std::vector<CapState>* caps,
    Integrator integ, const NewtonParams& params, Budget& budget,
    const Sabotage& sab, long& iters) const {
    if (sab.fails(params.rung_index)) {
        return NewtonStatus::NoConverge; // Injected convergence failure.
    }

    NewtonIterState st = make_iter_state(params, caps);

    obs::Span span("spice.newton.solve");
    span.tag("kernel", st.fast_reuse
                           ? (st.use_bypass ? "reuse+bypass" : "reuse")
                           : (st.use_bypass ? "bypass" : "classic"));
    if (st.use_bypass) {
        span.tag("eval", util::simd_level_name(ws_.batch->level()));
    }

    while (st.it < params.max_iters) {
        const NewtonStatus s = newton_iteration(volts, h, caps, integ, params,
                                                budget, sab, iters, st);
        if (s != NewtonStatus::Running) return s;
    }
    return NewtonStatus::NoConverge;
}

SimErrorKind Simulator::error_kind(NewtonStatus s) {
    switch (s) {
        case NewtonStatus::Singular: return SimErrorKind::SingularMatrix;
        case NewtonStatus::NonFinite: return SimErrorKind::NonFiniteState;
        case NewtonStatus::IterBudget: return SimErrorKind::StepLimit;
        case NewtonStatus::Deadline: return SimErrorKind::DeadlineExceeded;
        case NewtonStatus::Cancelled: return SimErrorKind::Cancelled;
        default: return SimErrorKind::NonConvergence;
    }
}

Simulator::Sabotage Simulator::next_sabotage() {
    const long event = fault_event_seq_++;
    Sabotage sab;
    auto* injector = exec::FaultInjector::active();
    if (injector == nullptr) return sab;
    const std::uint64_t index =
        exec::FaultContext::current() * 0x9E3779B97F4A7C15ULL +
        static_cast<std::uint64_t>(event);
    sab.newton = injector->trip(exec::FaultInjector::Site::NewtonFail, index);
    sab.nan = injector->trip(exec::FaultInjector::Site::NanState, index);
    sab.rungs = injector->config().newton_fail_rungs;
    return sab;
}

Simulator::Budget Simulator::make_budget() const {
    Budget b;
    if (options_.max_total_newton_iters > 0) {
        b.iters_left = options_.max_total_newton_iters;
    }
    if (options_.max_wall_ms > 0.0) {
        b.has_deadline = true;
        b.deadline = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double, std::milli>(options_.max_wall_ms));
    }
    if (options_.max_transient_steps > 0) b.steps_left = options_.max_transient_steps;
    // Fold the ambient cancel token in: a request deadline tightens the
    // per-solve wall budget (whichever expires first wins), so a sweep
    // point started near the request deadline fails DeadlineExceeded
    // instead of overrunning it.
    b.cancel = exec::CancelScope::current();
    std::chrono::steady_clock::time_point token_deadline;
    if (b.cancel.deadline(token_deadline)) {
        if (!b.has_deadline || token_deadline < b.deadline) {
            b.has_deadline = true;
            b.deadline = token_deadline;
        }
    }
    return b;
}

Result<std::vector<double>> Simulator::dc_ladder(Budget& budget) {
    obs::Span span("spice.dc");
    const Sabotage sab = next_sabotage();
    long iters = 0;

    auto fail = [&](NewtonStatus status) -> SimError {
        SimError e;
        e.kind = error_kind(status);
        e.message = "dc_operating_point: Newton failed to converge";
        e.newton_iters = iters;
        return e;
    };

    const NewtonParams base{options_.max_newton_iters, options_.v_step_limit,
                            options_.gmin, 0, false};

    // Rung 0a: plain Newton from the flat start.
    std::vector<double> volts(circuit_.node_count(), 0.0);
    set_driven(volts, 0.0);
    NewtonStatus status =
        solve_newton(volts, 0.0, nullptr, options_.integrator, base, budget, sab, iters);
    if (status == NewtonStatus::Converged) {
        last_dc_rung_ = RecoveryRung::None;
        span.tag("rung", "none");
        return volts;
    }
    if (must_stop(status)) return fail(status);

    // Rung 0b: retry from a mid-rail guess — helps bistable/metastable
    // circuits (legacy behavior, still the plain rung).
    double vmax = 0.0;
    for (std::size_t i = 0; i < circuit_.node_count(); ++i) {
        NodeId n{static_cast<std::uint32_t>(i)};
        if (circuit_.is_driven(n)) vmax = std::max(vmax, circuit_.source_of(n).value(0.0));
    }
    auto mid_rail_start = [&] {
        set_driven(volts, 0.0);
        for (std::size_t i = 0; i < circuit_.node_count(); ++i) {
            if (unknown_index_[i] >= 0) volts[i] = 0.5 * vmax;
        }
    };
    mid_rail_start();
    status = solve_newton(volts, 0.0, nullptr, options_.integrator, base, budget, sab, iters);
    if (status == NewtonStatus::Converged) {
        last_dc_rung_ = RecoveryRung::None;
        span.tag("rung", "none");
        return volts;
    }
    if (must_stop(status)) return fail(status);
    const NewtonStatus base_status = status;

    if (!options_.enable_recovery) return fail(base_status);

    // Rung 1: damped Newton — a much tighter per-iteration voltage clamp
    // trades iteration count for stability on stiff/oscillatory updates.
    const NewtonParams damped{2 * options_.max_newton_iters,
                              options_.damped_step_limit, options_.gmin, 1, false};
    mid_rail_start();
    status = solve_newton(volts, 0.0, nullptr, options_.integrator, damped, budget, sab, iters);
    if (status == NewtonStatus::Converged) {
        last_dc_rung_ = RecoveryRung::DampedNewton;
        span.tag("rung", "damped");
        return volts;
    }
    if (must_stop(status)) return fail(status);

    // Rung 2: gmin stepping — solve a heavily shunted (well-conditioned)
    // circuit first, then ride the solution as the shunt relaxes back to
    // the nominal gmin (a conductance homotopy).
    mid_rail_start();
    double g = std::max(options_.gmin_start, options_.gmin);
    bool ramp_ok = true;
    for (;;) {
        const NewtonParams step{options_.max_newton_iters, options_.v_step_limit, g, 2, false};
        status = solve_newton(volts, 0.0, nullptr, options_.integrator, step, budget, sab, iters);
        if (status != NewtonStatus::Converged) {
            ramp_ok = false;
            break;
        }
        if (g <= options_.gmin) break;
        const double next = g * 0.1;
        g = (next <= options_.gmin || next < 1e-12) ? options_.gmin : next;
    }
    if (ramp_ok) {
        last_dc_rung_ = RecoveryRung::GminStepping;
        span.tag("rung", "gmin");
        return volts;
    }
    if (must_stop(status)) return fail(status);

    // Rung 3: source stepping — ramp every source from 0 to full scale,
    // tracking the solution branch from the trivial all-zero circuit.
    volts.assign(circuit_.node_count(), 0.0);
    const int n_steps = std::max(1, options_.source_steps);
    bool source_ok = true;
    for (int k = 1; k <= n_steps; ++k) {
        const double alpha = static_cast<double>(k) / static_cast<double>(n_steps);
        set_driven(volts, 0.0, alpha);
        const NewtonParams step{2 * options_.max_newton_iters,
                                options_.v_step_limit, options_.gmin, 3, false};
        status = solve_newton(volts, 0.0, nullptr, options_.integrator, step, budget, sab, iters);
        if (status != NewtonStatus::Converged) {
            source_ok = false;
            break;
        }
    }
    if (source_ok) {
        last_dc_rung_ = RecoveryRung::SourceStepping;
        span.tag("rung", "source");
        return volts;
    }
    if (must_stop(status)) return fail(status);

    return fail(base_status);
}

Result<std::vector<double>> Simulator::try_dc_operating_point() {
    Budget budget = make_budget();
    return dc_ladder(budget);
}

std::vector<double> Simulator::dc_operating_point() {
    auto r = try_dc_operating_point();
    if (!r.ok()) throw SimException(r.error());
    return std::move(r.value());
}

void Simulator::update_cap_state(const std::vector<double>& volts, double h,
                                 Integrator integ,
                                 std::vector<CapState>& caps) const {
    const bool trap = integ == Integrator::Trapezoidal;
    for (std::size_t k = 0; k < circuit_.capacitors().size(); ++k) {
        const auto& c = circuit_.capacitors()[k];
        const double geq = (trap ? 2.0 : 1.0) * c.farads / h;
        const double vab = volts[c.a.index] - volts[c.b.index];
        const double hist = geq * caps[k].v_old + (trap ? caps[k].i_old : 0.0);
        const double i_new = geq * vab - hist;
        caps[k].v_old = vab;
        caps[k].i_old = i_new;
    }
}

void Simulator::commit_step(std::vector<double>& volts,
                            std::vector<CapState>& caps,
                            std::vector<double>& trial,
                            std::vector<CapState>& trial_caps, double h,
                            Integrator integ, TransientResult& result) const {
    if (!result.source_energy_j.empty()) {
        // Supply metering: energy = v * i_delivered * h per source,
        // with the end-of-step current (rectangle rule).
        meter_sources(trial, h, &trial_caps, integ,
                      options_.kernel.bypass_tol_v > 0.0, result);
    }
    update_cap_state(trial, h, integ, trial_caps);
    volts.swap(trial);
    caps.swap(trial_caps);
    ++result.steps_taken;
}

bool Simulator::load_trial(const std::vector<double>& volts,
                           const std::vector<CapState>& caps, double t,
                           double h, Budget& budget) const {
    if (budget.steps_left == 0) return false;
    if (budget.steps_left > 0) --budget.steps_left;
    // The workspace trial buffers are shared across the recursion: every
    // use (base attempt, halved sub-steps, ladder rungs) re-copies the
    // committed state first, so reuse is safe and allocation-free.
    ws_.trial_volts = volts;
    ws_.trial_caps = caps;
    set_driven(ws_.trial_volts, t + h);
    return true;
}

Simulator::NewtonStatus Simulator::advance(std::vector<double>& volts,
                                           std::vector<CapState>& caps,
                                           double t, double h, int depth,
                                           Integrator integ,
                                           const Sabotage& sab, Budget& budget,
                                           TransientResult& result) const {
    if (!load_trial(volts, caps, t, h, budget)) return NewtonStatus::IterBudget;
    const NewtonStatus status =
        solve_newton(ws_.trial_volts, h, &ws_.trial_caps, integ, base_params(),
                     budget, sab, result.total_newton_iters);
    return settle_step(status, volts, caps, t, h, depth, integ, sab, budget,
                       result);
}

Simulator::NewtonStatus Simulator::settle_step(
    NewtonStatus status, std::vector<double>& volts,
    std::vector<CapState>& caps, double t, double h, int depth,
    Integrator integ, const Sabotage& sab, Budget& budget,
    TransientResult& result) const {
    std::vector<double>& trial = ws_.trial_volts;
    std::vector<CapState>& trial_caps = ws_.trial_caps;
    if (status == NewtonStatus::Converged) {
        commit_step(volts, caps, trial, trial_caps, h, integ, result);
        return status;
    }
    if (must_stop(status)) return status;

    // A failed fast solve may hold a factorization from the divergent
    // trajectory; the halving/ladder rescue starts clean.
    ws_.lu.invalidate();

    // Legacy rescue: halve the step into two sub-steps. An injected
    // failure skips this (it models a failure halving cannot fix, and
    // re-solving the sabotaged problem 2^depth times would only burn
    // budget) and goes straight to the ladder.
    if (!sab.active() && depth < options_.max_step_halvings) {
        const NewtonStatus first =
            advance(volts, caps, t, 0.5 * h, depth + 1, integ, sab, budget, result);
        if (first != NewtonStatus::Converged) return first;
        return advance(volts, caps, t + 0.5 * h, 0.5 * h, depth + 1, integ, sab,
                       budget, result);
    }

    if (!options_.enable_recovery) return status;

    // Rung 1: damped Newton at this step width.
    trial = volts;
    trial_caps = caps;
    set_driven(trial, t + h);
    const NewtonParams damped{2 * options_.max_newton_iters,
                              options_.damped_step_limit, options_.gmin, 1, false};
    NewtonStatus rescue = solve_newton(trial, h, &trial_caps, integ, damped,
                                       budget, sab, result.total_newton_iters);
    if (rescue == NewtonStatus::Converged) {
        commit_step(volts, caps, trial, trial_caps, h, integ, result);
        result.deepest_rung = deeper(result.deepest_rung, RecoveryRung::DampedNewton);
        ++result.rescued_steps;
        return NewtonStatus::Converged;
    }
    if (must_stop(rescue)) return rescue;

    // Rung 2: gmin stepping at this step width (conductance homotopy on
    // the companion-model circuit).
    trial = volts;
    trial_caps = caps;
    set_driven(trial, t + h);
    double g = std::max(options_.gmin_start, options_.gmin);
    for (;;) {
        const NewtonParams step{options_.max_newton_iters, options_.v_step_limit, g, 2, false};
        rescue = solve_newton(trial, h, &trial_caps, integ, step, budget, sab,
                              result.total_newton_iters);
        if (rescue != NewtonStatus::Converged) break;
        if (g <= options_.gmin) {
            commit_step(volts, caps, trial, trial_caps, h, integ, result);
            result.deepest_rung = deeper(result.deepest_rung, RecoveryRung::GminStepping);
            ++result.rescued_steps;
            return NewtonStatus::Converged;
        }
        const double next = g * 0.1;
        g = (next <= options_.gmin || next < 1e-12) ? options_.gmin : next;
    }
    if (must_stop(rescue)) return rescue;

    return status; // The base attempt's classification.
}

void Simulator::meter_sources(const std::vector<double>& volts, double h,
                              const std::vector<CapState>* caps,
                              Integrator integ, bool use_bypass,
                              TransientResult& result) const {
    // Accumulates every node's injected current in one element walk:
    // the current each source must deliver is what flows out of its
    // node into the elements.
    std::vector<double>& cur = ws_.node_currents;
    cur.assign(circuit_.node_count(), 0.0);

    for (const auto& r : circuit_.resistors()) {
        const double g = 1.0 / r.ohms;
        const double i = g * (volts[r.a.index] - volts[r.b.index]);
        cur[r.a.index] += i;
        cur[r.b.index] -= i;
    }
    if (caps != nullptr && h > 0.0) {
        const bool trap = integ == Integrator::Trapezoidal;
        for (std::size_t k = 0; k < cap_elems_.size(); ++k) {
            const LinElem& e = cap_elems_[k];
            const double geq = (trap ? 2.0 : 1.0) * e.coeff / h;
            const double vab = volts[e.a] - volts[e.b];
            const double hist =
                geq * (*caps)[k].v_old + (trap ? (*caps)[k].i_old : 0.0);
            const double i = geq * vab - hist;
            cur[e.a] += i;
            cur[e.b] -= i;
        }
    }

    DeviceBatch& batch = *ws_.batch;
    batch.gather(batch_block_, volts);
    batch.evaluate(batch_block_, use_bypass, options_.kernel.bypass_tol_v,
                   ws_.batch_stats);
    batch.accumulate_currents(batch_block_, cur);

    for (const std::uint32_t i : driven_nodes_) {
        const double out = cur[i] + options_.gmin * volts[i];
        result.source_energy_j[i] += volts[i] * out * h;
    }
}

void Simulator::TransientRun::record(double t) {
    for (std::size_t p = 0; p < probes.size(); ++p) {
        result.traces[p].time.push_back(t);
        result.traces[p].value.push_back(volts[probes[p].index]);
    }
}

void Simulator::validate_spec(const Circuit& circuit, const TransientSpec& spec) {
    if (!std::isfinite(spec.t_stop) || !std::isfinite(spec.dt) ||
        spec.t_stop <= 0.0 || spec.dt <= 0.0) {
        throw std::invalid_argument("transient: t_stop and dt must be finite and > 0");
    }
    // start_transient casts the step count to long. (Both operands are
    // finite and > 0, so the count is >= 0, possibly +inf.)
    const double steps = step_count(spec);
    if (!(steps >= 1.0 &&
          steps < static_cast<double>(std::numeric_limits<long>::max()))) {
        throw std::invalid_argument(
            "transient: t_stop / dt must give at least one step and fit in a long");
    }
    if (spec.record_stride < 1) {
        throw std::invalid_argument("transient: record_stride must be >= 1");
    }
    for (const auto& ic : spec.initial_conditions) {
        if (ic.first.index >= circuit.node_count()) {
            throw std::invalid_argument("transient: initial-condition node out of range");
        }
        if (circuit.is_driven(ic.first)) {
            throw std::invalid_argument("transient: cannot set IC on driven node");
        }
    }
}

std::optional<SimError> Simulator::start_transient(const TransientSpec& spec,
                                                   TransientRun& run) {
    run.budget = make_budget();

    run.volts.assign(circuit_.node_count(), 0.0);
    if (spec.start_from_dc) {
        auto dc = dc_ladder(run.budget);
        if (!dc.ok()) return dc.error();
        run.volts = std::move(dc.value());
    } else {
        set_driven(run.volts, 0.0);
    }
    for (const auto& [node, v] : spec.initial_conditions) {
        run.volts[node.index] = v;
    }

    run.probes = spec.probes;
    if (run.probes.empty()) {
        for (std::size_t i = 0; i < circuit_.node_count(); ++i) {
            run.probes.push_back(NodeId{static_cast<std::uint32_t>(i)});
        }
    }

    TransientResult& result = run.result;
    if (spec.start_from_dc) {
        result.deepest_rung = last_dc_rung_;
        if (last_dc_rung_ != RecoveryRung::None) ++result.rescued_steps;
    }
    if (spec.measure_power) {
        result.source_energy_j.assign(circuit_.node_count(), 0.0);
    }
    result.traces.resize(run.probes.size());
    for (std::size_t p = 0; p < run.probes.size(); ++p) {
        result.traces[p].name = circuit_.node_name(run.probes[p]);
    }

    run.caps.assign(circuit_.capacitors().size(), CapState{});
    for (std::size_t k = 0; k < run.caps.size(); ++k) {
        const auto& c = circuit_.capacitors()[k];
        run.caps[k].v_old = run.volts[c.a.index] - run.volts[c.b.index];
    }

    run.record(0.0);
    run.n_steps = static_cast<long>(step_count(spec));

    // The kernel counters measure the transient only (the DC start above
    // ran on the classic path); a kept factorization or bypass cache
    // from a previous run must not leak across calls either.
    ws_.reset_stats();
    ws_.lu.invalidate();
    ws_.batch->invalidate_cache(batch_block_);
    return std::nullopt;
}

Simulator::BaseStep Simulator::base_step(const TransientSpec& spec, long s) const {
    BaseStep step;
    step.t = static_cast<double>(s) * spec.dt;
    step.h = std::min(spec.dt, spec.t_stop - step.t);
    // The first step always uses backward Euler: the capacitor history
    // current at t = 0 is unknown (initial conditions are generally not
    // an equilibrium), and trapezoidal would carry that wrong history
    // forward as sustained ringing.
    step.integ = s == 0 ? Integrator::BackwardEuler : options_.integrator;
    return step;
}

bool Simulator::end_step(const TransientSpec& spec, TransientRun& run, long s,
                         const BaseStep& step) const {
    const double t = step.t + step.h;
    run.result.t_end = t;
    const bool stop = spec.stop_when && spec.stop_when(t, run.volts);
    const bool last = s + 1 == run.n_steps;
    if ((s + 1) % spec.record_stride == 0 || last || stop) run.record(t);
    if (stop) run.result.early_exit = true;
    return stop || last;
}

SimError Simulator::step_failure(NewtonStatus status, double t,
                                 long newton_iters) {
    char when[32];
    std::snprintf(when, sizeof when, "%g", t);
    SimError e;
    e.kind = error_kind(status);
    e.message = std::string("transient: Newton failed at t = ") + when;
    e.time_s = t;
    e.newton_iters = newton_iters;
    return e;
}

Result<TransientResult> Simulator::finish_transient(
    TransientRun& run, std::optional<SimError> error) const {
    TransientResult& result = run.result;
    const DeviceBatch::Stats& dev = ws_.batch_stats;
    result.lu_refactors = ws_.lu_refactors;
    result.lu_reuses = ws_.lu_reuses;
    result.bypass_hits = dev.bypass_hits;
    result.device_evals = dev.device_evals;
    result.batch_lanes = dev.batch_lanes;
    result.simd_groups = dev.simd_groups;
    if (error) return std::move(*error);

    // Publish the kernel statistics once per run, off the per-step hot
    // path (parallel sweeps then count identically at any thread count).
    const std::pair<const char*, long> counters[] = {
        {"spice.newton.refactor", result.lu_refactors},
        {"spice.newton.reuse", result.lu_reuses},
        {"spice.eval.bypass_hits", result.bypass_hits},
        {"spice.eval.batch_lanes", result.batch_lanes},
        {"spice.eval.simd_groups", result.simd_groups},
    };
    auto& metrics = exec::MetricsRegistry::global();
    for (const auto& [name, n] : counters) {
        if (n > 0) metrics.counter(name).add(static_cast<std::uint64_t>(n));
    }
    return std::move(result);
}

Result<TransientResult> Simulator::try_transient(const TransientSpec& spec) {
    validate_spec(circuit_, spec);
    obs::Span span("spice.transient");

    TransientRun run;
    if (auto dc_error = start_transient(spec, run)) return std::move(*dc_error);

    std::optional<SimError> error;
    for (long s = 0; s < run.n_steps; ++s) {
        const BaseStep step = base_step(spec, s);
        const Sabotage sab = next_sabotage();
        const NewtonStatus status = advance(run.volts, run.caps, step.t, step.h,
                                            0, step.integ, sab, run.budget,
                                            run.result);
        if (status != NewtonStatus::Converged) {
            error = step_failure(status, step.t, run.result.total_newton_iters);
            break;
        }
        if (end_step(spec, run, s, step)) break;
    }
    span.num("steps", static_cast<double>(run.result.steps_taken));
    return finish_transient(run, std::move(error));
}

TransientResult Simulator::transient(const TransientSpec& spec) {
    auto r = try_transient(spec);
    if (!r.ok()) throw SimException(r.error());
    return std::move(r.value());
}

} // namespace stsense::spice
