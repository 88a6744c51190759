#include "spice/lockstep.hpp"

#include "exec/fault_injector.hpp"
#include "obs/trace.hpp"

#include <cstddef>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

namespace stsense::spice {

/// Drives K Simulators through the fixed-step transient loop in phase.
/// Friend of Simulator: the head, the step bookkeeping, the rescue, the
/// error and the tail of every point are the Simulator members
/// try_transient calls, in the same order — parity with solo runs is by
/// construction, not by re-derivation. Only the Newton loop of a step's
/// rung-0 attempt is unrolled here, one newton_iteration per round.
class LockStepRunner {
public:
    LockStepRunner(const Circuit& circuit, std::span<const SimOptions> options,
                   std::span<const TransientSpec> specs,
                   std::span<const std::uint64_t> fault_ctx)
        : circuit_(circuit), options_(options), specs_(specs),
          fault_ctx_(fault_ctx) {}

    std::vector<Result<TransientResult>> run();

private:
    using NewtonStatus = Simulator::NewtonStatus;

    struct Point {
        std::unique_ptr<Simulator> sim;
        const TransientSpec* spec = nullptr;
        /// exec::FaultContext index of the point's sabotage draws.
        std::uint64_t ctx = 0;
        Simulator::TransientRun run;
        std::optional<SimError> error;
        long s = 0; ///< Base-step index (try_transient's loop variable).
        bool done = false;
        bool in_newton = false; ///< A rung-0 attempt is mid-iteration.
        // In-flight base-attempt state.
        Simulator::BaseStep step;
        Simulator::Sabotage sab;
        Simulator::NewtonParams base;
        Simulator::NewtonIterState st;
    };

    void begin_step(Point& p);
    void step_iteration(Point& p);
    void finish_attempt(Point& p, NewtonStatus status);
    void fail(Point& p, NewtonStatus status);

    const Circuit& circuit_;
    std::span<const SimOptions> options_;
    std::span<const TransientSpec> specs_;
    std::span<const std::uint64_t> fault_ctx_;
    std::vector<Point> points_;
};

void LockStepRunner::fail(Point& p, NewtonStatus status) {
    p.error = Simulator::step_failure(status, p.step.t,
                                      p.run.result.total_newton_iters);
    p.in_newton = false;
    p.done = true;
}

void LockStepRunner::begin_step(Point& p) {
    Simulator& sim = *p.sim;
    p.step = sim.base_step(*p.spec, p.s);
    {
        const exec::FaultContext guard(p.ctx);
        p.sab = sim.next_sabotage();
    }

    // Simulator::advance's rung-0 head.
    if (!sim.load_trial(p.run.volts, p.run.caps, p.step.t, p.step.h,
                        p.run.budget)) {
        fail(p, NewtonStatus::IterBudget);
        return;
    }
    p.base = sim.base_params();
    p.st = sim.make_iter_state(p.base, &sim.ws_.trial_caps);
    p.in_newton = true;
    if (p.sab.fails(p.base.rung_index)) {
        // solve_newton's injected-failure gate, before any iteration.
        finish_attempt(p, NewtonStatus::NoConverge);
    }
}

void LockStepRunner::step_iteration(Point& p) {
    auto& ws = p.sim->ws_;
    const NewtonStatus s = p.sim->newton_iteration(
        ws.trial_volts, p.step.h, &ws.trial_caps, p.step.integ, p.base,
        p.run.budget, p.sab, p.run.result.total_newton_iters, p.st);
    if (s == NewtonStatus::Running) {
        if (p.st.it >= p.base.max_iters) {
            finish_attempt(p, NewtonStatus::NoConverge);
        }
        return;
    }
    finish_attempt(p, s);
}

void LockStepRunner::finish_attempt(Point& p, NewtonStatus status) {
    p.in_newton = false;
    // advance()'s tail: commit, stop, or the solo rescue (halving +
    // damped/gmin rungs) run to completion inline — it is the rare path,
    // and every call in it touches only this point's state.
    NewtonStatus settled;
    {
        const exec::FaultContext guard(p.ctx);
        settled = p.sim->settle_step(status, p.run.volts, p.run.caps,
                                     p.step.t, p.step.h, 0, p.step.integ,
                                     p.sab, p.run.budget, p.run.result);
    }
    if (settled != NewtonStatus::Converged) {
        fail(p, settled);
        return;
    }
    p.done = p.sim->end_step(*p.spec, p.run, p.s, p.step);
    ++p.s;
}

std::vector<Result<TransientResult>> LockStepRunner::run() {
    const std::size_t k = options_.size();
    if (k == 0 || specs_.size() != k) {
        throw std::invalid_argument(
            "run_lockstep: options/specs must be the same non-zero length");
    }
    if (!fault_ctx_.empty() && fault_ctx_.size() != k) {
        throw std::invalid_argument(
            "run_lockstep: fault_ctx must be empty or match the point count");
    }
    for (const TransientSpec& spec : specs_) {
        Simulator::validate_spec(circuit_, spec);
    }

    obs::Span span("spice.transient.lockstep");
    span.num("points", static_cast<double>(k));

    // One shared multi-block evaluator: block p holds point p's lanes.
    std::vector<double> temps(k);
    for (std::size_t p = 0; p < k; ++p) temps[p] = options_[p].temp_k;
    auto batch = std::make_shared<DeviceBatch>(circuit_, temps);
    span.tag("eval", util::simd_level_name(batch->level()));

    points_.resize(k);
    for (std::size_t p = 0; p < k; ++p) {
        Point& pt = points_[p];
        pt.sim.reset(new Simulator(circuit_, options_[p], batch, p));
        pt.spec = &specs_[p];
        // Point p draws from its own fault stream, as the solo sweep
        // path's per-point FaultContext would; without one, from the
        // ambient stream.
        pt.ctx = fault_ctx_.empty() ? exec::FaultContext::current() : fault_ctx_[p];
        const exec::FaultContext guard(pt.ctx);
        pt.error = pt.sim->start_transient(*pt.spec, pt.run);
        pt.done = pt.error.has_value();
    }

    // The phase loop: one Newton iteration per active point per round.
    for (;;) {
        bool any = false;
        for (auto& pt : points_) {
            if (pt.done) continue;
            any = true;
            if (!pt.in_newton) begin_step(pt);
            if (pt.in_newton) step_iteration(pt);
        }
        if (!any) break;
    }

    std::vector<Result<TransientResult>> out;
    out.reserve(k);
    for (auto& pt : points_) {
        out.push_back(pt.sim->finish_transient(pt.run, std::move(pt.error)));
    }
    return out;
}

std::vector<Result<TransientResult>> run_lockstep(
    const Circuit& circuit, std::span<const SimOptions> options,
    std::span<const TransientSpec> specs,
    std::span<const std::uint64_t> fault_ctx) {
    LockStepRunner runner(circuit, options, specs, fault_ctx);
    return runner.run();
}

} // namespace stsense::spice
