#include "ring/sweep.hpp"

#include "exec/checkpoint.hpp"
#include "exec/fault_injector.hpp"
#include "exec/fingerprint.hpp"
#include "exec/metrics.hpp"
#include "obs/trace.hpp"
#include "phys/units.hpp"
#include "ring/analytic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace stsense::ring {

const char* to_string(Engine engine) {
    switch (engine) {
        case Engine::Analytic: return "analytic";
        case Engine::Spice: return "spice";
    }
    return "unknown";
}

Engine engine_from_string(const std::string& name) {
    if (name == "analytic") return Engine::Analytic;
    if (name == "spice") return Engine::Spice;
    throw std::invalid_argument("'engine' must be \"analytic\" or \"spice\"");
}

const char* to_string(FaultPolicy policy) {
    switch (policy) {
        case FaultPolicy::Propagate: return "propagate";
        case FaultPolicy::Skip: return "skip";
        case FaultPolicy::Retry: return "retry";
        case FaultPolicy::FallbackToAnalytic: return "fallback-analytic";
    }
    return "unknown";
}

const char* to_string(PointStatus status) {
    switch (status) {
        case PointStatus::Ok: return "ok";
        case PointStatus::RecoveredDamped: return "recovered-damped";
        case PointStatus::RecoveredGmin: return "recovered-gmin";
        case PointStatus::RecoveredSource: return "recovered-source";
        case PointStatus::RecoveredRetry: return "recovered-retry";
        case PointStatus::FallbackAnalytic: return "fallback-analytic";
        case PointStatus::Skipped: return "skipped";
        case PointStatus::Failed: return "failed";
    }
    return "unknown";
}

std::size_t SweepResult::count(PointStatus s) const {
    std::size_t n = 0;
    for (PointStatus p : status) n += p == s ? 1 : 0;
    return n;
}

std::size_t SweepResult::valid_points() const {
    return temps_c.size() - count(PointStatus::Skipped) - count(PointStatus::Failed);
}

std::size_t SweepResult::recovered_points() const {
    std::size_t n = 0;
    for (PointStatus p : status) {
        switch (p) {
            case PointStatus::RecoveredDamped:
            case PointStatus::RecoveredGmin:
            case PointStatus::RecoveredSource:
            case PointStatus::RecoveredRetry:
            case PointStatus::FallbackAnalytic:
                ++n;
                break;
            default:
                break;
        }
    }
    return n;
}

namespace {

/// Chunk sizes for the pool: SPICE points cost milliseconds each, so
/// they dispatch one per task; analytic points cost microseconds, so
/// they use the pool's width-based auto grain (grain 0 →
/// ThreadPool::auto_grain) to amortize scheduling across the batch.
constexpr std::size_t kSpiceGrain = 1;
constexpr std::size_t kAnalyticGrain = 0;

void validate_grid(std::span<const double> temps_c) {
    if (temps_c.empty()) throw std::invalid_argument("temperature_sweep: empty grid");
    // Single pass: finiteness and strict monotonicity together. NaN/Inf
    // would otherwise flow through the delay model and silently poison
    // every derived period/non-linearity figure. Messages carry the
    // offending index and value so a bad grid is diagnosable from the
    // what() string alone.
    double prev = temps_c.front();
    if (!std::isfinite(prev)) {
        throw std::invalid_argument(
            "temperature_sweep: grid contains NaN/Inf at index 0 (value " +
            std::to_string(prev) + ")");
    }
    for (std::size_t i = 1; i < temps_c.size(); ++i) {
        const double t = temps_c[i];
        if (!std::isfinite(t)) {
            throw std::invalid_argument(
                "temperature_sweep: grid contains NaN/Inf at index " +
                std::to_string(i) + " (value " + std::to_string(t) + ")");
        }
        if (t <= prev) {
            throw std::invalid_argument(
                "temperature_sweep: grid must be strictly increasing, but "
                "temps_c[" + std::to_string(i) + "] = " + std::to_string(t) +
                " <= temps_c[" + std::to_string(i - 1) + "] = " +
                std::to_string(prev));
        }
        prev = t;
    }
}

/// One evaluated grid point.
struct PointEval {
    double period = 0.0;
    PointStatus status = PointStatus::Ok;
};

PointStatus status_of_rung(spice::RecoveryRung rung) {
    switch (rung) {
        case spice::RecoveryRung::None: return PointStatus::Ok;
        case spice::RecoveryRung::DampedNewton: return PointStatus::RecoveredDamped;
        case spice::RecoveryRung::GminStepping: return PointStatus::RecoveredGmin;
        case spice::RecoveryRung::SourceStepping: return PointStatus::RecoveredSource;
    }
    return PointStatus::Ok;
}

/// The pool a sweep fans out on, or nullptr for a serial sweep (which
/// must not touch ThreadPool::global()).
exec::ThreadPool* sweep_pool(const SweepRuntime& runtime) {
    if (!runtime.parallel) return nullptr;
    return runtime.pool != nullptr ? runtime.pool : &exec::ThreadPool::global();
}

/// Computes period_s[i]/frequency_hz[i]/status[i] for every grid point,
/// serially or chunked onto the pool. Either way each index is computed
/// by the same pure function and written to its own slot, so the output
/// is bitwise identical regardless of thread count.
template <typename PointFn>
void compute_points(SweepResult& out, exec::ThreadPool* pool,
                    std::size_t grain, const PointFn& point) {
    const std::size_t n = out.temps_c.size();
    out.period_s.resize(n);
    out.frequency_hz.resize(n);
    out.status.resize(n);
    const auto body = [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            // Per-point poll: a fired request token stops the sweep at
            // the next point boundary (points already solving finish via
            // the solver's own per-iteration poll). Costs a null check
            // when no token is installed.
            exec::CancelScope::current().check();
            obs::Span span("ring.sweep.point");
            span.num("index", static_cast<double>(i));
            const PointEval e = point(i, out.temps_c[i]);
            span.tag("status", to_string(e.status));
            out.period_s[i] = e.period;
            out.frequency_hz[i] = 1.0 / e.period;
            out.status[i] = e.status;
        }
    };
    if (pool != nullptr) {
        pool->parallel_for(n, grain, body);
    } else {
        body(0, n);
    }
}

/// Wraps one engine attempt with the per-point FaultPolicy: injected
/// point faults are drawn per (point, attempt); failures are retried /
/// skipped / substituted per the spec; outcomes become PointStatus.
template <typename AttemptFn>
PointEval apply_policy(std::size_t i, double temp_c,
                       const AnalyticRingModel& analytic,
                       const FaultPolicySpec& spec,
                       const AttemptFn& attempt) {
    // The simulator's own injection sites (NewtonFail/NanState) derive
    // their streams from this point index via the FaultContext.
    exec::FaultContext ctx(i);

    auto run_attempt = [&](int a) -> spice::Result<PointEval> {
        if (auto* injector = exec::FaultInjector::active();
            injector != nullptr &&
            injector->trip(exec::FaultInjector::Site::Point,
                           exec::FaultInjector::point_stream(i, static_cast<std::uint64_t>(a)))) {
            spice::SimError e;
            e.kind = spice::SimErrorKind::NonConvergence;
            e.message = "injected point fault at grid index " + std::to_string(i);
            return e;
        }
        return attempt(a);
    };

    auto first = run_attempt(0);
    if (first.ok()) return first.value();

    // A failure observed while the request's token fired is the
    // cancellation surfacing through the solver, not a point fault:
    // unwind instead of applying the policy (Skip/Fallback must not
    // quietly turn a cancelled request into a completed-looking sweep).
    exec::CancelScope::current().check();
    if (first.error().kind == spice::SimErrorKind::Cancelled) {
        throw exec::CancelledError(exec::CancelCause::Cancelled);
    }

    const double nan = std::numeric_limits<double>::quiet_NaN();
    switch (spec.policy) {
        case FaultPolicy::Propagate:
            throw spice::SimException(first.error());
        case FaultPolicy::Skip:
            return PointEval{nan, PointStatus::Skipped};
        case FaultPolicy::Retry: {
            for (int a = 1; a <= spec.max_retries; ++a) {
                exec::CancelScope::current().check();
                auto retry = run_attempt(a);
                if (retry.ok()) {
                    return PointEval{retry.value().period, PointStatus::RecoveredRetry};
                }
            }
            return PointEval{nan, PointStatus::Failed};
        }
        case FaultPolicy::FallbackToAnalytic:
            return PointEval{analytic.period(phys::celsius_to_kelvin(temp_c)),
                             PointStatus::FallbackAnalytic};
    }
    return PointEval{nan, PointStatus::Failed};
}

/// Wraps a point function with checkpoint resume/record: a completed
/// point is restored bitwise from the checkpoint (no recomputation, no
/// fresh fault draws); a newly computed point is recorded and — under
/// the SweepKill fault site — may "kill the process" right after, which
/// the tests model as an InjectedKill unwinding out of the sweep.
template <typename PointFn>
PointEval checkpointed_point(exec::Checkpoint* ckpt, std::size_t i, double tc,
                             const PointFn& point) {
    if (ckpt == nullptr) return point(i, tc);
    if (ckpt->completed(i)) {
        const auto v = ckpt->values(i);
        return PointEval{v[0], static_cast<PointStatus>(static_cast<int>(v[1]))};
    }
    const PointEval e = point(i, tc);
    const double vals[2] = {e.period, static_cast<double>(e.status)};
    ckpt->record(i, vals);
    if (auto* injector = exec::FaultInjector::active();
        injector != nullptr &&
        injector->trip(exec::FaultInjector::Site::SweepKill,
                       static_cast<std::uint64_t>(i))) {
        throw exec::InjectedKill(i);
    }
    return e;
}

SweepResult compute_sweep(const phys::Technology& tech, const RingConfig& config,
                          std::span<const double> temps_c, Engine engine,
                          const SpiceRingOptions& spice_opt,
                          const SweepRuntime& runtime,
                          exec::Checkpoint* ckpt = nullptr) {
    SweepResult out;
    out.temps_c.assign(temps_c.begin(), temps_c.end());
    const AnalyticRingModel analytic(tech, config);
    const FaultPolicySpec& fault = runtime.fault;
    exec::ThreadPool* const pool = sweep_pool(runtime);
    if (engine == Engine::Analytic) {
        compute_points(out, pool, kAnalyticGrain,
                       [&](std::size_t i, double tc) {
            return checkpointed_point(ckpt, i, tc, [&](std::size_t pi, double ptc) {
                return apply_policy(pi, ptc, analytic, fault,
                                    [&](int) -> spice::Result<PointEval> {
                    return PointEval{analytic.period(phys::celsius_to_kelvin(ptc)),
                                     PointStatus::Ok};
                });
            });
        });
    } else {
        const SpiceRingModel model(tech, config);
        SpiceRingOptions opt = spice_opt;
        opt.record_waveform = false; // Sweeps only need the scalar period.

        // Lock-step mode: precompute every point's attempt-0 simulation
        // in groups of at most kernel.lockstep_width points over one
        // shared batched evaluator, then let the policy loop below
        // consume them. lockstep_groups makes at least min(n, workers)
        // groups, so no pool worker idles for want of a group. The
        // results are bitwise identical to solo attempts, so this is a
        // pure scheduling change — but it is gated off whenever a fault
        // injector is installed (attempt-0 outcomes would need per-point
        // fault streams interleaved with policy retries) or a checkpoint
        // is resuming (completed points must not be recomputed).
        const std::size_t n = out.temps_c.size();
        std::vector<std::optional<spice::Result<RingSimResult>>> pre;
        const bool lockstep = opt.kernel.lockstep_width > 1 &&
                              exec::FaultInjector::active() == nullptr &&
                              ckpt == nullptr;
        if (lockstep) {
            pre.resize(n);
            const auto bounds = lockstep_groups(
                n, static_cast<std::size_t>(opt.kernel.lockstep_width),
                pool != nullptr ? static_cast<std::size_t>(pool->size()) : 1);
            const std::size_t groups = bounds.size() - 1;
            const auto group_body = [&](std::size_t gb, std::size_t ge) {
                for (std::size_t g = gb; g < ge; ++g) {
                    // Lock-step groups are the coarse unit of this
                    // phase; poll at each group boundary.
                    exec::CancelScope::current().check();
                    const std::size_t lo = bounds[g];
                    const std::size_t hi = bounds[g + 1];
                    std::vector<double> temps_k(hi - lo);
                    for (std::size_t j = lo; j < hi; ++j) {
                        temps_k[j - lo] = phys::celsius_to_kelvin(out.temps_c[j]);
                    }
                    auto rs = model.try_simulate_batch(temps_k, opt);
                    for (std::size_t j = lo; j < hi; ++j) {
                        pre[j] = std::move(rs[j - lo]);
                    }
                }
            };
            if (pool != nullptr) {
                pool->parallel_for(groups, 1, group_body);
            } else {
                group_body(0, groups);
            }
        }

        compute_points(out, pool, kSpiceGrain,
                       [&](std::size_t i, double tc) {
            return checkpointed_point(ckpt, i, tc, [&](std::size_t pi, double ptc) {
                return apply_policy(pi, ptc, analytic, fault,
                                    [&](int attempt) -> spice::Result<PointEval> {
                    if (attempt == 0 && lockstep && pre[pi].has_value()) {
                        const auto& r = *pre[pi];
                        if (!r.ok()) return r.error();
                        return PointEval{r.value().period,
                                         status_of_rung(r.value().recovery_rung)};
                    }
                    SpiceRingOptions o = opt;
                    // Tightened time resolution per retry: marginal
                    // transients usually converge with a smaller dt.
                    for (int a = 0; a < attempt; ++a) {
                        o.steps_per_period = static_cast<int>(
                            static_cast<double>(o.steps_per_period) *
                            fault.retry_steps_factor);
                    }
                    auto r = model.try_simulate(phys::celsius_to_kelvin(ptc), o);
                    if (!r.ok()) return r.error();
                    return PointEval{r.value().period,
                                     status_of_rung(r.value().recovery_rung)};
                });
            });
        });
    }
    return out;
}

/// Publishes a finished sweep's per-point outcome tallies (done once per
/// sweep, off the hot per-point path, so parallel runs count the same).
void record_outcomes(const SweepResult& sweep) {
    auto& metrics = exec::MetricsRegistry::global();
    const std::size_t ok = sweep.count(PointStatus::Ok);
    const std::size_t recovered = sweep.recovered_points();
    const std::size_t fallback = sweep.count(PointStatus::FallbackAnalytic);
    const std::size_t skipped = sweep.count(PointStatus::Skipped);
    const std::size_t failed = sweep.count(PointStatus::Failed);
    if (ok > 0) metrics.counter("ring.sweep.points.ok").add(ok);
    if (recovered > 0) metrics.counter("ring.sweep.points.recovered").add(recovered);
    if (fallback > 0) metrics.counter("ring.sweep.points.fallback").add(fallback);
    if (skipped > 0) metrics.counter("ring.sweep.points.skipped").add(skipped);
    if (failed > 0) metrics.counter("ring.sweep.points.failed").add(failed);
}

} // namespace

std::vector<std::size_t> lockstep_groups(std::size_t n, std::size_t max_width,
                                         std::size_t workers) {
    if (n == 0) return {0};
    const std::size_t w = std::max<std::size_t>(1, max_width);
    const std::size_t pool = std::max<std::size_t>(1, workers);
    const std::size_t groups = std::max((n - 1) / w + 1, std::min(n, pool));
    // The first n % groups groups take one extra point.
    const std::size_t base = n / groups;
    const std::size_t extra = n % groups;
    std::vector<std::size_t> bounds(groups + 1, 0);
    for (std::size_t g = 0; g < groups; ++g) {
        bounds[g + 1] = bounds[g] + base + (g < extra ? 1 : 0);
    }
    return bounds;
}

void fingerprint_ring(exec::Fingerprint& fp, const phys::Technology& tech,
                      const RingConfig& config) {
    fp.add(tech.vdd)
        .add(tech.lmin)
        .add(tech.wmin)
        .add(tech.unit_nmos_width)
        .add(tech.library_ratio)
        .add(tech.wire_cap_per_stage);
    for (const phys::MosfetParams* p : {&tech.nmos, &tech.pmos}) {
        fp.add(static_cast<int>(p->type))
            .add(p->vth0)
            .add(p->alpha)
            .add(p->kp)
            .add(p->mobility_exp)
            .add(p->vth_tc)
            .add(p->lambda)
            .add(p->vdsat_coeff)
            .add(p->t0)
            .add(p->smoothing)
            .add(p->cgate_per_w)
            .add(p->cdrain_per_w);
    }
    fp.add(static_cast<std::uint64_t>(config.stages.size()));
    for (const cells::CellSpec& s : config.stages) {
        fp.add(static_cast<int>(s.kind))
            .add(s.drive)
            .add(s.ratio)
            .add(static_cast<int>(s.tie))
            .add(s.vth_shift_v);
    }
}

void fingerprint_engine(exec::Fingerprint& fp, Engine engine,
                        const SpiceRingOptions& spice_opt) {
    fp.add(static_cast<int>(engine));
    if (engine == Engine::Spice) {
        fp.add(spice_opt.skip_cycles)
            .add(spice_opt.measure_cycles)
            .add(spice_opt.steps_per_period)
            .add(spice_opt.estimate_margin)
            .add(spice_opt.enable_recovery)
            .add(spice_opt.max_wall_ms)
            .add(static_cast<std::int64_t>(spice_opt.max_total_newton_iters));
        // Fast-kernel knobs change the computed values, so a fast run
        // and a seed-identical run must not alias.
        const spice::TransientOptions& k = spice_opt.kernel;
        fp.add(k.reuse_lu).add(k.bypass_tol_v).add(spice_opt.early_exit);
    }
}

std::uint64_t sweep_fingerprint(const phys::Technology& tech,
                                const RingConfig& config,
                                std::span<const double> temps_c, Engine engine,
                                const SpiceRingOptions& spice_opt,
                                const FaultPolicySpec& fault) {
    exec::Fingerprint fp;
    fp.add(std::uint64_t{0x73747333}); // Key-format version salt.
    fingerprint_ring(fp, tech, config);
    fingerprint_engine(fp, engine, spice_opt);
    // The fault policy shapes the values of points that fail, so it is
    // part of the key (a Skip series and a Fallback series of the same
    // circuit must not alias).
    fp.add(static_cast<int>(fault.policy));
    if (fault.policy == FaultPolicy::Retry) {
        fp.add(fault.max_retries).add(fault.retry_steps_factor);
    }
    fp.add(temps_c);
    return fp.value();
}

SweepResult temperature_sweep(const phys::Technology& tech,
                              const RingConfig& config,
                              std::span<const double> temps_c, Engine engine,
                              const SpiceRingOptions& spice_opt,
                              const SweepRuntime& runtime) {
    validate_grid(temps_c);

    // Install the runtime's token as the ambient one for this sweep
    // (no-op when invalid — an enclosing request token stays visible).
    // Everything below, including pool tasks, inherits it.
    exec::CancelScope cancel_scope(runtime.cancel);

    auto& metrics = exec::MetricsRegistry::global();
    const exec::ScopedTimer timer(
        metrics.timer(std::string("ring.sweep.") + to_string(engine)));

    obs::Span span("ring.sweep");
    span.tag("engine", to_string(engine));
    span.tag("policy", to_string(runtime.fault.policy));
    span.num("points", static_cast<double>(temps_c.size()));

    // An installed fault injector makes outcomes depend on the injector
    // state, which the fingerprint cannot see — never memoize those.
    const bool cacheable =
        runtime.use_cache && exec::FaultInjector::active() == nullptr;

    // The checkpoint is keyed by the same fingerprint the cache uses, so
    // a stale file from a different sweep can never contribute points.
    // It opens only when the sweep computes: a cache hit reads no file.
    const std::uint64_t fp =
        cacheable || !runtime.checkpoint_path.empty()
            ? sweep_fingerprint(tech, config, temps_c, engine, spice_opt,
                                runtime.fault)
            : 0;
    auto compute = [&] {
        SweepResult sweep;
        exec::run_checkpointed(
            {runtime.checkpoint_path, fp, temps_c.size(), 2,
             runtime.checkpoint_every, runtime.keep_checkpoint,
             "exec.cancel.sweeps"},
            [&](exec::Checkpoint* ckpt) {
                sweep = compute_sweep(tech, config, temps_c, engine, spice_opt,
                                      runtime, ckpt);
            });
        record_outcomes(sweep);
        return sweep;
    };

    if (!cacheable) return compute();

    auto& cache = runtime.cache != nullptr ? *runtime.cache
                                           : exec::ResultCache::global();
    const auto series = cache.get_or_compute(fp, [&] {
        auto sweep = compute();
        exec::Series s;
        s.names = {"temps_c", "period_s", "frequency_hz", "status"};
        s.columns.resize(4);
        s.columns[0] = std::move(sweep.temps_c);
        s.columns[1] = std::move(sweep.period_s);
        s.columns[2] = std::move(sweep.frequency_hz);
        s.columns[3].reserve(sweep.status.size());
        for (PointStatus p : sweep.status) {
            s.columns[3].push_back(static_cast<double>(p));
        }
        return s;
    });

    SweepResult out;
    out.temps_c = series->columns[0];
    out.period_s = series->columns[1];
    out.frequency_hz = series->columns[2];
    out.status.reserve(series->columns[3].size());
    for (double v : series->columns[3]) {
        out.status.push_back(static_cast<PointStatus>(static_cast<int>(v)));
    }
    return out;
}

SweepResult paper_sweep(const phys::Technology& tech, const RingConfig& config,
                        Engine engine, const SpiceRingOptions& spice_opt,
                        const SweepRuntime& runtime) {
    const auto grid = paper_temperature_grid_c();
    return temperature_sweep(tech, config, grid, engine, spice_opt, runtime);
}

} // namespace stsense::ring
