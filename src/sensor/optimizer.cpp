#include "sensor/optimizer.hpp"

#include "analysis/nonlinearity.hpp"
#include "exec/checkpoint.hpp"
#include "exec/fingerprint.hpp"
#include "obs/trace.hpp"
#include "phys/units.hpp"
#include "ring/analytic.hpp"
#include "ring/sweep.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string_view>

namespace stsense::sensor {

namespace {

/// The engine every candidate is ranked on.
constexpr ring::Engine kEngine = ring::Engine::Analytic;

// Candidate evaluations parallelize across configurations, so each
// inner sweep runs serially (no nested fan-out) but still memoizes into
// the global cache — re-evaluated configurations (golden-section
// revisits, bench re-runs) become cache hits.
ring::SweepRuntime candidate_runtime(const ring::FaultPolicySpec& fault) {
    ring::SweepRuntime rt;
    rt.parallel = false;
    rt.fault = fault;
    return rt;
}

double nl_of_config(const phys::Technology& tech, const ring::RingConfig& cfg,
                    const ring::FaultPolicySpec& fault) {
    const auto sweep =
        ring::paper_sweep(tech, cfg, kEngine, {}, candidate_runtime(fault));
    if (sweep.complete()) {
        return analysis::max_nonlinearity_percent(sweep.temps_c, sweep.period_s);
    }
    // Partial sweep (Skip policy, or Retry exhausted): rank on the valid
    // points only. The NL fit needs >= 3 of them; a candidate too broken
    // to measure sorts to the bottom rather than aborting the search.
    std::vector<double> xs;
    std::vector<double> ys;
    xs.reserve(sweep.temps_c.size());
    ys.reserve(sweep.temps_c.size());
    for (std::size_t i = 0; i < sweep.temps_c.size(); ++i) {
        if (std::isfinite(sweep.period_s[i])) {
            xs.push_back(sweep.temps_c[i]);
            ys.push_back(sweep.period_s[i]);
        }
    }
    if (xs.size() < 3) return std::numeric_limits<double>::infinity();
    return analysis::max_nonlinearity_percent(xs, ys);
}

double period_27c(const phys::Technology& tech, const ring::RingConfig& cfg) {
    return ring::AnalyticRingModel(tech, cfg).period(phys::celsius_to_kelvin(27.0));
}

exec::ThreadPool& pool_or_global(exec::ThreadPool* pool) {
    return pool != nullptr ? *pool : exec::ThreadPool::global();
}

/// Evaluates {max NL %, period at 27 C} for every candidate ring,
/// fanned out on the runtime's pool and committed by candidate index.
/// With a checkpoint path, completed candidates persist as they finish
/// and a rerun of the same search restores them bitwise — the key is a
/// fingerprint over every candidate's own sweep fingerprint plus a salt
/// naming the search, so a checkpoint from a different candidate list
/// (or a different search function) is rejected wholesale.
std::vector<std::array<double, 2>> eval_candidates(
    std::string_view salt, const phys::Technology& tech,
    const std::vector<ring::RingConfig>& configs,
    const OptimizerRuntime& rt) {
    // Ambient token for the whole search (no-op when rt.cancel is
    // invalid); candidate dispatches below poll it.
    exec::CancelScope cancel_scope(rt.cancel);
    std::uint64_t fp = 0;
    if (!rt.checkpoint_path.empty()) {
        exec::Fingerprint f;
        f.add(salt);
        const auto grid = ring::paper_temperature_grid_c();
        for (const auto& cfg : configs) {
            f.add(ring::sweep_fingerprint(tech, cfg, grid, kEngine, {},
                                          rt.fault));
        }
        fp = f.value();
    }

    std::vector<std::array<double, 2>> vals(configs.size());
    exec::run_checkpointed(
        {rt.checkpoint_path, fp, configs.size(), 2, rt.checkpoint_every,
         rt.keep_checkpoint, "exec.cancel.optimizes"},
        [&](exec::Checkpoint* ckpt) {
            pool_or_global(rt.pool).parallel_for(
                configs.size(), 1, [&](std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                        // Candidate boundaries are the optimizer's poll
                        // points.
                        exec::CancelScope::current().check();
                        obs::Span span("sensor.optimize.candidate");
                        span.num("index", static_cast<double>(i));
                        if (ckpt != nullptr && ckpt->completed(i)) {
                            const auto v = ckpt->values(i);
                            vals[i] = {v[0], v[1]};
                            span.tag("source", "checkpoint");
                            continue;
                        }
                        vals[i] = {nl_of_config(tech, configs[i], rt.fault),
                                   period_27c(tech, configs[i])};
                        if (ckpt != nullptr) ckpt->record(i, vals[i]);
                        span.tag("source", "computed");
                    }
                });
        });
    return vals;
}

} // namespace

std::vector<RatioPoint> ratio_sweep(const phys::Technology& tech,
                                    cells::CellKind kind, int n_stages,
                                    std::span<const double> ratios,
                                    const OptimizerRuntime& runtime) {
    for (double r : ratios) {
        if (r <= 0.0) throw std::invalid_argument("ratio_sweep: ratio must be > 0");
    }
    std::vector<ring::RingConfig> configs;
    configs.reserve(ratios.size());
    for (double r : ratios) {
        configs.push_back(ring::RingConfig::uniform(kind, n_stages, r));
    }
    const auto vals =
        eval_candidates("stsense.optimizer.ratio_sweep.v1", tech, configs,
                        runtime);
    std::vector<RatioPoint> out(ratios.size());
    for (std::size_t i = 0; i < ratios.size(); ++i) {
        out[i] = {ratios[i], vals[i][0], vals[i][1]};
    }
    return out;
}

RatioOptimum optimize_ratio(const phys::Technology& tech, cells::CellKind kind,
                            int n_stages, double lo, double hi, double tol,
                            const ring::FaultPolicySpec& fault) {
    if (!(0.0 < lo && lo < hi)) {
        throw std::invalid_argument("optimize_ratio: need 0 < lo < hi");
    }
    if (tol <= 0.0) throw std::invalid_argument("optimize_ratio: tol must be > 0");

    int evals = 0;
    auto f = [&](double r) {
        ++evals;
        return nl_of_config(tech, ring::RingConfig::uniform(kind, n_stages, r),
                            fault);
    };

    // Golden-section search. Inherently sequential (each bracket depends
    // on the last evaluation), but every evaluation memoizes through the
    // sweep cache, so revisited ratios cost a lookup.
    const double inv_phi = (std::sqrt(5.0) - 1.0) / 2.0;
    double a = lo;
    double b = hi;
    double c = b - inv_phi * (b - a);
    double d = a + inv_phi * (b - a);
    double fc = f(c);
    double fd = f(d);
    while (b - a > tol) {
        if (fc < fd) {
            b = d;
            d = c;
            fd = fc;
            c = b - inv_phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + inv_phi * (b - a);
            fd = f(d);
        }
    }
    RatioOptimum opt;
    opt.ratio = 0.5 * (a + b);
    opt.max_nl_percent = f(opt.ratio);
    opt.evaluations = evals;
    return opt;
}

namespace {

/// Recursively builds all multisets of size `remaining` from kinds[from...]
/// (configurations only — evaluation is fanned out afterwards).
void enumerate_rec(std::span<const cells::CellKind> kinds, std::size_t from,
                   int remaining,
                   std::vector<std::pair<cells::CellKind, int>>& current,
                   std::vector<ring::RingConfig>& out) {
    if (remaining == 0) {
        ring::RingConfig cfg;
        for (const auto& [kind, count] : current) {
            for (int i = 0; i < count; ++i) {
                cells::CellSpec spec;
                spec.kind = kind;
                cfg.stages.push_back(spec);
            }
        }
        out.push_back(std::move(cfg));
        return;
    }
    if (from >= kinds.size()) return;
    // Use 0..remaining of kinds[from].
    for (int take = remaining; take >= 0; --take) {
        if (take > 0) current.emplace_back(kinds[from], take);
        enumerate_rec(kinds, from + 1, remaining - take, current, out);
        if (take > 0) current.pop_back();
    }
}

} // namespace

std::vector<MixCandidate> enumerate_mixes(const phys::Technology& tech,
                                          std::span<const cells::CellKind> kinds,
                                          int n_stages,
                                          const OptimizerRuntime& runtime) {
    if (kinds.empty()) throw std::invalid_argument("enumerate_mixes: no kinds");
    if (n_stages < 3 || n_stages % 2 == 0) {
        throw std::invalid_argument("enumerate_mixes: n_stages must be odd and >= 3");
    }
    // Phase 1 (serial, cheap): enumerate configurations in a fixed order.
    std::vector<ring::RingConfig> configs;
    std::vector<std::pair<cells::CellKind, int>> current;
    enumerate_rec(kinds, 0, n_stages, current, configs);

    // Phase 2 (parallel): evaluate each candidate ring, committing by
    // enumeration index (checkpoint-resumable).
    const auto vals = eval_candidates("stsense.optimizer.enumerate_mixes.v1",
                                      tech, configs, runtime);
    std::vector<MixCandidate> out(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        MixCandidate cand;
        cand.name = describe(configs[i]);
        cand.max_nl_percent = vals[i][0];
        cand.period_27c_s = vals[i][1];
        cand.config = std::move(configs[i]);
        out[i] = std::move(cand);
    }

    // stable_sort keeps the deterministic enumeration order among ties.
    std::stable_sort(out.begin(), out.end(),
                     [](const MixCandidate& a, const MixCandidate& b) {
                         return a.max_nl_percent < b.max_nl_percent;
                     });
    return out;
}

} // namespace stsense::sensor
