#include "ring/spice_ring.hpp"

#include "cells/cell_netlist.hpp"
#include "exec/metrics.hpp"
#include "ring/analytic.hpp"
#include "spice/lockstep.hpp"
#include "spice/simulator.hpp"

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace stsense::ring {

SpiceRingModel::SpiceRingModel(const phys::Technology& tech, RingConfig config)
    : tech_(tech), config_(std::move(config)) {
    phys::validate(tech_);
    validate(config_);
}

std::vector<spice::NodeId> SpiceRingModel::build(
    spice::Circuit& ckt, const std::optional<spice::Source>& enable) const {
    const std::size_t n = config_.stages.size();

    const spice::NodeId vdd = ckt.add_driven_node("vdd", spice::Source::dc(tech_.vdd));
    std::vector<spice::NodeId> nodes;
    nodes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        nodes.push_back(ckt.add_node("n" + std::to_string(i)));
    }

    std::optional<spice::NodeId> en;
    if (enable) {
        const auto kind0 = config_.stages[0].kind;
        if (kind0 != cells::CellKind::Nand2 && kind0 != cells::CellKind::Nand3) {
            throw std::invalid_argument(
                "SpiceRingModel: enable gating needs a NAND stage 0");
        }
        if (config_.stages[0].tie != cells::SideInputTie::Supply) {
            throw std::invalid_argument(
                "SpiceRingModel: enable gating needs Supply tie on stage 0");
        }
        en = ckt.add_driven_node("en", *enable);
    }

    for (std::size_t i = 0; i < n; ++i) {
        if (i == 0 && en) {
            // Side inputs: EN first, remaining ones tied high.
            std::vector<spice::NodeId> sides(
                static_cast<std::size_t>(cells::input_count(config_.stages[0].kind)) - 1,
                vdd);
            sides[0] = *en;
            emit_cell(ckt, tech_, config_.stages[i], vdd, nodes[i],
                      nodes[(i + 1) % n], "s" + std::to_string(i), sides);
        } else {
            emit_cell(ckt, tech_, config_.stages[i], vdd, nodes[i],
                      nodes[(i + 1) % n], "s" + std::to_string(i));
        }
        if (tech_.wire_cap_per_stage > 0.0) {
            ckt.add_capacitor(nodes[(i + 1) % n], ckt.ground(),
                              tech_.wire_cap_per_stage);
        }
    }
    return nodes;
}

namespace {

/// The transient's dt and t_stop derive from the analytic period
/// estimate, so a point whose estimate is not finite and positive (e.g.
/// a temperature far outside the model's range) is refused up front.
std::optional<spice::SimError> reject_estimate(double est, double temp_k,
                                               const RingConfig& config) {
    if (std::isfinite(est) && est > 0.0) return std::nullopt;
    char what[96];
    std::snprintf(what, sizeof what, "%g s at %g K", est, temp_k);
    spice::SimError e;
    e.kind = spice::SimErrorKind::NonFiniteState;
    e.message = "SpiceRingModel: period estimate " + std::string(what) +
                " is not finite and > 0 for " + describe(config);
    return e;
}

spice::SimOptions make_sim_options(double temp_k, const SpiceRingOptions& opt) {
    spice::SimOptions sim_opt;
    sim_opt.temp_k = temp_k;
    sim_opt.enable_recovery = opt.enable_recovery;
    sim_opt.max_wall_ms = opt.max_wall_ms;
    sim_opt.max_total_newton_iters = opt.max_total_newton_iters;
    sim_opt.kernel = opt.kernel;
    return sim_opt;
}

} // namespace

spice::TransientSpec SpiceRingModel::make_tspec(
    double est, const SpiceRingOptions& opt,
    const std::vector<spice::NodeId>& nodes) const {
    const std::size_t n = config_.stages.size();

    spice::TransientSpec tspec;
    tspec.dt = est / opt.steps_per_period;
    tspec.t_stop = est * opt.estimate_margin *
                   static_cast<double>(opt.skip_cycles + opt.measure_cycles + 2);
    tspec.start_from_dc = false;
    // Alternating kick-start: with an odd stage count the pattern has one
    // frustrated edge, which seeds the travelling transition.
    for (std::size_t i = 0; i < n; ++i) {
        tspec.initial_conditions.emplace_back(nodes[i],
                                              i % 2 == 0 ? 0.0 : tech_.vdd);
    }
    tspec.probes = {nodes[0]};
    tspec.measure_power = true;

    if (opt.early_exit) {
        // Stop once enough settled cycles are banked: measure_period
        // needs skip + measure + 1 rising crossings of Vdd/2; one more
        // guarantees the final cycle is fully recorded. The kick-start
        // holds the probe node at 0, so the first crossing is genuine.
        const int needed = opt.skip_cycles + opt.measure_cycles + 2;
        const double mid = 0.5 * tech_.vdd;
        tspec.stop_when = [mid, needed, idx = nodes[0].index, crossings = 0,
                           prev = 0.0](double,
                                       const std::vector<double>& v) mutable {
            const double cur = v[idx];
            if (prev < mid && cur >= mid) ++crossings;
            prev = cur;
            return crossings >= needed;
        };
    }
    return tspec;
}

spice::Result<RingSimResult> SpiceRingModel::extract_result(
    const spice::Circuit& ckt, const std::vector<spice::NodeId>& nodes,
    double est, const spice::TransientSpec& tspec, const SpiceRingOptions& opt,
    const spice::TransientResult& res) const {
    // Non-throwing probe lookup: a malformed netlist/probe wiring shows
    // up as a structured error, not an uncaught std::invalid_argument.
    const std::string probe_name = ckt.node_name(nodes[0]);
    const spice::Trace* trace = res.find_trace(probe_name);
    if (trace == nullptr) {
        spice::SimError e;
        e.kind = spice::SimErrorKind::MissingSignal;
        e.message = "SpiceRingModel: probe trace '" + probe_name +
                    "' missing for " + describe(config_);
        return e;
    }
    const double mid = 0.5 * tech_.vdd;

    const auto meas = spice::measure_period(*trace, mid, opt.skip_cycles);
    if (!meas || meas->cycles < 1 || meas->period <= 0.0) {
        spice::SimError e;
        e.kind = spice::SimErrorKind::NonConvergence;
        e.message = "SpiceRingModel: no oscillation for " + describe(config_);
        return e;
    }

    RingSimResult out;
    out.period = meas->period;
    out.period_stddev = meas->period_stddev;
    out.frequency = 1.0 / meas->period;
    out.cycles_measured = meas->cycles;
    if (auto duty = spice::measure_duty_cycle(*trace, mid, opt.skip_cycles)) {
        out.duty_cycle = *duty;
    }
    // Power averages over the time actually integrated. The early-exit
    // branch uses t_end; the full run keeps the historical t_stop
    // denominator bit for bit.
    out.avg_supply_power_w = res.average_source_power_w(
        ckt.node_by_name("vdd"), res.early_exit ? res.t_end : tspec.t_stop);
    out.recovery_rung = res.deepest_rung;
    out.rescued_steps = res.rescued_steps;
    out.early_exit = res.early_exit;
    out.sim_time_s = res.early_exit ? res.t_end : tspec.t_stop;
    if (res.early_exit && est > 0.0) {
        // Account the simulated cycles the exit saved.
        const double saved = (tspec.t_stop - res.t_end) / est;
        if (saved > 0.0) {
            exec::MetricsRegistry::global()
                .counter("ring.transient.early_exit_cycles")
                .add(static_cast<std::uint64_t>(std::llround(saved)));
        }
    }
    if (opt.record_waveform) out.waveform = *trace;
    return out;
}

spice::Result<RingSimResult> SpiceRingModel::try_simulate(
    double temp_k, const SpiceRingOptions& opt) const {
    if (opt.skip_cycles < 0 || opt.measure_cycles < 1 || opt.steps_per_period < 20) {
        throw std::invalid_argument("SpiceRingOptions: bad values");
    }

    // Pace the run off the analytic estimate.
    const AnalyticRingModel analytic(tech_, config_);
    const double est = analytic.period(temp_k);
    if (auto e = reject_estimate(est, temp_k, config_)) return std::move(*e);

    spice::Circuit ckt;
    const std::vector<spice::NodeId> nodes = build(ckt);
    spice::Simulator sim(ckt, make_sim_options(temp_k, opt));
    const spice::TransientSpec tspec = make_tspec(est, opt, nodes);

    auto sim_result = sim.try_transient(tspec);
    if (!sim_result.ok()) return sim_result.error();
    return extract_result(ckt, nodes, est, tspec, opt, sim_result.value());
}

std::vector<spice::Result<RingSimResult>> SpiceRingModel::try_simulate_batch(
    std::span<const double> temps_k, const SpiceRingOptions& opt,
    std::span<const std::uint64_t> fault_ctx) const {
    if (opt.skip_cycles < 0 || opt.measure_cycles < 1 || opt.steps_per_period < 20) {
        throw std::invalid_argument("SpiceRingOptions: bad values");
    }
    if (!fault_ctx.empty() && fault_ctx.size() != temps_k.size()) {
        throw std::invalid_argument(
            "try_simulate_batch: fault_ctx must be empty or match temps_k");
    }
    std::vector<spice::Result<RingSimResult>> out;
    if (temps_k.empty()) return out;
    out.reserve(temps_k.size());

    // One netlist, shared by every point: the circuit topology is
    // temperature-independent (temperature enters through SimOptions).
    spice::Circuit ckt;
    const std::vector<spice::NodeId> nodes = build(ckt);
    const AnalyticRingModel analytic(tech_, config_);

    // The simulated points: every point whose estimate can pace a run.
    std::vector<std::optional<spice::SimError>> rejected(temps_k.size());
    std::vector<double> ests;
    std::vector<spice::SimOptions> sim_opts;
    std::vector<spice::TransientSpec> specs;
    std::vector<std::uint64_t> ctx;
    ests.reserve(temps_k.size());
    sim_opts.reserve(temps_k.size());
    specs.reserve(temps_k.size());
    for (std::size_t i = 0; i < temps_k.size(); ++i) {
        const double est = analytic.period(temps_k[i]);
        rejected[i] = reject_estimate(est, temps_k[i], config_);
        if (rejected[i]) continue;
        ests.push_back(est);
        sim_opts.push_back(make_sim_options(temps_k[i], opt));
        specs.push_back(make_tspec(est, opt, nodes));
        if (!fault_ctx.empty()) ctx.push_back(fault_ctx[i]);
    }

    std::vector<spice::Result<spice::TransientResult>> raw;
    if (!specs.empty()) raw = spice::run_lockstep(ckt, sim_opts, specs, ctx);
    std::size_t j = 0; // Next simulated point.
    for (std::size_t i = 0; i < temps_k.size(); ++i) {
        if (rejected[i]) {
            out.push_back(std::move(*rejected[i]));
            continue;
        }
        if (!raw[j].ok()) {
            out.push_back(raw[j].error());
        } else {
            out.push_back(
                extract_result(ckt, nodes, ests[j], specs[j], opt, raw[j].value()));
        }
        ++j;
    }
    return out;
}

RingSimResult SpiceRingModel::simulate(double temp_k,
                                       const SpiceRingOptions& opt) const {
    auto r = try_simulate(temp_k, opt);
    if (!r.ok()) throw spice::SimException(r.error());
    return std::move(r.value());
}

} // namespace stsense::ring
