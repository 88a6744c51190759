#include "thermal/self_heating.hpp"

#include "cells/delay_model.hpp"
#include "phys/units.hpp"
#include "ring/analytic.hpp"

#include <cmath>
#include <stdexcept>

namespace stsense::thermal {

namespace {

/// sum(C_node) * Vdd^2 of the ring `model` was built from: every ring
/// node carries the driving stage's output parasitics plus the driven
/// stage's input load. Independent of temperature.
double switched_cv2(const phys::Technology& tech, const ring::RingConfig& config,
                    const ring::AnalyticRingModel& model) {
    const cells::DelayModel& dm = model.delay_model();
    double c_total = 0.0;
    for (std::size_t i = 0; i < config.stages.size(); ++i) {
        c_total += dm.output_capacitance(config.stages[i]) + model.stage_load(i);
    }
    return c_total * tech.vdd * tech.vdd;
}

} // namespace

double ring_dynamic_power(const phys::Technology& tech,
                          const ring::RingConfig& config, double temp_k) {
    const ring::AnalyticRingModel model(tech, config);
    return switched_cv2(tech, config, model) / model.period(temp_k);
}

SelfHeatingResult solve_self_heating(const phys::Technology& tech,
                                     const ring::RingConfig& config,
                                     double die_temp_c,
                                     const SelfHeatingParams& params) {
    // Every check fails on NaN, before the first iteration.
    if (!(std::isfinite(params.r_local) && params.r_local >= 0.0) ||
        !(params.duty >= 0.0 && params.duty <= 1.0) ||
        !(std::isfinite(params.tolerance_k) && params.tolerance_k > 0.0) ||
        params.max_iters < 1) {
        throw std::invalid_argument("SelfHeatingParams: invalid values");
    }
    if (!std::isfinite(die_temp_c)) {
        throw std::invalid_argument("solve_self_heating: die_temp_c must be finite");
    }

    // The ring is bound once; each iteration only evaluates its period.
    const ring::AnalyticRingModel model(tech, config);
    const double cv2 = switched_cv2(tech, config, model);
    SelfHeatingResult out;
    double tj_c = die_temp_c;
    for (int it = 0; it < params.max_iters; ++it) {
        const double p =
            params.duty * (cv2 / model.period(phys::celsius_to_kelvin(tj_c)));
        const double next = die_temp_c + params.r_local * p;
        const bool done = std::abs(next - tj_c) < params.tolerance_k;
        tj_c = next;
        out.avg_power_w = p;
        if (done) {
            out.junction_c = tj_c;
            out.delta_c = tj_c - die_temp_c;
            return out;
        }
    }
    throw std::runtime_error("solve_self_heating: fixed point did not settle");
}

} // namespace stsense::thermal
