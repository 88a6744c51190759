// Ring-oscillator self-heating.
//
// The paper lists "the possibility to disable the oscillator in order to
// minimize self-heating" as a feature of the smart unit. This model
// quantifies the effect: the oscillator's dynamic power raises its own
// junction temperature through a local spreading resistance, which in
// turn perturbs the very period being measured. Duty-cycling the enable
// shrinks the average power and thus the error.
#pragma once

#include "phys/technology.hpp"
#include "ring/config.hpp"

namespace stsense::thermal {

/// Dynamic power drawn by an oscillating ring at junction temperature
/// `temp_k` [W]: every stage node swings rail-to-rail once per period,
/// P = sum(C_node) * Vdd^2 / T_osc (analytic period model).
double ring_dynamic_power(const phys::Technology& tech,
                          const ring::RingConfig& config, double temp_k);

/// Self-heating parameters.
struct SelfHeatingParams {
    /// Local thermal spreading resistance from the (small) sensor
    /// footprint to the bulk die [K/W].
    double r_local = 2000.0;
    /// Fraction of time the oscillator is enabled (1 = free-running).
    double duty = 1.0;
    /// Fixed-point iteration controls for the T -> P(T) -> T loop.
    int max_iters = 50;
    double tolerance_k = 1e-6;
};

/// Self-heating solution at one ambient (die-background) temperature.
struct SelfHeatingResult {
    double junction_c = 0.0;   ///< Settled sensor junction temperature [deg C].
    double delta_c = 0.0;      ///< Self-heating rise above the die [deg C].
    double avg_power_w = 0.0;  ///< Duty-weighted oscillator power [W].
};

/// Solves the self-consistent junction temperature of an enabled ring
/// sitting on a die at `die_temp_c`. Throws std::invalid_argument before
/// the first iteration unless die_temp_c and r_local are finite,
/// r_local >= 0, duty is in [0, 1], tolerance_k is finite and > 0 and
/// max_iters >= 1; throws std::runtime_error if the fixed point does not
/// settle (it always does for physical parameters).
SelfHeatingResult solve_self_heating(const phys::Technology& tech,
                                     const ring::RingConfig& config,
                                     double die_temp_c,
                                     const SelfHeatingParams& params = {});

} // namespace stsense::thermal
