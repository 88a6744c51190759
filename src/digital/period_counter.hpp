// Period-to-code gating schemes.
//
// The smart unit digitizes the oscillation period by counting edges
// between two clock domains. Two classic schemes are modelled:
//
//  * RefWindow — count oscillator rising edges during a gate of N
//    reference-clock cycles. Code is proportional to *frequency*
//    (inverse period); converting to temperature needs a reciprocal.
//  * OscWindow — count reference-clock cycles while M oscillator
//    periods elapse. Code is proportional to *period*, which is itself
//    (near-)linear in temperature — the natural choice here, and the
//    library default.
//
// Both carry a +/-1-count quantization, modelled via the gate phase.
#pragma once

#include <cstdint>

namespace stsense::digital {

enum class GatingScheme {
    RefWindow,
    OscWindow,
};

/// Gate configuration of the counter block.
struct GateConfig {
    GatingScheme scheme = GatingScheme::OscWindow;
    std::uint32_t ref_cycles = 4096;  ///< N for RefWindow.
    std::uint32_t osc_cycles = 1024;  ///< M for OscWindow (in *divided* cycles).
    double ref_freq_hz = 100e6;       ///< Reference clock frequency.
    /// Local divide-by-2^k between the ring and the counter. A GHz-class
    /// ring cannot be routed across the die to the counter; dividing at
    /// the source by 2^k sends a manageable clock instead. OscWindow
    /// gates over osc_cycles *divided* periods (so the physical window
    /// grows 2^k-fold); RefWindow counts divided edges (code shrinks
    /// 2^k-fold, costing resolution).
    int divider_log2 = 0;
};

/// Division factor 2^divider_log2 implied by the config.
double divider_ratio(const GateConfig& cfg);

/// Validates a gate config (ref_freq_hz finite and > 0, ...); throws
/// std::invalid_argument on violation.
void validate(const GateConfig& cfg);

/// Ideal (real-valued) code before quantization. Throws
/// std::invalid_argument unless the period is finite and > 0.
double ideal_code(const GateConfig& cfg, double osc_period_s);

/// Quantized code for a given oscillator period. `phase01` in [0, 1) is
/// the fractional phase offset between the gate opening and the first
/// counted edge; 0 gives the floor code, values near 1 can bump it by
/// one count (the +/-1 gating uncertainty). A non-finite period or
/// phase throws std::invalid_argument; a code past the counter's range
/// throws std::overflow_error.
std::uint32_t quantized_code(const GateConfig& cfg, double osc_period_s,
                             double phase01 = 0.0);

/// Wall-clock duration of one measurement [s] (the oscillator must stay
/// enabled at least this long).
double measurement_time(const GateConfig& cfg, double osc_period_s);

/// Temperature resolution: degrees Celsius represented by one code LSB,
/// given the sensor's period sensitivity [s/degC] at the operating
/// point. Smaller is better.
double lsb_temperature_c(const GateConfig& cfg, double osc_period_s,
                         double period_sensitivity_s_per_c);

} // namespace stsense::digital
