#include "digital/period_counter.hpp"

#include <cmath>
#include <stdexcept>

namespace stsense::digital {

namespace {

/// A usable oscillation period: finite and > 0 (false for NaN).
bool is_period(double s) { return std::isfinite(s) && s > 0.0; }

} // namespace

double divider_ratio(const GateConfig& cfg) {
    return static_cast<double>(std::uint64_t{1} << cfg.divider_log2);
}

void validate(const GateConfig& cfg) {
    if (!(std::isfinite(cfg.ref_freq_hz) && cfg.ref_freq_hz > 0.0)) {
        throw std::invalid_argument("GateConfig: ref_freq_hz must be finite and > 0");
    }
    if (cfg.divider_log2 < 0 || cfg.divider_log2 > 16) {
        throw std::invalid_argument("GateConfig: divider_log2 out of [0, 16]");
    }
    if (cfg.scheme == GatingScheme::RefWindow && cfg.ref_cycles == 0) {
        throw std::invalid_argument("GateConfig: ref_cycles must be > 0");
    }
    if (cfg.scheme == GatingScheme::OscWindow && cfg.osc_cycles == 0) {
        throw std::invalid_argument("GateConfig: osc_cycles must be > 0");
    }
}

double ideal_code(const GateConfig& cfg, double osc_period_s) {
    validate(cfg);
    if (!is_period(osc_period_s)) {
        throw std::invalid_argument("ideal_code: period must be finite and > 0");
    }
    const double t_ref = 1.0 / cfg.ref_freq_hz;
    const double divided_period = osc_period_s * divider_ratio(cfg);
    switch (cfg.scheme) {
        case GatingScheme::RefWindow:
            return cfg.ref_cycles * t_ref / divided_period;
        case GatingScheme::OscWindow:
            return cfg.osc_cycles * divided_period / t_ref;
    }
    throw std::logic_error("ideal_code: bad scheme");
}

std::uint32_t quantized_code(const GateConfig& cfg, double osc_period_s,
                             double phase01) {
    if (!(phase01 >= 0.0 && phase01 < 1.0)) {
        throw std::invalid_argument("quantized_code: phase01 out of [0, 1)");
    }
    const double ideal = ideal_code(cfg, osc_period_s);
    const double with_phase = ideal + phase01;
    if (with_phase >= static_cast<double>(UINT32_MAX)) {
        throw std::overflow_error("quantized_code: counter overflow");
    }
    return static_cast<std::uint32_t>(with_phase);
}

double measurement_time(const GateConfig& cfg, double osc_period_s) {
    validate(cfg);
    if (!is_period(osc_period_s)) {
        throw std::invalid_argument(
            "measurement_time: period must be finite and > 0");
    }
    switch (cfg.scheme) {
        case GatingScheme::RefWindow:
            return cfg.ref_cycles / cfg.ref_freq_hz;
        case GatingScheme::OscWindow:
            return cfg.osc_cycles * osc_period_s * divider_ratio(cfg);
    }
    throw std::logic_error("measurement_time: bad scheme");
}

double lsb_temperature_c(const GateConfig& cfg, double osc_period_s,
                         double period_sensitivity_s_per_c) {
    if (period_sensitivity_s_per_c == 0.0) {
        throw std::invalid_argument("lsb_temperature_c: zero sensitivity");
    }
    // d(code)/dT = d(code)/d(period) * d(period)/dT; LSB = 1 / that.
    const double t_ref = 1.0 / cfg.ref_freq_hz;
    const double k = divider_ratio(cfg);
    double dcode_dperiod = 0.0;
    switch (cfg.scheme) {
        case GatingScheme::RefWindow:
            // Cast before negating: -uint32 wraps to a huge positive value.
            dcode_dperiod = -static_cast<double>(cfg.ref_cycles) * t_ref /
                            (k * osc_period_s * osc_period_s);
            break;
        case GatingScheme::OscWindow:
            dcode_dperiod = cfg.osc_cycles * k / t_ref;
            break;
    }
    return std::abs(1.0 / (dcode_dperiod * period_sensitivity_s_per_c));
}

} // namespace stsense::digital
