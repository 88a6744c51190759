#include "dtm/closed_loop.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace stsense::dtm {

namespace {

bool is_throttleable(const thermal::Block& block,
                     const std::vector<std::string>& names) {
    if (names.empty()) return true;
    return std::find(names.begin(), names.end(), block.name) != names.end();
}

} // namespace

ClosedLoopSim::ClosedLoopSim(const phys::Technology& tech,
                             ring::RingConfig ring_config,
                             thermal::Floorplan floorplan,
                             ClosedLoopConfig config)
    : tech_(tech),
      ring_config_(std::move(ring_config)),
      floorplan_(std::move(floorplan)),
      config_(std::move(config)),
      grid_(config_.grid_nx, config_.grid_ny, floorplan_.die_width(),
            floorplan_.die_height(), config_.grid_params),
      sensor_(tech_, ring_config_, config_.sensor_options) {
    validate(config_.policy);
    // Every check fails on NaN. run() casts t_end_s / dt_s to a step
    // count, so that ratio must fit a long.
    auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
    if (!positive(config_.t_end_s) || !positive(config_.dt_s) ||
        !positive(config_.sample_interval_s)) {
        throw std::invalid_argument(
            "ClosedLoopConfig: times must be finite and > 0");
    }
    if (!(config_.t_end_s / config_.dt_s <
          static_cast<double>(std::numeric_limits<long>::max()))) {
        throw std::invalid_argument(
            "ClosedLoopConfig: t_end_s / dt_s steps do not fit a long");
    }
    const auto& site = config_.sensor_site;
    if (!(site.x >= 0.0 && site.x <= floorplan_.die_width() &&
          site.y >= 0.0 && site.y <= floorplan_.die_height())) {
        throw std::invalid_argument("ClosedLoopConfig: sensor site off die");
    }

    // Split the floorplan's power into fixed and throttleable rasters.
    thermal::Floorplan fixed(floorplan_.die_width(), floorplan_.die_height());
    thermal::Floorplan throttleable(floorplan_.die_width(),
                                    floorplan_.die_height());
    for (const auto& b : floorplan_.blocks()) {
        (is_throttleable(b, config_.throttleable_blocks) ? throttleable : fixed)
            .add_block(b);
    }
    power_fixed_ = fixed.power_map(config_.grid_nx, config_.grid_ny);
    power_throttleable_ =
        throttleable.power_map(config_.grid_nx, config_.grid_ny);

    sensor_.calibrate_two_point(config_.cal_low_c, config_.cal_high_c);
}

ClosedLoopResult ClosedLoopSim::run() const {
    const std::size_t n_cells = power_fixed_.size();
    std::vector<double> temps(n_cells, config_.grid_params.ambient_c);
    std::vector<double> power(n_cells, 0.0);

    ThrottleController controller(config_.policy);
    double factor = 1.0;
    double measured = config_.grid_params.ambient_c;
    double next_sample = 0.0;

    ClosedLoopResult result;
    result.peak_c = config_.grid_params.ambient_c;
    double factor_time_sum = 0.0;

    const long steps = static_cast<long>(config_.t_end_s / config_.dt_s);
    for (long s = 0; s < steps; ++s) {
        const double t = static_cast<double>(s) * config_.dt_s;

        if (config_.dtm_enabled && t >= next_sample) {
            const double site_true = grid_.sample(temps, config_.sensor_site.x,
                                                  config_.sensor_site.y);
            measured = sensor_.measure(site_true).temperature_c;
            factor = controller.update(measured);
            next_sample += config_.sample_interval_s;
        }

        for (std::size_t i = 0; i < n_cells; ++i) {
            power[i] = power_fixed_[i] + factor * power_throttleable_[i];
        }
        grid_.transient_step(temps, power, config_.dt_s);

        ClosedLoopSample sample;
        sample.time_s = t + config_.dt_s;
        sample.peak_c = *std::max_element(temps.begin(), temps.end());
        sample.sensor_true_c =
            grid_.sample(temps, config_.sensor_site.x, config_.sensor_site.y);
        sample.measured_c = measured;
        sample.power_factor = factor;
        sample.total_power_w = 0.0;
        for (double p : power) sample.total_power_w += p;
        result.trace.push_back(sample);

        result.peak_c = std::max(result.peak_c, sample.peak_c);
        if (sample.peak_c > config_.policy.trip_c) {
            result.time_above_trip_s += config_.dt_s;
        }
        factor_time_sum += factor;
    }

    result.avg_power_factor =
        steps > 0 ? factor_time_sum / static_cast<double>(steps) : 1.0;
    result.throttle_transitions = controller.transitions();
    return result;
}

} // namespace stsense::dtm
