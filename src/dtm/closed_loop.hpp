// Closed-loop thermal management co-simulation:
//
//   RC thermal transient  ->  smart sensor (digitized reading)
//          ^                          |
//          |                          v
//   block power scaling  <-  hysteretic throttle controller
//
// This exercises the full stack the paper positions the sensor in: the
// ring transduces the die temperature at its site, the smart unit
// digitizes it at a finite sampling rate, and the DTM policy throttles
// the workload — with the sensing latency and quantization visible in
// the resulting overshoot.
#pragma once

#include "dtm/controller.hpp"
#include "sensor/monitor.hpp"
#include "sensor/smart_sensor.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/grid.hpp"

#include <string>
#include <vector>

namespace stsense::dtm {

/// Co-simulation configuration.
struct ClosedLoopConfig {
    int grid_nx = 32;
    int grid_ny = 32;
    thermal::GridParams grid_params;

    double t_end_s = 3.0;            ///< Simulated wall time.
    double dt_s = 5e-3;              ///< Thermal integration step.
    double sample_interval_s = 2e-2; ///< Sensor sampling period.

    sensor::SensorSite sensor_site{"dtm", 2.5e-3, 7.0e-3}; ///< On the hotspot.
    ThrottlePolicy policy;
    sensor::SensorOptions sensor_options;
    double cal_low_c = 0.0;   ///< Factory calibration insertions.
    double cal_high_c = 100.0;

    bool dtm_enabled = true;
    /// Blocks whose power the throttle scales; empty = all blocks.
    std::vector<std::string> throttleable_blocks{"core", "fpu"};
};

/// One recorded sample of the loop.
struct ClosedLoopSample {
    double time_s = 0.0;
    double peak_c = 0.0;        ///< Die-wide true peak.
    double sensor_true_c = 0.0; ///< True temperature at the sensor site.
    double measured_c = 0.0;    ///< Smart-unit reading (held between samples).
    double power_factor = 1.0;
    double total_power_w = 0.0;
};

/// Aggregate result.
struct ClosedLoopResult {
    std::vector<ClosedLoopSample> trace; ///< One entry per thermal step.
    double peak_c = 0.0;                 ///< Max true peak over the run.
    double time_above_trip_s = 0.0;      ///< True-peak time above trip_c.
    double avg_power_factor = 1.0;       ///< Performance cost of the policy.
    int throttle_transitions = 0;
};

class ClosedLoopSim {
public:
    /// Validates everything up front (times finite and > 0 with a step
    /// count that fits a long, site on die, calibratable sensor); throws
    /// std::invalid_argument.
    ClosedLoopSim(const phys::Technology& tech, ring::RingConfig ring_config,
                  thermal::Floorplan floorplan, ClosedLoopConfig config);

    /// Runs the co-simulation from a uniform ambient start.
    ClosedLoopResult run() const;

private:
    phys::Technology tech_;
    ring::RingConfig ring_config_;
    thermal::Floorplan floorplan_;
    ClosedLoopConfig config_;
    thermal::ThermalGrid grid_;
    sensor::SmartTemperatureSensor sensor_;
    std::vector<double> power_fixed_;       ///< Non-throttleable watts/cell.
    std::vector<double> power_throttleable_;///< Scaled by the power factor.
};

} // namespace stsense::dtm
