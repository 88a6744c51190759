// ThermalMonitor — the paper's full thermal-mapping application:
// several identical ring-oscillator sensors distributed over the die,
// read out through the smart unit's channel multiplexer, against the
// ground-truth temperature field of the RC thermal model.
#pragma once

#include "digital/smart_unit.hpp"
#include "phys/technology.hpp"
#include "ring/config.hpp"
#include "sensor/site_health.hpp"
#include "sensor/smart_sensor.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/grid.hpp"

#include <mutex>
#include <string>
#include <vector>

namespace stsense::sensor {

/// Placement of one sensor on the die.
struct SensorSite {
    std::string name;
    double x = 0.0; ///< [m] from the die's left edge.
    double y = 0.0; ///< [m] from the die's bottom edge.
};

/// Monitor configuration.
struct MonitorConfig {
    int grid_nx = 48;
    int grid_ny = 48;
    thermal::GridParams grid_params;
    SensorOptions sensor_options;
    double cal_low_c = 0.0;   ///< Factory calibration insertions.
    double cal_high_c = 100.0;

    /// Within-die mismatch between the nominally identical rings (see
    /// ring::sample_stage_mismatch). Active when enable_mismatch is set.
    bool enable_mismatch = false;
    ring::MismatchSpec mismatch;
    std::uint64_t mismatch_seed = 1;
    /// false: one shared calibration (taken on the nominal ring) serves
    /// every site — the cheap production flow. true: each site is
    /// calibrated individually, absorbing its own mismatch.
    bool individual_calibration = false;

    /// Over-temperature alarm threshold [deg C]; <= -273.15 disables.
    /// Programmed into the smart unit's THRESHOLD register (as the
    /// nominal ring's code at that temperature) before the scan.
    double alarm_threshold_c = -300.0;

    /// Resilient readout. false keeps the historical scan path (and its
    /// outputs) bit-for-bit unchanged. true enables the SiteHealth
    /// supervisor: per-site self-tests, replica quorum voting, the
    /// per-measurement watchdog, and neighbor interpolation of
    /// quarantined sites — a thermal map is always produced.
    bool enable_health = false;
    SiteHealthConfig health;
    /// Redundant rings per site (replicated layout macros read through
    /// consecutive mux channels). The per-site value is the quorum vote
    /// across the replicas; 1 disables voting. Requires
    /// sites * redundancy <= 256 mux channels.
    int redundancy = 1;
};

/// How much to trust one site's reported temperature.
enum class SiteConfidence : std::uint8_t {
    Measured = 0,     ///< Direct single-ring measurement.
    Voted = 1,        ///< Quorum vote across redundant rings.
    Interpolated = 2, ///< Reconstructed from spatial neighbors.
    Unavailable = 3,  ///< No measurement and no neighbors to borrow from.
};

const char* to_string(SiteConfidence confidence);

/// One multiplexed readout.
struct SiteReading {
    std::string name;
    double x = 0.0;
    double y = 0.0;
    double true_c = 0.0;     ///< Ground-truth die temperature at the site.
    double measured_c = 0.0; ///< Smart-unit output.
    double error_c = 0.0;    ///< measured - true.
    std::uint32_t code = 0;
    /// false: this ring's readout failed (non-finite period, or an
    /// injected Site::Point fault). The reading is excluded from the
    /// map's error statistics; measured_c/error_c are NaN.
    bool valid = true;
    // --- Resilient-scan annotations (defaults = legacy path) ----------
    SiteState health = SiteState::Healthy;
    SiteConfidence confidence = SiteConfidence::Measured;
    int rings_total = 1;    ///< Replica rings probed for this value.
    int rings_agreeing = 1; ///< Replicas within quorum tolerance.
};

/// Full thermal-map scan result. Error statistics cover the valid sites
/// only — a map with dead sensors still reports on the live ones.
struct MapResult {
    std::vector<SiteReading> sites;
    std::size_t invalid_sites = 0; ///< Sites excluded from the statistics.
    double max_abs_error_c = 0.0;
    double rms_error_c = 0.0;
    std::vector<double> true_map_c; ///< Grid temperatures (row-major).
    double die_peak_c = 0.0;
    double scan_time_s = 0.0; ///< Total mux'd measurement wall time.
    bool alarm = false;       ///< Smart-unit alarm latched during the scan.
    std::string alarm_site;   ///< Name of the first alarming site.
    // --- Resilient-scan summary (zero on the legacy path) -------------
    std::size_t degraded_sites = 0;
    std::size_t quarantined_sites = 0; ///< Quarantined after this scan.
    std::size_t dead_sites = 0;
    std::size_t interpolated_sites = 0;
    /// Max |measured - true| over the interpolated sites — how well the
    /// degraded map papers over its holes (NaN-free; 0 when none).
    double max_interp_error_c = 0.0;
    std::uint64_t watchdog_trips = 0;  ///< Measurements aborted this scan.
    std::uint64_t readout_retries = 0; ///< Transient-fault retries this scan.
};

class ThermalMonitor {
public:
    /// All sensors share `ring_config` (identical layout macros) and the
    /// factory calibration from `config`. Sites must be on the die (a
    /// NaN coordinate is not), and with enable_health the watchdog
    /// deadline (health.watchdog_margin x the nominal measurement
    /// length) must be below 2^63 ref cycles; std::invalid_argument
    /// otherwise.
    ThermalMonitor(const phys::Technology& tech, ring::RingConfig ring_config,
                   thermal::Floorplan floorplan, std::vector<SensorSite> sites,
                   MonitorConfig config = {});

    /// Scans every site through the multiplexed smart unit against the
    /// floorplan's steady-state thermal field. The field is solved by
    /// the first scan() (thread-safely) and reused by every later one:
    /// the floorplan, grid and config cannot change, so each scan would
    /// solve the same system, and scan() == scan_field(steady_state)
    /// bitwise every time. With MonitorConfig::enable_health the
    /// resilient path runs instead: supervisor state carries over
    /// between scans (quarantine, backoff, recovery), which is why
    /// scan() stays callable repeatedly.
    MapResult scan() const;

    /// Scans the sites against a caller-supplied temperature field
    /// (row-major, grid_nx x grid_ny — e.g. a transient snapshot from a
    /// closed-loop run) instead of the steady-state solve. Everything
    /// downstream of the field — readout, health ledger, quorum,
    /// interpolation — is the exact scan() code path, so scan() ==
    /// scan_field(steady_state) bitwise. Throws std::invalid_argument on
    /// a size mismatch or a non-finite temperature.
    MapResult scan_field(std::vector<double> temps_c) const;

    const std::vector<SensorSite>& sites() const { return sites_; }
    const thermal::Floorplan& floorplan() const { return floorplan_; }
    const MonitorConfig& config() const { return config_; }

    /// The monitor's own RC grid — shared with closed-loop users so the
    /// field they step and the field the sensors read are one object.
    const thermal::ThermalGrid& grid() const { return grid_; }

    /// Supervisor view (resilient mode; empty supervisor otherwise).
    const SiteHealthSupervisor& health() const { return supervisor_; }

private:
    MapResult scan_legacy(std::vector<double> field_c) const;
    MapResult scan_resilient(std::vector<double> field_c) const;

    phys::Technology tech_;
    ring::RingConfig ring_config_;
    thermal::Floorplan floorplan_;
    std::vector<SensorSite> sites_;
    MonitorConfig config_;
    thermal::ThermalGrid grid_;
    SmartTemperatureSensor sensor_; ///< Nominal ring; holds the shared calibration.
    /// Per-site sensors (mismatched rings); empty when mismatch is off.
    std::vector<SmartTemperatureSensor> site_sensors_;
    /// Health ledger across scans (resilient mode); scan() is logically
    /// const but advances the supervisor's epoch and site states.
    mutable SiteHealthSupervisor supervisor_;
    /// Resilient-scan watchdog deadline, fixed at construction.
    std::uint64_t watchdog_cycles_ = 0;
    /// The floorplan's steady field, solved once by the first scan().
    mutable std::once_flag steady_once_;
    mutable std::vector<double> steady_c_;
};

/// A 3x3 uniform sensor placement over a floorplan's die.
std::vector<SensorSite> uniform_sites(const thermal::Floorplan& fp, int nx,
                                      int ny);

} // namespace stsense::sensor
