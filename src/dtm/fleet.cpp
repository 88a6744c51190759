#include "dtm/fleet.hpp"

#include "exec/cancel.hpp"
#include "exec/fault_injector.hpp"
#include "exec/metrics.hpp"
#include "obs/trace.hpp"
#include "sensor/site_health.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace stsense::dtm {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Trust weight of one site reading, from the resilient scan's
/// confidence annotation. Interpolated/Unavailable readings are not
/// *this region's* sensors speaking — they carry no trust here (a
/// region whose every site is interpolated has lost its sensors, which
/// is exactly what the SensorLoss detector must see).
double site_trust(const sensor::SiteReading& r) {
    double w = 0.0;
    switch (r.confidence) {
    case sensor::SiteConfidence::Measured: w = 1.0; break;
    case sensor::SiteConfidence::Voted: w = 0.9; break;
    case sensor::SiteConfidence::Interpolated:
    case sensor::SiteConfidence::Unavailable: return 0.0;
    }
    if (r.health == sensor::SiteState::Degraded) w *= 0.75;
    return w;
}

/// The monitor's spatial drift self-test rejects sites that disagree
/// with their neighborhood — correct for the smooth fields PR 4 scans,
/// wrong under DTM, where a regulated hotspot site legitimately sits
/// 30 degC above the guard ring and would be quarantined as "drifted".
/// The fleet therefore runs its monitor with the smoothness test
/// disabled and replaces it with the per-region model-envelope
/// (Excursion) detector, which checks each sensor against the
/// identified thermal model instead of against its neighbors. Voting,
/// watchdogs, and range checks stay armed.
sensor::MonitorConfig fleet_monitor_config(sensor::MonitorConfig mc) {
    mc.health.mad_k = 1e12;
    return mc;
}

/// Smallest gap between two axis-aligned rectangles (0 when touching
/// or overlapping).
double rect_gap(const thermal::Block& a, const thermal::Block& b) {
    const double gx = std::max(
        {0.0, b.x - (a.x + a.width), a.x - (b.x + b.width)});
    const double gy = std::max(
        {0.0, b.y - (a.y + a.height), a.y - (b.y + b.height)});
    return std::max(gx, gy);
}

} // namespace

// ---- WorkloadTrace -----------------------------------------------------

double WorkloadTrace::activity_at(double t_s, std::size_t region) const {
    if (phases.empty()) return 1.0;
    double t = 0.0;
    const WorkloadPhase* current = &phases.back();
    for (const auto& p : phases) {
        t += p.duration_s;
        if (t_s < t) {
            current = &p;
            break;
        }
    }
    return region < current->activity.size() ? current->activity[region] : 1.0;
}

// ---- ControlOptions ----------------------------------------------------

Expected<bool> ControlOptions::try_validate() const {
    auto fail = [](const char* msg) {
        return Expected<bool>(Error{ErrorKind::OutOfRange, msg});
    };
    // Every check is written to fail on NaN, and every field must be
    // finite: an infinite or NaN time would reach run() and tune() as a
    // step count. run() and tune() cast lround(a / b) to int step counts.
    auto fits_int = [](double steps) {
        return steps < static_cast<double>(std::numeric_limits<int>::max());
    };
    if (!(std::isfinite(target_c_) && std::isfinite(trip_c_) &&
          target_c_ < trip_c_)) {
        return fail("ControlOptions: target must lie below trip");
    }
    if (!(std::isfinite(control_dt_s_) && control_dt_s_ > 0.0)) {
        return fail("ControlOptions: control_dt must be > 0");
    }
    if (!(sim_dt_s_ > 0.0 && sim_dt_s_ <= control_dt_s_)) {
        return fail("ControlOptions: sim_dt must be in (0, control_dt]");
    }
    if (!(std::isfinite(duration_s_) && duration_s_ > 0.0)) {
        return fail("ControlOptions: duration must be > 0");
    }
    if (!fits_int(duration_s_ / control_dt_s_) ||
        !fits_int(control_dt_s_ / sim_dt_s_)) {
        return fail("ControlOptions: duration / control_dt and "
                    "control_dt / sim_dt must fit an int step count");
    }
    if (!(u_floor_ > 0.0 && u_floor_ < 1.0)) {
        return fail("ControlOptions: throttle_floor must be in (0, 1)");
    }
    if (!(std::isfinite(tau_c_s_) && tau_c_s_ > 0.0)) {
        return fail("ControlOptions: tau_c must be > 0");
    }
    if (!(tune_step_ > 0.0 && tune_step_ < 1.0)) {
        return fail("ControlOptions: tune_step must be in (0, 1)");
    }
    if (!(std::isfinite(tune_horizon_s_) &&
          tune_horizon_s_ >= 10.0 * sim_dt_s_)) {
        return fail("ControlOptions: tune_horizon must cover >= 10 sim steps");
    }
    if (!fits_int(tune_horizon_s_ / sim_dt_s_)) {
        return fail("ControlOptions: tune_horizon / sim_dt must fit an int "
                    "step count");
    }
    if (!(neighbor_derate_ > 0.0 && neighbor_derate_ <= 1.0)) {
        return fail("ControlOptions: neighbor_derate must be in (0, 1]");
    }
    if (!(std::isfinite(adjacency_gap_m_) && adjacency_gap_m_ >= 0.0)) {
        return fail("ControlOptions: adjacency_gap must be >= 0");
    }
    if (!(std::isfinite(settle_band_c_) && settle_band_c_ > 0.0)) {
        return fail("ControlOptions: settle_band must be > 0");
    }
    const SupervisorConfig& s = supervisor_;
    if (s.suspect_after < 1 || s.fault_after < s.suspect_after ||
        s.recover_after < 1 || s.arm_after_steps < 0 ||
        s.backoff_base_steps < 1 ||
        s.backoff_max_steps < s.backoff_base_steps) {
        return fail("ControlOptions: supervisor ladder thresholds malformed");
    }
    if (!(std::isfinite(s.excursion_c) && s.excursion_c > 0.0 &&
          std::isfinite(s.stuck_tol) && s.stuck_tol > 0.0 &&
          s.trust_floor >= 0.0 && s.trust_floor < 1.0)) {
        return fail("ControlOptions: supervisor detector thresholds malformed");
    }
    return true;
}

const ControlOptions& ControlOptions::validate() const {
    if (auto v = try_validate(); !v.ok()) {
        throw std::invalid_argument(v.error().message);
    }
    return *this;
}

// ---- DtmFleet ----------------------------------------------------------

DtmFleet::DtmFleet(const phys::Technology& tech, ring::RingConfig ring_config,
                   thermal::Floorplan floorplan,
                   std::vector<RegionSpec> regions,
                   std::vector<sensor::SensorSite> sites,
                   sensor::MonitorConfig monitor_config,
                   ControlOptions options)
    : floorplan_(std::move(floorplan)),
      regions_(std::move(regions)),
      options_(options),
      monitor_(tech, std::move(ring_config), floorplan_, std::move(sites),
               fleet_monitor_config(monitor_config)) {
    options_.validate();
    if (regions_.empty()) throw std::invalid_argument("DtmFleet: no regions");
    const auto& blocks = floorplan_.blocks();
    const std::size_t n_sites = monitor_.sites().size();
    std::vector<std::uint8_t> block_claimed(blocks.size(), 0);
    for (const auto& r : regions_) {
        if (r.block_indices.empty() || r.site_indices.empty()) {
            throw std::invalid_argument("DtmFleet: region '" + r.name +
                                        "' needs blocks and sites");
        }
        for (std::size_t b : r.block_indices) {
            if (b >= blocks.size()) {
                throw std::invalid_argument("DtmFleet: region '" + r.name +
                                            "' block index out of range");
            }
            if (block_claimed[b] != 0) {
                throw std::invalid_argument("DtmFleet: block claimed twice");
            }
            block_claimed[b] = 1;
        }
        for (std::size_t s : r.site_indices) {
            if (s >= n_sites) {
                throw std::invalid_argument("DtmFleet: region '" + r.name +
                                            "' site index out of range");
            }
        }
    }

    const int nx = monitor_.config().grid_nx;
    const int ny = monitor_.config().grid_ny;
    const double dx = floorplan_.die_width() / nx;
    const double dy = floorplan_.die_height() / ny;

    // Per-region cell sets (the envelope invariant's ground truth) and
    // per-region power rasters (block power at scale 1).
    region_cells_.resize(regions_.size());
    region_raster_.resize(regions_.size());
    for (std::size_t r = 0; r < regions_.size(); ++r) {
        thermal::Floorplan own(floorplan_.die_width(), floorplan_.die_height());
        for (std::size_t b : regions_[r].block_indices) {
            own.add_block(blocks[b]);
            const auto& blk = blocks[b];
            for (int iy = 0; iy < ny; ++iy) {
                for (int ix = 0; ix < nx; ++ix) {
                    const double cx = (ix + 0.5) * dx;
                    const double cy = (iy + 0.5) * dy;
                    if (cx >= blk.x && cx <= blk.x + blk.width &&
                        cy >= blk.y && cy <= blk.y + blk.height) {
                        region_cells_[r].push_back(
                            static_cast<std::size_t>(iy) * nx + ix);
                    }
                }
            }
        }
        region_raster_[r] = own.power_map(nx, ny);
        if (region_cells_[r].empty()) {
            throw std::invalid_argument("DtmFleet: region '" +
                                        regions_[r].name +
                                        "' covers no grid cells");
        }
    }
    thermal::Floorplan rest(floorplan_.die_width(), floorplan_.die_height());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        if (block_claimed[b] == 0) rest.add_block(blocks[b]);
    }
    base_raster_ = rest.power_map(nx, ny);

    // Region adjacency for neighbor derating: any block pair within the
    // configured gap makes the regions neighbors.
    adjacency_.resize(regions_.size());
    for (std::size_t r = 0; r < regions_.size(); ++r) {
        for (std::size_t q = 0; q < regions_.size(); ++q) {
            if (q == r) continue;
            bool adjacent = false;
            for (std::size_t br : regions_[r].block_indices) {
                for (std::size_t bq : regions_[q].block_indices) {
                    adjacent = adjacent || rect_gap(blocks[br], blocks[bq]) <=
                                               options_.adjacency_gap_m();
                }
            }
            if (adjacent) adjacency_[r].push_back(q);
        }
    }

    models_.resize(regions_.size());
    gains_.resize(regions_.size());
    t_full_.assign(regions_.size(), 0.0);
    gain_matrix_.assign(regions_.size() * regions_.size(), 0.0);
    supervisors_.assign(regions_.size(),
                        ControllerSupervisor(options_.supervisor_config()));
}

std::vector<double> DtmFleet::raster(const std::vector<double>& scale) const {
    std::vector<double> out = base_raster_;
    for (std::size_t r = 0; r < regions_.size(); ++r) {
        const auto& own = region_raster_[r];
        for (std::size_t c = 0; c < out.size(); ++c) {
            out[c] += own[c] * scale[r];
        }
    }
    return out;
}

double DtmFleet::region_temp(const std::vector<double>& field,
                             std::size_t r) const {
    std::vector<double> samples;
    samples.reserve(regions_[r].site_indices.size());
    const auto& sites = monitor_.sites();
    for (std::size_t si : regions_[r].site_indices) {
        samples.push_back(
            monitor_.grid().sample(field, sites[si].x, sites[si].y));
    }
    return sensor::median_of(std::move(samples));
}

double DtmFleet::region_true_peak(const std::vector<double>& field,
                                  std::size_t r) const {
    double peak = -std::numeric_limits<double>::infinity();
    for (std::size_t c : region_cells_[r]) peak = std::max(peak, field[c]);
    return peak;
}

void DtmFleet::tune() {
    if (tuned_) return;
    OBS_SPAN("dtm.fleet.tune");
    auto& mx = exec::MetricsRegistry::global();
    const std::size_t n = regions_.size();
    const double du = options_.tune_step_u();
    const auto& grid = monitor_.grid();

    // Static gain matrix from R+1 steady-state solves: K_rq =
    // dT_r / du_q, measured by dipping one region's throttle at a time.
    std::vector<double> scale(n, 1.0);
    const auto field_full = grid.steady_state(raster(scale));
    ++tune_solves_;
    for (std::size_t r = 0; r < n; ++r) {
        t_full_[r] = region_temp(field_full, r);
    }
    for (std::size_t q = 0; q < n; ++q) {
        scale.assign(n, 1.0);
        scale[q] = 1.0 - du;
        const auto field_down = grid.steady_state(raster(scale));
        ++tune_solves_;
        for (std::size_t r = 0; r < n; ++r) {
            gain_matrix_[r * n + q] =
                (t_full_[r] - region_temp(field_down, r)) / du;
        }
    }

    // Per-region dynamics: starting from the full-power steady state,
    // dip the region's throttle and record its own transient for the
    // FOPDT two-point fit; SIMC turns the fit into PI gains.
    const double dt = options_.sim_dt_s();
    const int horizon =
        static_cast<int>(std::lround(options_.tune_horizon_s() / dt));
    for (std::size_t r = 0; r < n; ++r) {
        obs::Span span("dtm.fleet.tune.step");
        span.num("region", static_cast<double>(r));
        scale.assign(n, 1.0);
        scale[r] = 1.0 - du;
        const auto power = raster(scale);
        auto field = field_full;
        std::vector<double> times(1, 0.0);
        std::vector<double> temps(1, t_full_[r]);
        for (int i = 1; i <= horizon; ++i) {
            grid.transient_step(field, power, dt);
            times.push_back(i * dt);
            temps.push_back(region_temp(field, r));
        }
        tune_solves_ += static_cast<std::uint64_t>(horizon);
        models_[r] = fit_fopdt(times, temps, -du);
        gains_[r] = simc_gains(models_[r], options_.tau_c_s(),
                               options_.control_dt_s());
        span.tag("fit", models_[r].valid ? "ok" : "degenerate");
    }
    mx.counter("dtm.tune.iterations").add(tune_solves_);
    tuned_ = true;
}

FleetResult DtmFleet::run(const WorkloadTrace& trace) {
    tune();
    OBS_SPAN_TAG("dtm.fleet.run",
                 "mode", options_.supervised_enabled() ? "supervised" : "raw");
    auto& mx = exec::MetricsRegistry::global();
    const std::size_t n = regions_.size();
    const double h = options_.control_dt_s();
    const int inner =
        std::max(1, static_cast<int>(std::lround(h / options_.sim_dt_s())));
    const double dt = h / inner;
    const int steps_n = std::max(
        1, static_cast<int>(std::lround(options_.duration_s() / h)));
    const bool supervised = options_.supervised_enabled();
    const double target = options_.target_c();
    const double u_floor = options_.throttle_floor_u();

    // Fresh per-run state; identification is reused across runs.
    supervisors_.assign(n, ControllerSupervisor(options_.supervisor_config()));
    pids_.clear();
    for (std::size_t r = 0; r < n; ++r) {
        PidConfig pc;
        pc.gains = gains_[r];
        pc.out_min = u_floor;
        pc.out_max = 1.0;
        pids_.emplace_back(pc);
        if (models_[r].valid) {
            supervisors_[r].mark_tuned();
        } else {
            supervisors_[r].mark_tune_failed();
        }
    }
    mx.gauge("dtm.fleet.regions").set(static_cast<double>(n));

    const auto& grid = monitor_.grid();
    const double ambient = grid.params().ambient_c;
    // Fallback time constant for regions whose fit degenerated: the
    // grid's vertical RC (c_v * t_die / h_eff).
    const double tau_fallback = grid.params().c_v *
                                grid.params().die_thickness /
                                grid.params().h_eff;

    std::vector<double> field(
        static_cast<std::size_t>(grid.nx()) * grid.ny(), ambient);

    // Model predictor state: per-region first-order response around the
    // MIMO static map, with the identified dead time realized as an
    // input-side delay line on each region's achieved throttle.
    std::vector<double> pred(n), pred_prev(n), tau(n), alpha(n);
    std::vector<std::vector<double>> delay(n);
    std::vector<std::size_t> delay_pos(n, 0);
    for (std::size_t r = 0; r < n; ++r) {
        pred[r] = region_temp(field, r);
        pred_prev[r] = pred[r];
        tau[r] = models_[r].valid && models_[r].tau_s > 0.0 ? models_[r].tau_s
                                                            : tau_fallback;
        alpha[r] = 1.0 - std::exp(-h / tau[r]);
        const int d = models_[r].valid
                          ? std::clamp(static_cast<int>(std::lround(
                                           models_[r].dead_time_s / h)),
                                       0, 8)
                          : 0;
        delay[r].assign(static_cast<std::size_t>(d), 1.0);
    }

    FleetResult out;
    out.tune_solves = tune_solves_;
    std::vector<double> region_peak(n,
                                    -std::numeric_limits<double>::infinity());
    std::vector<double> u_cmd(n, 1.0), u_ach(n, 1.0), act(n, 1.0);
    std::vector<double> measured(n, kNan), trust(n, 0.0), ff(n, 1.0);
    std::vector<std::uint8_t> valid(n, 0);

    auto* inj = exec::FaultInjector::active();
    auto region_killed = [&](std::size_t r) {
        return inj != nullptr &&
               inj->trip(exec::FaultInjector::Site::RegionKill,
                         exec::FaultInjector::point_stream(r));
    };
    auto actuator_stuck = [&](std::size_t r) {
        return inj != nullptr &&
               inj->trip(exec::FaultInjector::Site::ActuatorStuck,
                         exec::FaultInjector::point_stream(r));
    };

    for (int k = 0; k < steps_n; ++k) {
        // Control steps are the fleet's poll points: a cancelled or
        // deadlined dtm_run request unwinds at the next step boundary.
        exec::CancelScope::current().check();
        OBS_SPAN("dtm.fleet.step");
        const double t = k * h;

        // ---- sense: degraded readout against the live field ------------
        const auto map = monitor_.scan_field(field);
        for (std::size_t r = 0; r < n; ++r) {
            measured[r] = kNan;
            trust[r] = 0.0;
            valid[r] = 0;
            if (region_killed(r)) continue;
            std::vector<double> vals;
            double wsum = 0.0;
            for (std::size_t si : regions_[r].site_indices) {
                const auto& sr = map.sites[si];
                if (!sr.valid || !std::isfinite(sr.measured_c)) continue;
                const double w = site_trust(sr);
                if (w <= 0.0) continue;
                vals.push_back(sr.measured_c);
                wsum += w;
            }
            if (vals.empty()) continue;
            measured[r] = sensor::median_of(std::move(vals));
            trust[r] = wsum /
                       static_cast<double>(regions_[r].site_indices.size());
            valid[r] = 1;
        }

        // ---- decide: feedforward + PID on the trust-blended pv ---------
        for (std::size_t r = 0; r < n; ++r) {
            act[r] = trace.activity_at(t, r);
            const double k_rr = gain_matrix_[r * n + r];
            ff[r] = 1.0;
            if (k_rr > 1e-9) {
                const double want =
                    (1.0 + (target - t_full_[r]) / k_rr) /
                    std::max(act[r], 1e-6);
                ff[r] = std::clamp(want, u_floor, 1.0);
            }
            // Trust-blend measurement and model — and clamp the
            // measurement into the model envelope first: a reading
            // further than excursion_c from the prediction is detector
            // territory (the Excursion streak is already counting), not
            // a setpoint error the loop should chase. This is what caps
            // how hard a drifted-cold sensor can drive the region
            // before the supervisor latches. Mode-independent, so
            // supervised and unsupervised runs stay bitwise identical.
            double pv = pred[r];
            if (valid[r] != 0) {
                const double env = options_.supervisor_config().excursion_c;
                const double m = std::clamp(measured[r], pred[r] - env,
                                            pred[r] + env);
                pv = trust[r] * m + (1.0 - trust[r]) * pred[r];
            }
            u_cmd[r] = pids_[r].update(target, pv, h, ff[r]);
        }

        // ---- supervise: safe-state override + neighbor derating --------
        if (supervised) {
            for (std::size_t r = 0; r < n; ++r) {
                if (!supervisors_[r].faulted()) continue;
                if (supervisors_[r].should_probe()) {
                    supervisors_[r].begin_probe();
                    // Bumpless hand-back: the probe resumes from the
                    // floor, not from a stale integral.
                    pids_[r].preset_output(u_floor, target - pred[r], ff[r]);
                }
                u_cmd[r] = u_floor;
            }
            // Neighbor derating is for faults that leave the region
            // possibly *hot*: a stuck actuator cannot be throttled and
            // an excursion means the model/sensor pair lost the plot.
            // A sensor-loss or tune-failure region is already pinned at
            // the floor and provably cooling — its neighbors keep their
            // throughput.
            for (std::size_t r = 0; r < n; ++r) {
                if (!supervisors_[r].faulted()) continue;
                const ControlFault f = supervisors_[r].last_fault();
                if (f != ControlFault::StuckActuator &&
                    f != ControlFault::Excursion) {
                    continue;
                }
                for (std::size_t q : adjacency_[r]) {
                    if (!supervisors_[q].faulted()) {
                        u_cmd[q] = std::min(u_cmd[q],
                                            options_.neighbor_derate_cap());
                    }
                }
            }
        }

        // ---- actuate (fault-injectable) --------------------------------
        for (std::size_t r = 0; r < n; ++r) {
            u_ach[r] = actuator_stuck(r) ? inj->config().stuck_factor
                                         : u_cmd[r];
        }

        // ---- observe ---------------------------------------------------
        if (supervised) {
            for (std::size_t r = 0; r < n; ++r) {
                Observation o;
                o.u_commanded = u_cmd[r];
                o.u_achieved = u_ach[r];
                o.measured_c = valid[r] != 0 ? measured[r] : kNan;
                o.predicted_c = pred[r];
                o.predicted_prev_c = pred_prev[r];
                o.reading_valid = valid[r] != 0;
                o.trust = trust[r];
                supervisors_[r].observe(o);
            }
        }

        // ---- advance plant over [t, t + h] -----------------------------
        std::vector<double> scale(n);
        for (std::size_t r = 0; r < n; ++r) scale[r] = act[r] * u_ach[r];
        const auto power = raster(scale);
        double step_die_peak = -std::numeric_limits<double>::infinity();
        for (int i = 0; i < inner; ++i) {
            grid.transient_step(field, power, dt);
            for (std::size_t r = 0; r < n; ++r) {
                region_peak[r] =
                    std::max(region_peak[r], region_true_peak(field, r));
            }
            step_die_peak = std::max(
                step_die_peak,
                *std::max_element(field.begin(), field.end()));
        }

        // ---- advance predictor to t + h --------------------------------
        std::vector<double> u_del(n);
        for (std::size_t q = 0; q < n; ++q) {
            if (delay[q].empty()) {
                u_del[q] = u_ach[q];
            } else {
                u_del[q] = delay[q][delay_pos[q]];
                delay[q][delay_pos[q]] = u_ach[q];
                delay_pos[q] = (delay_pos[q] + 1) % delay[q].size();
            }
        }
        for (std::size_t r = 0; r < n; ++r) {
            double t_ss = t_full_[r];
            for (std::size_t q = 0; q < n; ++q) {
                t_ss += gain_matrix_[r * n + q] * (act[q] * u_del[q] - 1.0);
            }
            pred_prev[r] = pred[r];
            pred[r] += alpha[r] * (t_ss - pred[r]);
        }

        // ---- record ----------------------------------------------------
        FleetStep rec;
        rec.t_s = (k + 1) * h;
        rec.die_peak_c = step_die_peak;
        rec.u = u_cmd;
        rec.u_achieved = u_ach;
        rec.measured_c = measured;
        rec.predicted_c = pred_prev; // the prediction this step was judged by
        rec.trust = trust;
        rec.true_c.resize(n);
        rec.state.resize(n);
        for (std::size_t r = 0; r < n; ++r) {
            rec.true_c[r] = region_true_peak(field, r);
            rec.state[r] = supervisors_[r].state();
        }
        out.die_peak_c = std::max(out.die_peak_c, step_die_peak);
        out.steps.push_back(std::move(rec));
    }

    // ---- summarize -----------------------------------------------------
    for (std::size_t r = 0; r < n; ++r) {
        RegionTelemetry rt;
        rt.name = regions_[r].name;
        rt.state = supervisors_[r].state();
        rt.last_fault = supervisors_[r].last_fault();
        rt.u = u_cmd[r];
        rt.true_c = out.steps.back().true_c[r];
        rt.peak_true_c = region_peak[r];
        rt.model = models_[r];
        rt.gains = gains_[r];
        rt.supervisor = supervisors_[r].record();
        out.fault_latches += rt.supervisor.fault_latches;
        out.regions.push_back(std::move(rt));
    }
    for (const auto& s : out.steps) {
        for (double tc : s.true_c) {
            out.max_overshoot_c = std::max(out.max_overshoot_c, tc - target);
        }
    }
    // Settling: the earliest suffix where every region's true
    // temperature stays inside the band around its own final value.
    // (Measured against the final value, not the target: a low-power
    // region saturated at u = 1 regulates below target by design and
    // still settles.)
    const double band = options_.settle_band_c();
    out.settling_time_s = -1.0;
    for (std::size_t k = out.steps.size(); k-- > 0;) {
        bool inside = true;
        for (std::size_t r = 0; r < n; ++r) {
            inside = inside &&
                     std::abs(out.steps[k].true_c[r] -
                              out.steps.back().true_c[r]) <= band;
        }
        if (!inside) break;
        out.settling_time_s = out.steps[k].t_s;
    }
    mx.counter("dtm.fleet.runs").add();
    mx.counter("dtm.fleet.steps").add(static_cast<std::uint64_t>(steps_n));
    mx.gauge("dtm.fleet.die_peak_c").set(out.die_peak_c);
    mx.counter("dtm.fleet.fault_latches_total").add(out.fault_latches);
    return out;
}

// ---- layout ------------------------------------------------------------

FleetLayout fleet_layout_from_floorplan(const thermal::Floorplan& floorplan,
                                        int guard_nx, int guard_ny) {
    FleetLayout out;
    const auto& blocks = floorplan.blocks();
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        RegionSpec r;
        r.name = blocks[b].name;
        r.block_indices = {b};
        r.site_indices = {out.sites.size()};
        sensor::SensorSite site;
        site.name = "r_" + blocks[b].name;
        site.x = blocks[b].x + 0.5 * blocks[b].width;
        site.y = blocks[b].y + 0.5 * blocks[b].height;
        out.sites.push_back(std::move(site));
        out.regions.push_back(std::move(r));
    }
    if (guard_nx > 0 && guard_ny > 0) {
        for (auto& g : sensor::uniform_sites(floorplan, guard_nx, guard_ny)) {
            g.name = "guard_" + g.name;
            out.sites.push_back(std::move(g));
        }
    }
    return out;
}

} // namespace stsense::dtm
