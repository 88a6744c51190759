#include "sensor/monitor.hpp"

#include "exec/cancel.hpp"
#include "exec/fault_injector.hpp"
#include "exec/metrics.hpp"
#include "obs/trace.hpp"
#include "phys/units.hpp"

#include <limits>

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace stsense::sensor {

namespace {

/// One successful ring readout (digitized code + converted temperature).
struct RingReadout {
    double temp_c = 0.0;
    std::uint32_t code = 0;
};

/// Maps a readout failure onto the health ledger's fault taxonomy.
SiteFault fault_of(const stsense::Error& e) {
    switch (e.kind) {
        case stsense::ErrorKind::DeadlineExceeded: return SiteFault::Stuck;
        case stsense::ErrorKind::OutOfRange: return SiteFault::OutOfRange;
        case stsense::ErrorKind::NonFiniteState:
        case stsense::ErrorKind::NotCalibrated: return SiteFault::NonFinite;
        default: return SiteFault::Readout;
    }
}

/// The resilient scan's per-measurement deadline in ref cycles:
/// health.watchdog_cycles, or when 0, a generous multiple of the nominal
/// measurement length at the hot end of the plausible band — long
/// enough that no healthy ring ever trips it, short enough that a
/// stuck-slow ring is aborted ~10^4x sooner than its gated count would
/// complete.
std::uint64_t watchdog_deadline(const MonitorConfig& config,
                                const SmartTemperatureSensor& nominal) {
    const SiteHealthConfig& hc = config.health;
    if (hc.watchdog_cycles != 0) return hc.watchdog_cycles;
    const double t_meas = digital::measurement_time(
        config.sensor_options.gate,
        nominal.period_at(nominal.junction_at(hc.temp_max_c)));
    const double cycles =
        t_meas * config.sensor_options.gate.ref_freq_hz +
        static_cast<double>(config.sensor_options.settle_cycles);
    const double deadline = hc.watchdog_margin * cycles;
    // Written to fail on NaN too; below 2^63 the cast and the +16 fit.
    if (!(deadline < 0x1p63)) {
        throw std::invalid_argument(
            "ThermalMonitor: health.watchdog_margin x the nominal "
            "measurement length must be below 2^63 ref cycles");
    }
    return static_cast<std::uint64_t>(deadline) + 16;
}

} // namespace

const char* to_string(SiteConfidence confidence) {
    switch (confidence) {
        case SiteConfidence::Measured: return "measured";
        case SiteConfidence::Voted: return "voted";
        case SiteConfidence::Interpolated: return "interpolated";
        case SiteConfidence::Unavailable: return "unavailable";
    }
    return "unknown";
}

ThermalMonitor::ThermalMonitor(const phys::Technology& tech,
                               ring::RingConfig ring_config,
                               thermal::Floorplan floorplan,
                               std::vector<SensorSite> sites,
                               MonitorConfig config)
    : tech_(tech),
      ring_config_(std::move(ring_config)),
      floorplan_(std::move(floorplan)),
      sites_(std::move(sites)),
      config_(config),
      grid_(config.grid_nx, config.grid_ny, floorplan_.die_width(),
            floorplan_.die_height(), config.grid_params),
      sensor_(tech, ring_config_, config.sensor_options) {
    if (sites_.empty()) throw std::invalid_argument("ThermalMonitor: no sites");
    if (sites_.size() > 256) throw std::invalid_argument("ThermalMonitor: > 256 sites");
    if (config_.redundancy < 1) {
        throw std::invalid_argument("ThermalMonitor: redundancy must be >= 1");
    }
    if (config_.enable_health &&
        sites_.size() * static_cast<std::size_t>(config_.redundancy) > 256) {
        throw std::invalid_argument(
            "ThermalMonitor: sites * redundancy exceeds the 256-channel mux");
    }
    for (const auto& s : sites_) {
        // Written to fail on NaN: a NaN coordinate is off every die.
        if (!(s.x >= 0.0 && s.x <= floorplan_.die_width() && s.y >= 0.0 &&
              s.y <= floorplan_.die_height())) {
            throw std::invalid_argument("ThermalMonitor: site '" + s.name +
                                        "' off die");
        }
    }
    sensor_.calibrate_two_point(config_.cal_low_c, config_.cal_high_c);

    if (config_.enable_mismatch) {
        // Mismatch sampling consumes the shared Rng in site order.
        util::Rng rng(config_.mismatch_seed);
        site_sensors_.reserve(sites_.size());
        for (std::size_t i = 0; i < sites_.size(); ++i) {
            auto varied = ring::sample_stage_mismatch(ring_config_,
                                                      config_.mismatch, rng);
            site_sensors_.emplace_back(tech_, std::move(varied),
                                       config_.sensor_options);
        }
        if (config_.individual_calibration) {
            // Per-site factory trims: two blocking measurements each, too
            // cheap to be worth a pool hop.
            for (auto& sensor : site_sensors_) {
                sensor.calibrate_two_point(config_.cal_low_c, config_.cal_high_c);
            }
        }
    }

    if (config_.enable_health) {
        supervisor_ = SiteHealthSupervisor(config_.health, sites_.size());
        watchdog_cycles_ = watchdog_deadline(config_, sensor_);
    }
}

MapResult ThermalMonitor::scan() const {
    std::call_once(steady_once_, [this] {
        steady_c_ = grid_.steady_state(
            floorplan_.power_map(config_.grid_nx, config_.grid_ny));
    });
    return scan_field(steady_c_);
}

MapResult ThermalMonitor::scan_field(std::vector<double> temps_c) const {
    const auto cells = static_cast<std::size_t>(config_.grid_nx) *
                       static_cast<std::size_t>(config_.grid_ny);
    if (temps_c.size() != cells) {
        throw std::invalid_argument(
            "ThermalMonitor::scan_field: field size != grid_nx * grid_ny");
    }
    if (!std::all_of(temps_c.begin(), temps_c.end(),
                     [](double t) { return std::isfinite(t); })) {
        throw std::invalid_argument(
            "ThermalMonitor::scan_field: non-finite temperature");
    }
    obs::Span span("sensor.scan");
    span.tag("mode", config_.enable_health ? "resilient" : "legacy");
    span.num("sites", static_cast<double>(sites_.size()));
    return config_.enable_health ? scan_resilient(std::move(temps_c))
                                 : scan_legacy(std::move(temps_c));
}

MapResult ThermalMonitor::scan_legacy(std::vector<double> field_c) const {
    MapResult out;

    out.true_map_c = std::move(field_c);
    out.die_peak_c = *std::max_element(out.true_map_c.begin(), out.true_map_c.end());

    std::vector<double> site_true(sites_.size());
    for (std::size_t i = 0; i < sites_.size(); ++i) {
        site_true[i] = grid_.sample(out.true_map_c, sites_[i].x, sites_[i].y);
    }

    // One smart unit, one channel per distributed ring oscillator.
    digital::SmartUnitConfig unit_cfg;
    unit_cfg.gate = config_.sensor_options.gate;
    unit_cfg.num_channels = static_cast<int>(sites_.size());
    unit_cfg.settle_cycles = config_.sensor_options.settle_cycles;
    // Each channel transduces through its own (possibly mismatched) ring.
    auto site_sensor = [&](std::size_t i) -> const SmartTemperatureSensor& {
        return site_sensors_.empty() ? sensor_ : site_sensors_[i];
    };
    // The physical rings oscillate simultaneously on the die; only the
    // readout is multiplexed. Model that by evaluating every site's
    // period transducer up front, committed by site index, then let the
    // cycle-accurate unit scan the precomputed periods channel by
    // channel. The loop runs on the calling thread: one transduction is
    // well under a microsecond, far less than a pool fan-out costs.
    // A site is invalid when its transducer misbehaves (non-finite or
    // non-positive period — e.g. an extreme mismatch draw) or when the
    // fault injector kills it. The smart unit still needs a physical
    // period on every channel, so invalid channels scan the nominal
    // ring's period; their readings are flagged and excluded from the
    // error statistics below.
    std::vector<double> site_period(sites_.size());
    std::vector<std::uint8_t> site_valid(sites_.size(), 1);
    {
        const exec::ScopedTimer timer(
            exec::MetricsRegistry::global().timer("sensor.monitor.site_sample"));
        for (std::size_t i = 0; i < sites_.size(); ++i) {
            // Site boundaries are the scan's poll points.
            exec::CancelScope::current().check();
            exec::FaultContext ctx(i);
            const auto& s = site_sensor(i);
            double period = s.period_at(s.junction_at(site_true[i]));
            auto* injector = exec::FaultInjector::active();
            const bool injected =
                injector != nullptr &&
                injector->trip(exec::FaultInjector::Site::Point,
                               exec::FaultInjector::point_stream(i));
            if (injected || !std::isfinite(period) || period <= 0.0) {
                site_valid[i] = 0;
                period = sensor_.period_at(sensor_.junction_at(site_true[i]));
            }
            site_period[i] = period;
        }
    }
    digital::SmartUnit unit(unit_cfg, [&](int channel) {
        return site_period[static_cast<std::size_t>(channel)];
    });

    // Program the over-temperature alarm with the nominal ring's code at
    // the trip temperature, then let the hardware auto-scan visit every
    // channel.
    if (config_.alarm_threshold_c > -phys::kCelsiusOffset) {
        unit.write(digital::reg::kThreshold,
                   sensor_.raw_code(config_.alarm_threshold_c));
    }
    unit.scan_all_blocking();

    double sum_sq = 0.0;
    std::size_t valid_count = 0;
    for (std::size_t i = 0; i < sites_.size(); ++i) {
        SiteReading r;
        r.name = sites_[i].name;
        r.x = sites_[i].x;
        r.y = sites_[i].y;
        r.true_c = site_true[i];
        r.code = unit.channel_data(static_cast<int>(i));
        r.valid = site_valid[i] != 0;
        if (r.valid) {
            // Conversion constants: the site's own trim, or the shared ones.
            r.measured_c = config_.individual_calibration && !site_sensors_.empty()
                               ? site_sensors_[i].convert(r.code)
                               : sensor_.convert(r.code);
            r.error_c = r.measured_c - r.true_c;
            out.max_abs_error_c = std::max(out.max_abs_error_c, std::abs(r.error_c));
            sum_sq += r.error_c * r.error_c;
            ++valid_count;
        } else {
            r.measured_c = std::numeric_limits<double>::quiet_NaN();
            r.error_c = std::numeric_limits<double>::quiet_NaN();
        }
        out.sites.push_back(std::move(r));
    }
    out.invalid_sites = sites_.size() - valid_count;
    if (out.invalid_sites > 0) {
        exec::MetricsRegistry::global()
            .counter("sensor.monitor.sites.invalid")
            .add(out.invalid_sites);
    }
    out.rms_error_c = valid_count > 0
                          ? std::sqrt(sum_sq / static_cast<double>(valid_count))
                          : 0.0;
    out.scan_time_s = static_cast<double>(unit.cycles_total()) /
                      config_.sensor_options.gate.ref_freq_hz;
    out.alarm = unit.alarm();
    if (out.alarm) {
        out.alarm_site = sites_[static_cast<std::size_t>(unit.alarm_channel())].name;
    }
    return out;
}

MapResult ThermalMonitor::scan_resilient(std::vector<double> field_c) const {
    MapResult out;
    auto& mx = exec::MetricsRegistry::global();
    const double nan = std::numeric_limits<double>::quiet_NaN();

    out.true_map_c = std::move(field_c);
    out.die_peak_c = *std::max_element(out.true_map_c.begin(), out.true_map_c.end());

    const std::size_t n = sites_.size();
    const std::size_t reps = static_cast<std::size_t>(config_.redundancy);
    const std::size_t n_rings = n * reps;
    const SiteHealthConfig& hc = config_.health;

    std::vector<double> site_true(n);
    for (std::size_t i = 0; i < n; ++i) {
        site_true[i] = grid_.sample(out.true_map_c, sites_[i].x, sites_[i].y);
    }

    supervisor_.begin_scan();
    const std::uint64_t epoch = supervisor_.epoch();

    auto site_sensor = [&](std::size_t i) -> const SmartTemperatureSensor& {
        return site_sensors_.empty() ? sensor_ : site_sensors_[i];
    };
    auto conv_sensor = [&](std::size_t i) -> const SmartTemperatureSensor& {
        return config_.individual_calibration && !site_sensors_.empty()
                   ? site_sensors_[i]
                   : sensor_;
    };

    // Transduce every redundant ring up front on the calling thread
    // (committed by global ring index g = site * reps + replica),
    // applying the persistent hardware faults: a stuck ring outputs the
    // injector's stuck period regardless of temperature, a drifted ring
    // transduces an offset field (NaN offset = the ring stopped
    // oscillating). The draws are keyed by g only — NOT by the scan
    // epoch — so a ring that is stuck this scan is stuck every scan,
    // like real silicon.
    std::vector<double> ring_period(n_rings);
    {
        const exec::ScopedTimer timer(mx.timer("sensor.monitor.site_sample"));
        for (std::size_t g = 0; g < n_rings; ++g) {
            // Ring boundaries are the resilient scan's poll points.
            exec::CancelScope::current().check();
            obs::Span span("sensor.site.transduce");
            span.num("ring", static_cast<double>(g));
            const std::size_t i = g / reps;
            exec::FaultContext ctx(g);
            const auto& s = site_sensor(i);
            double period = s.period_at(s.junction_at(site_true[i]));
            if (auto* inj = exec::FaultInjector::active()) {
                const auto stream = exec::FaultInjector::point_stream(g);
                using Site = exec::FaultInjector::Site;
                if (inj->trip(Site::StuckOscillator, stream)) {
                    period = inj->config().stuck_period_s;
                } else if (inj->trip(Site::DriftSite, stream)) {
                    const double off = inj->config().drift_offset_c;
                    period = std::isfinite(off)
                                 ? s.period_at(s.junction_at(site_true[i] + off))
                                 : nan;
                }
            }
            ring_period[g] = period;
        }
    }

    // The cycle-accurate unit demands a positive finite period from its
    // provider; rings that fail that contract are failed in software
    // (SiteFault::NonFinite) and their channel serves the nominal period
    // so the hardware model stays well-formed.
    std::vector<std::uint8_t> ring_finite(n_rings, 1);
    std::vector<double> site_fallback(n);
    for (std::size_t i = 0; i < n; ++i) {
        site_fallback[i] = sensor_.period_at(sensor_.junction_at(site_true[i]));
    }
    for (std::size_t g = 0; g < n_rings; ++g) {
        if (!std::isfinite(ring_period[g]) || ring_period[g] <= 0.0) {
            ring_finite[g] = 0;
        }
    }

    digital::SmartUnitConfig unit_cfg;
    unit_cfg.gate = config_.sensor_options.gate;
    unit_cfg.num_channels = static_cast<int>(n_rings);
    unit_cfg.settle_cycles = config_.sensor_options.settle_cycles;
    unit_cfg.watchdog_cycles = watchdog_cycles_;
    digital::SmartUnit unit(unit_cfg, [&](int channel) {
        const auto g = static_cast<std::size_t>(channel);
        return ring_finite[g] != 0 ? ring_period[g] : site_fallback[g / reps];
    });
    if (config_.alarm_threshold_c > -phys::kCelsiusOffset) {
        unit.write(digital::reg::kThreshold,
                   sensor_.raw_code(config_.alarm_threshold_c));
    }

    // Per-ring readout with self-tests and bounded retry. Transient
    // faults draw a fresh verdict per (ring, epoch, attempt) — a retry
    // can succeed; persistent verdicts (watchdog, non-finite,
    // out-of-range) end the ring's scan immediately.
    std::vector<double> ring_temp(n_rings, nan);
    std::vector<std::uint32_t> ring_code(n_rings, 0);
    std::vector<SiteFault> ring_fault(n_rings, SiteFault::None);
    std::vector<std::uint8_t> site_probed(n, 0);
    std::uint64_t retries = 0;

    // One attempt ladder for one ring, as an Expected: either a readout
    // or the classified failure fault_of() folds into the health ledger.
    auto read_ring = [&](std::size_t i,
                         std::size_t g) -> stsense::Expected<RingReadout> {
        auto* inj = exec::FaultInjector::active();
        for (int attempt = 0; attempt <= hc.max_retries; ++attempt) {
            if (inj != nullptr &&
                inj->trip(exec::FaultInjector::Site::Point,
                          exec::FaultInjector::point_stream(
                              g + n_rings * epoch,
                              static_cast<std::uint64_t>(attempt)))) {
                if (attempt < hc.max_retries) ++retries;
                continue;
            }
            std::uint32_t code = 0;
            if (!unit.measure_with_watchdog(static_cast<int>(g), code)) {
                return stsense::Error{stsense::ErrorKind::DeadlineExceeded,
                                      "readout: watchdog tripped"};
            }
            auto t = conv_sensor(i).try_convert(code);
            if (!t.ok()) return t.error();
            if (t.value() < hc.temp_min_c || t.value() > hc.temp_max_c) {
                return stsense::Error{stsense::ErrorKind::OutOfRange,
                                      "readout: outside plausible band"};
            }
            return RingReadout{t.value(), code};
        }
        return stsense::Error{stsense::ErrorKind::StepLimit,
                              "readout: transient faults exhausted retries"};
    };

    for (std::size_t i = 0; i < n; ++i) {
        obs::Span span("sensor.site.readout");
        span.num("site", static_cast<double>(i));
        span.tag("health", to_string(supervisor_.state(i)));
        if (!supervisor_.should_probe(i)) {
            span.tag("probed", "no");
            continue;
        }
        site_probed[i] = 1;
        for (std::size_t rep = 0; rep < reps; ++rep) {
            const std::size_t g = i * reps + rep;
            if (ring_finite[g] == 0) {
                ring_fault[g] = SiteFault::NonFinite;
                continue;
            }
            auto r = read_ring(i, g);
            if (r.ok()) {
                ring_temp[g] = r.value().temp_c;
                ring_code[g] = r.value().code;
                ring_fault[g] = SiteFault::None;
            } else {
                ring_fault[g] = fault_of(r.error());
            }
        }
    }

    // Per-site quorum vote across the replicas: the value is the median
    // of the replicas agreeing with the overall median within
    // quorum_tol_c; a site without a strict majority of agreeing
    // replicas fails its quorum self-test.
    std::vector<double> vote(n, nan);
    std::vector<std::uint8_t> accepted(n, 0);
    std::vector<int> agree(n, 0);
    std::vector<SiteFault> site_fault(n, SiteFault::None);
    for (std::size_t i = 0; i < n; ++i) {
        if (site_probed[i] == 0) continue;
        std::vector<double> vals;
        SiteFault first_fault = SiteFault::Readout;
        bool saw_fault = false;
        for (std::size_t rep = 0; rep < reps; ++rep) {
            const std::size_t g = i * reps + rep;
            if (std::isfinite(ring_temp[g])) {
                vals.push_back(ring_temp[g]);
            } else if (!saw_fault) {
                first_fault = ring_fault[g];
                saw_fault = true;
            }
        }
        if (vals.empty()) {
            site_fault[i] = first_fault;
            continue;
        }
        const double med = median_of(vals);
        std::vector<double> agreeing;
        for (double v : vals) {
            if (std::abs(v - med) <= hc.quorum_tol_c) agreeing.push_back(v);
        }
        agree[i] = static_cast<int>(agreeing.size());
        if (agreeing.size() < vals.size() / 2 + 1) {
            site_fault[i] = SiteFault::Quorum;
            continue;
        }
        vote[i] = median_of(agreeing);
        accepted[i] = 1;
    }

    // Spatial drift self-test: compare each voted site against the
    // median of its nearest voted neighbors (robust — an IDW mean would
    // let one drifted site drag its neighbors' residuals and inflate
    // the MAD scale until the drift itself passes) and reject outliers
    // by the MAD criterion. All residuals are computed against the same
    // support set before any rejection (no cascade). Needs a fleet — the
    // test is skipped below 5 voted sites.
    {
        std::vector<std::size_t> voted;
        for (std::size_t i = 0; i < n; ++i) {
            if (accepted[i] != 0) voted.push_back(i);
        }
        if (voted.size() >= 5) {
            std::vector<double> residual(voted.size());
            for (std::size_t j = 0; j < voted.size(); ++j) {
                std::vector<double> xs, ys, vs;
                for (std::size_t k = 0; k < voted.size(); ++k) {
                    if (k == j) continue;
                    xs.push_back(sites_[voted[k]].x);
                    ys.push_back(sites_[voted[k]].y);
                    vs.push_back(vote[voted[k]]);
                }
                residual[j] = vote[voted[j]] -
                              median_neighbor_predict(xs, ys, vs,
                                                      sites_[voted[j]].x,
                                                      sites_[voted[j]].y);
            }
            const double med_r = median_of(residual);
            std::vector<double> dev(voted.size());
            for (std::size_t j = 0; j < voted.size(); ++j) {
                dev[j] = std::abs(residual[j] - med_r);
            }
            const double sigma =
                std::max(1.4826 * median_of(dev), hc.mad_floor_c);
            for (std::size_t j = 0; j < voted.size(); ++j) {
                if (dev[j] > hc.mad_k * sigma) {
                    accepted[voted[j]] = 0;
                    site_fault[voted[j]] = SiteFault::Drift;
                }
            }
        }
    }

    // Feed the verdicts back into the health ledger.
    std::uint64_t faults_this_scan = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (site_probed[i] == 0) continue;
        if (accepted[i] != 0) {
            supervisor_.record_success(i);
        } else {
            supervisor_.record_fault(i, site_fault[i]);
            ++faults_this_scan;
        }
    }

    // Assemble the map. Sites without an accepted measurement are
    // reconstructed from the accepted ones — the map never has holes
    // unless the entire fleet is gone.
    std::vector<double> sup_x, sup_y, sup_v;
    for (std::size_t i = 0; i < n; ++i) {
        if (accepted[i] == 0) continue;
        sup_x.push_back(sites_[i].x);
        sup_y.push_back(sites_[i].y);
        sup_v.push_back(vote[i]);
    }
    double sum_sq = 0.0;
    std::size_t measured_count = 0;
    for (std::size_t i = 0; i < n; ++i) {
        SiteReading r;
        r.name = sites_[i].name;
        r.x = sites_[i].x;
        r.y = sites_[i].y;
        r.true_c = site_true[i];
        r.health = supervisor_.state(i);
        r.rings_total = static_cast<int>(reps);
        r.rings_agreeing = agree[i];
        if (accepted[i] != 0) {
            for (std::size_t rep = 0; rep < reps; ++rep) {
                const std::size_t g = i * reps + rep;
                if (std::isfinite(ring_temp[g])) {
                    r.code = ring_code[g];
                    break;
                }
            }
            r.measured_c = vote[i];
            r.error_c = r.measured_c - r.true_c;
            r.valid = true;
            r.confidence =
                reps > 1 ? SiteConfidence::Voted : SiteConfidence::Measured;
            out.max_abs_error_c =
                std::max(out.max_abs_error_c, std::abs(r.error_c));
            sum_sq += r.error_c * r.error_c;
            ++measured_count;
        } else {
            const double t =
                idw_predict(sup_x, sup_y, sup_v, sites_[i].x, sites_[i].y);
            if (std::isfinite(t)) {
                r.measured_c = t;
                r.error_c = t - r.true_c;
                r.valid = true;
                r.confidence = SiteConfidence::Interpolated;
                ++out.interpolated_sites;
                out.max_interp_error_c =
                    std::max(out.max_interp_error_c, std::abs(r.error_c));
            } else {
                r.measured_c = nan;
                r.error_c = nan;
                r.valid = false;
                r.confidence = SiteConfidence::Unavailable;
            }
        }
        out.sites.push_back(std::move(r));
    }
    out.invalid_sites = n - measured_count;
    out.rms_error_c =
        measured_count > 0
            ? std::sqrt(sum_sq / static_cast<double>(measured_count))
            : 0.0;
    out.scan_time_s = static_cast<double>(unit.cycles_total()) /
                      config_.sensor_options.gate.ref_freq_hz;
    out.alarm = unit.alarm();
    if (out.alarm) {
        out.alarm_site =
            sites_[static_cast<std::size_t>(unit.alarm_channel()) / reps].name;
    }
    const auto counts = supervisor_.state_counts();
    out.degraded_sites = counts[static_cast<std::size_t>(SiteState::Degraded)];
    out.quarantined_sites =
        counts[static_cast<std::size_t>(SiteState::Quarantined)];
    out.dead_sites = counts[static_cast<std::size_t>(SiteState::Dead)];
    out.watchdog_trips = unit.watchdog_trips();
    out.readout_retries = retries;

    mx.counter("sensor.site.scans").add();
    mx.gauge("sensor.site.healthy")
        .set(static_cast<double>(counts[static_cast<std::size_t>(SiteState::Healthy)]));
    mx.gauge("sensor.site.degraded").set(static_cast<double>(out.degraded_sites));
    mx.gauge("sensor.site.quarantined")
        .set(static_cast<double>(out.quarantined_sites));
    mx.gauge("sensor.site.dead").set(static_cast<double>(out.dead_sites));
    if (faults_this_scan > 0) mx.counter("sensor.site.faults").add(faults_this_scan);
    if (retries > 0) mx.counter("sensor.site.retries").add(retries);
    if (out.watchdog_trips > 0) {
        mx.counter("sensor.site.watchdog_trips").add(out.watchdog_trips);
    }
    if (out.interpolated_sites > 0) {
        mx.counter("sensor.site.interpolated").add(out.interpolated_sites);
    }
    return out;
}

std::vector<SensorSite> uniform_sites(const thermal::Floorplan& fp, int nx,
                                      int ny) {
    if (nx < 1 || ny < 1) throw std::invalid_argument("uniform_sites: nx, ny >= 1");
    std::vector<SensorSite> sites;
    for (int iy = 0; iy < ny; ++iy) {
        for (int ix = 0; ix < nx; ++ix) {
            SensorSite s;
            s.name = "s" + std::to_string(iy) + std::to_string(ix);
            s.x = (ix + 0.5) * fp.die_width() / nx;
            s.y = (iy + 0.5) * fp.die_height() / ny;
            sites.push_back(std::move(s));
        }
    }
    return sites;
}

} // namespace stsense::sensor
