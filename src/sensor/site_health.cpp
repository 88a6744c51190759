#include "sensor/site_health.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace stsense::sensor {

const char* to_string(SiteState state) {
    switch (state) {
        case SiteState::Healthy: return "healthy";
        case SiteState::Degraded: return "degraded";
        case SiteState::Quarantined: return "quarantined";
        case SiteState::Dead: return "dead";
    }
    return "unknown";
}

const char* to_string(SiteFault fault) {
    switch (fault) {
        case SiteFault::None: return "none";
        case SiteFault::Readout: return "readout";
        case SiteFault::NonFinite: return "non-finite";
        case SiteFault::OutOfRange: return "out-of-range";
        case SiteFault::Stuck: return "stuck";
        case SiteFault::Drift: return "drift";
        case SiteFault::Quorum: return "quorum";
    }
    return "unknown";
}

SiteHealthSupervisor::SiteHealthSupervisor(SiteHealthConfig config,
                                           std::size_t n_sites)
    : config_(config), records_(n_sites) {
    if (config_.degraded_after < 1 || config_.quarantine_after < 1 ||
        config_.dead_after < 1) {
        throw std::invalid_argument("SiteHealth: strike thresholds must be >= 1");
    }
    if (config_.quarantine_after < config_.degraded_after ||
        config_.dead_after < config_.quarantine_after) {
        throw std::invalid_argument(
            "SiteHealth: thresholds must be ordered degraded <= quarantine <= dead");
    }
    if (config_.recover_after < 1) {
        throw std::invalid_argument("SiteHealth: recover_after must be >= 1");
    }
    if (config_.max_retries < 0) {
        throw std::invalid_argument("SiteHealth: max_retries must be >= 0");
    }
    if (config_.backoff_base_scans < 1 ||
        config_.backoff_max_scans < config_.backoff_base_scans) {
        throw std::invalid_argument("SiteHealth: bad backoff interval");
    }
    // The resilient scan compares, scales and casts with these: a NaN or
    // an inverted band would silently read no site, and a NaN or
    // negative watchdog margin is an out-of-range float-to-int cast.
    const auto require = [](bool ok, const char* what) {
        if (!ok) throw std::invalid_argument(std::string("SiteHealth: ") + what);
    };
    require(std::isfinite(config_.temp_min_c) &&
                std::isfinite(config_.temp_max_c) &&
                config_.temp_min_c < config_.temp_max_c,
            "plausible band needs finite temp_min_c < temp_max_c");
    require(std::isfinite(config_.quorum_tol_c) && config_.quorum_tol_c >= 0.0,
            "quorum_tol_c must be finite and >= 0");
    require(std::isfinite(config_.mad_floor_c) && config_.mad_floor_c >= 0.0,
            "mad_floor_c must be finite and >= 0");
    require(std::isfinite(config_.mad_k) && config_.mad_k > 0.0,
            "mad_k must be finite and > 0");
    require(std::isfinite(config_.watchdog_margin) &&
                config_.watchdog_margin > 0.0,
            "watchdog_margin must be finite and > 0");
}

const SiteRecord& SiteHealthSupervisor::rec(std::size_t site) const {
    if (site >= records_.size()) {
        throw std::out_of_range("SiteHealth: site index out of range");
    }
    return records_[site];
}

SiteRecord& SiteHealthSupervisor::rec(std::size_t site) {
    if (site >= records_.size()) {
        throw std::out_of_range("SiteHealth: site index out of range");
    }
    return records_[site];
}

void SiteHealthSupervisor::begin_scan() { ++epoch_; }

bool SiteHealthSupervisor::should_probe(std::size_t site) const {
    const SiteRecord& r = rec(site);
    switch (r.state) {
        case SiteState::Dead:
            return false;
        case SiteState::Quarantined:
            return epoch_ >= r.next_probe_epoch;
        default:
            return true;
    }
}

void SiteHealthSupervisor::record_fault(std::size_t site, SiteFault fault) {
    SiteRecord& r = rec(site);
    if (r.state == SiteState::Dead) return;
    r.last_fault = fault;
    ++r.faults_total;
    r.clean_scans = 0;
    ++r.strikes;

    if (r.strikes >= config_.dead_after) {
        r.state = SiteState::Dead;
        return;
    }
    if (r.strikes >= config_.quarantine_after) {
        // Entering quarantine (or failing a quarantine probe) doubles the
        // probe interval so a persistently bad ring fades from the scan
        // schedule instead of re-failing every epoch.
        r.backoff_scans = r.backoff_scans == 0
                              ? config_.backoff_base_scans
                              : std::min(r.backoff_scans * 2,
                                         config_.backoff_max_scans);
        r.next_probe_epoch = epoch_ + static_cast<std::uint64_t>(r.backoff_scans);
        r.state = SiteState::Quarantined;
        return;
    }
    if (r.strikes >= config_.degraded_after) {
        r.state = SiteState::Degraded;
    }
}

void SiteHealthSupervisor::record_success(std::size_t site) {
    SiteRecord& r = rec(site);
    if (r.state == SiteState::Dead) return;
    r.last_fault = SiteFault::None;
    if (r.state == SiteState::Healthy) return;
    if (++r.clean_scans < config_.recover_after) return;

    // Climb one level and grant the strike budget of the new level, so a
    // recovered site has the same headroom as a site that degraded to
    // that level fresh.
    r.clean_scans = 0;
    if (r.state == SiteState::Quarantined) {
        r.state = SiteState::Degraded;
        r.strikes = config_.degraded_after;
        r.backoff_scans = 0;
        r.next_probe_epoch = 0;
    } else { // Degraded
        r.state = SiteState::Healthy;
        r.strikes = 0;
    }
}

std::vector<std::size_t> SiteHealthSupervisor::state_counts() const {
    std::vector<std::size_t> counts(4, 0);
    for (const SiteRecord& r : records_) {
        ++counts[static_cast<std::size_t>(r.state)];
    }
    return counts;
}

double median_of(std::vector<double> values) {
    if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n % 2 == 1) return values[n / 2];
    return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double idw_predict(const std::vector<double>& xs,
                   const std::vector<double>& ys,
                   const std::vector<double>& values, double x, double y,
                   int k) {
    if (xs.size() != ys.size() || xs.size() != values.size()) {
        throw std::invalid_argument("idw_predict: mismatched support arrays");
    }
    if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
    if (k < 1) throw std::invalid_argument("idw_predict: k must be >= 1");

    // Rank support points by distance; keep the k nearest.
    std::vector<std::size_t> order(xs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    auto dist2 = [&](std::size_t i) {
        const double dx = xs[i] - x;
        const double dy = ys[i] - y;
        return dx * dx + dy * dy;
    };
    const std::size_t keep = std::min<std::size_t>(order.size(),
                                                   static_cast<std::size_t>(k));
    std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(keep),
                      order.end(),
                      [&](std::size_t a, std::size_t b) { return dist2(a) < dist2(b); });

    constexpr double kEps2 = 1e-12; // (1 um)^2: treat as coincident.
    double wsum = 0.0;
    double vsum = 0.0;
    for (std::size_t j = 0; j < keep; ++j) {
        const std::size_t i = order[j];
        const double d2 = dist2(i);
        if (d2 < kEps2) return values[i];
        const double w = 1.0 / d2;
        wsum += w;
        vsum += w * values[i];
    }
    return vsum / wsum;
}

double median_neighbor_predict(const std::vector<double>& xs,
                               const std::vector<double>& ys,
                               const std::vector<double>& values, double x,
                               double y, int k) {
    if (xs.size() != ys.size() || xs.size() != values.size()) {
        throw std::invalid_argument(
            "median_neighbor_predict: mismatched support arrays");
    }
    if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
    if (k < 1) throw std::invalid_argument("median_neighbor_predict: k must be >= 1");

    std::vector<std::size_t> order(xs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    auto dist2 = [&](std::size_t i) {
        const double dx = xs[i] - x;
        const double dy = ys[i] - y;
        return dx * dx + dy * dy;
    };
    const std::size_t keep = std::min<std::size_t>(order.size(),
                                                   static_cast<std::size_t>(k));
    std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(keep),
                      order.end(),
                      [&](std::size_t a, std::size_t b) { return dist2(a) < dist2(b); });
    std::vector<double> nearest(keep);
    for (std::size_t j = 0; j < keep; ++j) nearest[j] = values[order[j]];
    return median_of(std::move(nearest));
}

} // namespace stsense::sensor
