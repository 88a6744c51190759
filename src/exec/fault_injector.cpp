#include "exec/fault_injector.hpp"

#include "exec/metrics.hpp"
#include "util/rng.hpp"

#include <cstdlib>

namespace stsense::exec {

std::atomic<FaultInjector*> FaultInjector::active_{nullptr};
thread_local std::uint64_t FaultContext::current_ = 0;

FaultContext::FaultContext(std::uint64_t index) : previous_(current_) {
    current_ = index;
}

FaultContext::~FaultContext() { current_ = previous_; }

std::uint64_t FaultContext::current() { return current_; }

namespace {

const char* site_name(FaultInjector::Site site) {
    switch (site) {
        case FaultInjector::Site::NewtonFail: return "exec.fault.newton_fail";
        case FaultInjector::Site::NanState: return "exec.fault.nan_state";
        case FaultInjector::Site::Point: return "exec.fault.point";
        case FaultInjector::Site::SlowTask: return "exec.fault.slow_task";
        case FaultInjector::Site::StuckOscillator: return "exec.fault.stuck_osc";
        case FaultInjector::Site::DriftSite: return "exec.fault.drift_site";
        case FaultInjector::Site::CheckpointTruncate:
            return "exec.fault.ckpt_truncate";
        case FaultInjector::Site::SweepKill: return "exec.fault.sweep_kill";
        case FaultInjector::Site::ActuatorStuck:
            return "exec.fault.actuator_stuck";
        case FaultInjector::Site::RegionKill: return "exec.fault.region_kill";
        case FaultInjector::Site::CancelStorm:
            return "exec.fault.cancel_storm";
        case FaultInjector::Site::ShardKill: return "exec.fault.shard_kill";
    }
    return "exec.fault.unknown";
}

/// Unit index a trip stream addresses, for Config::only_units targeting:
/// point_stream-indexed sites carry unit * 16 + attempt; SweepKill is
/// indexed by the raw point index. -1 = site is not unit-addressable.
std::int64_t stream_unit(FaultInjector::Site site, std::uint64_t index) {
    switch (site) {
        case FaultInjector::Site::Point:
        case FaultInjector::Site::StuckOscillator:
        case FaultInjector::Site::DriftSite:
        case FaultInjector::Site::ActuatorStuck:
        case FaultInjector::Site::RegionKill:
            return static_cast<std::int64_t>(index / 16);
        case FaultInjector::Site::SweepKill:
        case FaultInjector::Site::ShardKill:
            return static_cast<std::int64_t>(index);
        default:
            return -1;
    }
}

} // namespace

FaultInjector::FaultInjector(Config config) : config_(config) {}

double FaultInjector::probability(Site site) const {
    switch (site) {
        case Site::NewtonFail: return config_.p_newton_fail;
        case Site::NanState: return config_.p_nan_state;
        case Site::Point: return config_.p_point;
        case Site::SlowTask: return config_.p_slow_task;
        case Site::StuckOscillator: return config_.p_stuck_osc;
        case Site::DriftSite: return config_.p_drift_site;
        case Site::CheckpointTruncate: return config_.p_ckpt_truncate;
        case Site::SweepKill: return config_.p_sweep_kill;
        case Site::ActuatorStuck: return config_.p_actuator_stuck;
        case Site::RegionKill: return config_.p_region_kill;
        case Site::CancelStorm: return config_.p_cancel_storm;
        case Site::ShardKill: return config_.p_shard_kill;
    }
    return 0.0;
}

bool FaultInjector::trip(Site site, std::uint64_t index) const {
    const double p = probability(site);
    if (p <= 0.0) return false;
    if (!config_.only_units.empty()) {
        if (const std::int64_t unit = stream_unit(site, index); unit >= 0) {
            bool targeted = false;
            for (std::uint64_t u : config_.only_units) {
                targeted = targeted || static_cast<std::int64_t>(u) == unit;
            }
            if (!targeted) return false;
        }
    }
    // Stream id = (site, index): a pure function of the decision point,
    // so the verdict is identical at any thread count and replayable
    // from the seed alone.
    const std::uint64_t stream =
        (static_cast<std::uint64_t>(site) << 56) ^ index;
    util::Rng decision = util::Rng(config_.seed).split(stream);
    if (p < 1.0 && decision.uniform01() >= p) return false;
    trips_.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::global().counter(site_name(site)).add();
    return true;
}

std::uint64_t FaultInjector::parse_seed(const char* value,
                                        std::uint64_t fallback) {
    if (value == nullptr || *value == '\0') return fallback;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0') return fallback;
    return static_cast<std::uint64_t>(parsed);
}

std::uint64_t FaultInjector::seed_from_env(std::uint64_t fallback) {
    return parse_seed(std::getenv("STSENSE_FAULT_SEED"), fallback);
}

} // namespace stsense::exec
