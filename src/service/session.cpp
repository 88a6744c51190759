#include "service/session.hpp"

#include "dtm/fleet.hpp"
#include "exec/metrics.hpp"
#include "obs/trace.hpp"
#include "population/engine.hpp"
#include "ring/sweep.hpp"
#include "sensor/optimizer.hpp"
#include "service/protocol.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace stsense::service {

namespace {

/// Deterministic inclusive linspace (the same arithmetic everywhere a
/// grid is built from request params, so fingerprints agree).
std::vector<double> linspace(double lo, double hi, int n) {
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(n));
    if (n == 1) {
        out.push_back(lo);
        return out;
    }
    for (int i = 0; i < n; ++i) {
        out.push_back(lo + (hi - lo) * static_cast<double>(i) /
                               static_cast<double>(n - 1));
    }
    return out;
}

std::string hex64(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
}

/// FNV-1a over a string — names optimizer checkpoint files per request.
std::uint64_t fnv1a(const std::string& s) {
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/// Points a job's checkpoint at `<spool_dir>/<kind>_<key hex>.ckpt`
/// with the session's flush cadence, or turns checkpointing off when
/// the server has no spool dir. The key names the request (a sweep or
/// population fingerprint, a hash of the optimizer params), so
/// concurrent jobs never share a spool file and a killed request
/// resumes bitwise on re-issue.
template <class Runtime>
void set_spool(Runtime& rt, const std::string& spool_dir,
               const stsense::RuntimeOptions& options, const char* kind,
               std::uint64_t key) {
    rt.checkpoint_path.clear();
    if (spool_dir.empty()) return;
    rt.checkpoint_path = spool_dir + "/" + kind + "_" + hex64(key) + ".ckpt";
    if (options.checkpoint_flush_every() > 0) {
        rt.checkpoint_every = static_cast<decltype(rt.checkpoint_every)>(
            options.checkpoint_flush_every());
    }
    rt.keep_checkpoint = options.checkpoint_kept();
}

/// A published snapshot as it reads before its first run: every field
/// null, every array empty.
Json before_first_run(const Json& state) {
    Json out = Json::object();
    for (const auto& [key, value] : state.members()) {
        out.set(key, value.is_array() ? Json::array() : Json(nullptr));
    }
    return out;
}

/// sessions[i].dtm after a fleet run: the summary and each region's
/// controller and supervisor state (dtm_run's answer adds each region's
/// plant model and gains).
Json dtm_state(bool supervised, const dtm::FleetResult& res) {
    Json regions = Json::array();
    for (std::size_t r = 0; r < res.regions.size(); ++r) {
        const auto& rt = res.regions[r];
        double measured_c = std::nan("");
        double trust = 0.0;
        if (!res.steps.empty()) {
            measured_c = res.steps.back().measured_c[r];
            trust = res.steps.back().trust[r];
        }
        Json j = Json::object();
        j.set("name", rt.name);
        j.set("state", dtm::to_string(rt.state));
        j.set("fault", dtm::to_string(rt.last_fault));
        j.set("u", rt.u);
        j.set("true_c", rt.true_c);
        j.set("peak_true_c", rt.peak_true_c);
        j.set("measured_c",
              std::isfinite(measured_c) ? Json(measured_c) : Json(nullptr));
        j.set("trust", trust);
        j.set("fault_latches", rt.supervisor.fault_latches);
        j.set("probes", rt.supervisor.probes);
        regions.push_back(std::move(j));
    }
    Json state = Json::object();
    state.set("supervised", supervised);
    state.set("die_peak_c", res.die_peak_c);
    state.set("settling_time_s", res.settling_time_s);
    state.set("max_overshoot_c", res.max_overshoot_c);
    state.set("fault_latches", res.fault_latches);
    state.set("tune_solves", res.tune_solves);
    state.set("steps", static_cast<std::uint64_t>(res.steps.size()));
    state.set("regions", std::move(regions));
    return state;
}

/// Progress of a population run before its first shard folds.
population::PopulationProgress start_progress(std::uint64_t dice_total,
                                              std::size_t shard_count) {
    population::PopulationProgress p;
    p.dice_total = dice_total;
    p.shard_count = shard_count;
    p.metrics.resize(population::kMetricCount);
    return p;
}

/// sessions[i].population at one point of a run: progress, yields and
/// the running quantiles of the engine's default list {.5, .9, .99}.
/// `resumed_dice` is known only once the run returns; until then it
/// reads 0.
Json population_state(const std::string& calibration, bool running,
                      const population::PopulationProgress& p) {
    // P^2 is NaN before its first sample; publish 0 so the snapshot
    // never renders a non-finite number.
    const auto quantile = [](const population::MetricSummary& m,
                             std::size_t j) {
        if (j >= m.quantiles.size()) return 0.0;
        const double v = m.quantiles[j].value;
        return std::isfinite(v) ? v : 0.0;
    };
    const auto metric = [&p](population::Metric m) -> const auto& {
        return p.metrics[static_cast<std::size_t>(m)];
    };
    const auto& fresh = metric(population::Metric::FreshMaxAbsErrC);
    Json state = Json::object();
    state.set("running", running);
    state.set("calibration", calibration);
    state.set("dice_total", p.dice_total);
    state.set("dice_done", p.dice_done);
    state.set("shard", static_cast<std::uint64_t>(p.shard_index));
    state.set("shards", static_cast<std::uint64_t>(p.shard_count));
    state.set("resumed_dice", 0);
    state.set("yield_fresh", p.yield_fresh);
    state.set("yield_aged", p.yield_aged);
    state.set("fresh_mean_c", fresh.mean);
    state.set("fresh_max_c", fresh.max);
    state.set("fresh_p50_c", quantile(fresh, 0));
    state.set("fresh_p90_c", quantile(fresh, 1));
    state.set("fresh_p99_c", quantile(fresh, 2));
    state.set("aged_p99_c",
              quantile(metric(population::Metric::AgedMaxAbsErrC), 2));
    state.set("drift_p50_c",
              quantile(metric(population::Metric::AgedDriftC), 0));
    return state;
}

} // namespace

Session::Session(int id, SessionSpec spec, exec::ThreadPool* pool,
                 exec::ResultCache* cache, std::string spool_dir)
    : id_(id),
      name_(spec.name.empty() ? "session-" + std::to_string(id) : spec.name),
      spec_(std::move(spec)),
      pool_(pool),
      cache_(cache),
      spool_dir_(std::move(spool_dir)),
      monitor_(spec_.tech, spec_.ring, spec_.floorplan,
               sensor::uniform_sites(spec_.floorplan, spec_.sites_nx,
                                     spec_.sites_ny),
               spec_.monitor),
      dtm_state_(before_first_run(dtm_state(true, dtm::FleetResult{}))),
      population_state_(before_first_run(
          population_state("", false, start_progress(0, 0)))) {
    sites_.reserve(monitor_.sites().size());
    for (const auto& site : monitor_.sites()) {
        SiteSnapshot snap;
        snap.name = site.name;
        snap.x = site.x;
        snap.y = site.y;
        sites_.push_back(std::move(snap));
    }
}

Session::~Session() = default;

Json Session::reading_json(const sensor::SiteReading& r) {
    Json j = Json::object();
    j.set("name", r.name);
    j.set("x", r.x);
    j.set("y", r.y);
    j.set("true_c", r.true_c);
    j.set("measured_c", std::isfinite(r.measured_c) ? Json(r.measured_c)
                                                    : Json(nullptr));
    j.set("error_c",
          std::isfinite(r.error_c) ? Json(r.error_c) : Json(nullptr));
    j.set("code", static_cast<std::uint64_t>(r.code));
    j.set("valid", r.valid);
    j.set("health", sensor::to_string(r.health));
    j.set("confidence", sensor::to_string(r.confidence));
    j.set("rings_total", r.rings_total);
    j.set("rings_agreeing", r.rings_agreeing);
    return j;
}

sensor::MapResult Session::scan() {
    OBS_SPAN("service.session.scan");
    auto map = monitor_.scan();
    publish_map(map);
    return map;
}

void Session::publish_map(const sensor::MapResult& map) {
    Json summary = Json::object();
    summary.set("sites", map.sites.size());
    summary.set("invalid_sites", map.invalid_sites);
    summary.set("max_abs_error_c", map.max_abs_error_c);
    summary.set("rms_error_c", map.rms_error_c);
    summary.set("die_peak_c", map.die_peak_c);
    summary.set("scan_time_s", map.scan_time_s);
    summary.set("alarm", map.alarm);
    summary.set("alarm_site", map.alarm_site);
    summary.set("degraded_sites", map.degraded_sites);
    summary.set("quarantined_sites", map.quarantined_sites);
    summary.set("dead_sites", map.dead_sites);
    summary.set("interpolated_sites", map.interpolated_sites);
    summary.set("watchdog_trips", map.watchdog_trips);
    summary.set("readout_retries", map.readout_retries);

    const auto& health = monitor_.health();
    std::lock_guard lock(state_m_);
    last_readings_ = map.sites;
    for (std::size_t i = 0; i < map.sites.size() && i < sites_.size(); ++i) {
        SiteSnapshot& snap = sites_[i];
        const sensor::SiteReading& r = map.sites[i];
        snap.health = r.health;
        snap.confidence = r.confidence;
        snap.last_c = r.measured_c;
        snap.has_reading = r.valid && std::isfinite(r.measured_c);
        if (i < health.size()) {
            const auto& rec = health.record(i);
            snap.faults_total = rec.faults_total;
            snap.strikes = rec.strikes;
        }
    }
    ++scans_;
    summary.set("scan_index", scans_);
    last_map_summary_ = std::move(summary);
}

Json Session::measure_site(const Json& params) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    measures_.fetch_add(1, std::memory_order_relaxed);
    const Json& which = params.at("site");
    const bool fresh = require_bool(params, "fresh", false);

    std::size_t index = sites_.size();
    if (which.is_number()) {
        const int i = which.as_int(-1);
        if (i >= 0 && static_cast<std::size_t>(i) < sites_.size()) {
            index = static_cast<std::size_t>(i);
        }
    } else if (which.is_string()) {
        for (std::size_t i = 0; i < sites_.size(); ++i) {
            if (sites_[i].name == which.as_string()) {
                index = i;
                break;
            }
        }
    } else {
        throw ServiceError(ErrorCode::BadParams,
                           "param 'site' must be an index or a site name");
    }
    if (index >= sites_.size()) {
        throw ServiceError(ErrorCode::BadParams,
                           "unknown site: " + which.dump());
    }

    bool need_scan = fresh;
    {
        std::lock_guard lock(state_m_);
        if (last_readings_.size() != sites_.size()) need_scan = true;
    }
    if (need_scan) scan();

    std::lock_guard lock(state_m_);
    Json result = reading_json(last_readings_[index]);
    result.set("session", id_);
    result.set("scan_index", scans_);
    return result;
}

Json Session::thermal_map(const Json&) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    maps_.fetch_add(1, std::memory_order_relaxed);
    const auto map = scan();

    Json readings = Json::array();
    for (const auto& r : map.sites) readings.push_back(reading_json(r));

    std::lock_guard lock(state_m_);
    Json result = last_map_summary_ ? *last_map_summary_ : Json::object();
    result.set("session", id_);
    result.set("readings", std::move(readings));
    return result;
}

Json Session::sweep(const Json& params) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    sweeps_.fetch_add(1, std::memory_order_relaxed);
    const double lo = require_finite(params, "t_min_c", -50.0);
    const double hi = require_finite(params, "t_max_c", 150.0);
    if (hi <= lo) {
        throw ServiceError(ErrorCode::BadParams,
                           "'t_max_c' must exceed 't_min_c'");
    }
    const int points = require_int(params, "points", 17, 2, 4096);
    ring::Engine engine = ring::Engine::Analytic;
    try {
        engine = ring::engine_from_string(
            require_string(params, "engine", ring::to_string(engine)));
    } catch (const std::invalid_argument& e) {
        throw ServiceError(ErrorCode::BadParams, std::string("param ") + e.what());
    }

    const auto temps = linspace(lo, hi, points);
    const auto spice_opt = spec_.runtime.spice_ring_options();

    // Server-owned pool/cache replace whatever the session's
    // RuntimeOptions projected; the checkpoint is keyed by the sweep
    // fingerprint.
    ring::SweepRuntime rt = spec_.runtime.sweep_runtime();
    rt.pool = pool_;
    rt.cache = cache_;
    const std::uint64_t fp = ring::sweep_fingerprint(
        spec_.tech, spec_.ring, temps, engine, spice_opt, rt.fault);
    set_spool(rt, spool_dir_, spec_.runtime, "sweep", fp);

    OBS_SPAN("service.session.sweep");
    const auto sweep = ring::temperature_sweep(spec_.tech, spec_.ring, temps,
                                               engine, spice_opt, rt);

    Json temps_j = Json::array();
    Json period_j = Json::array();
    Json freq_j = Json::array();
    Json status_j = Json::array();
    for (std::size_t i = 0; i < sweep.temps_c.size(); ++i) {
        temps_j.push_back(sweep.temps_c[i]);
        period_j.push_back(std::isfinite(sweep.period_s[i])
                               ? Json(sweep.period_s[i])
                               : Json(nullptr));
        freq_j.push_back(std::isfinite(sweep.frequency_hz[i])
                             ? Json(sweep.frequency_hz[i])
                             : Json(nullptr));
        status_j.push_back(ring::to_string(sweep.status[i]));
    }

    Json result = Json::object();
    result.set("session", id_);
    result.set("engine", ring::to_string(engine));
    result.set("fingerprint", hex64(fp));
    result.set("temps_c", std::move(temps_j));
    result.set("period_s", std::move(period_j));
    result.set("frequency_hz", std::move(freq_j));
    result.set("status", std::move(status_j));
    result.set("valid_points", sweep.valid_points());
    result.set("recovered_points", sweep.recovered_points());
    return result;
}

Json Session::optimize(const Json& params) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    optimizes_.fetch_add(1, std::memory_order_relaxed);
    const double lo = require_finite(params, "ratio_lo", 1.0);
    const double hi = require_finite(params, "ratio_hi", 4.0);
    if (!(lo > 0.0) || hi <= lo) {
        throw ServiceError(ErrorCode::BadParams,
                           "need 0 < 'ratio_lo' < 'ratio_hi'");
    }
    const int points = require_int(params, "points", 7, 2, 256);
    int stages = require_int(params, "stages", spec_.ring.stage_count(), 3, 31);
    if (stages % 2 == 0) {
        throw ServiceError(ErrorCode::BadParams,
                           "param 'stages' must be odd (ring oscillator)");
    }

    const auto ratios = linspace(lo, hi, points);

    sensor::OptimizerRuntime rt = spec_.runtime.optimizer_runtime();
    rt.pool = pool_;
    Json key = Json::object();
    key.set("ratio_lo", lo);
    key.set("ratio_hi", hi);
    key.set("points", points);
    key.set("stages", stages);
    key.set("session", id_);
    set_spool(rt, spool_dir_, spec_.runtime, "opt", fnv1a(key.dump()));

    OBS_SPAN("service.session.optimize");
    const auto sweep = sensor::ratio_sweep(spec_.tech, cells::CellKind::Inv,
                                           stages, ratios, rt);

    Json points_j = Json::array();
    std::size_t best = 0;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        Json p = Json::object();
        p.set("ratio", sweep[i].ratio);
        p.set("max_nl_percent", std::isfinite(sweep[i].max_nl_percent)
                                    ? Json(sweep[i].max_nl_percent)
                                    : Json(nullptr));
        p.set("period_27c_s", sweep[i].period_27c_s);
        points_j.push_back(std::move(p));
        if (sweep[i].max_nl_percent < sweep[best].max_nl_percent) best = i;
    }

    Json result = Json::object();
    result.set("session", id_);
    result.set("stages", stages);
    result.set("points", std::move(points_j));
    if (!sweep.empty()) {
        Json best_j = Json::object();
        best_j.set("index", best);
        best_j.set("ratio", sweep[best].ratio);
        best_j.set("max_nl_percent", sweep[best].max_nl_percent);
        result.set("best", std::move(best_j));
    }
    return result;
}

Json Session::dtm_run(const Json& params) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    dtm_runs_.fetch_add(1, std::memory_order_relaxed);

    const bool supervised = require_bool(params, "supervised", true);
    const double duration = require_finite(params, "duration_s", 0.75);
    const double target = require_finite(params, "target_c", 95.0);
    const double trip = require_finite(params, "trip_c", 110.0);
    const int grid = require_int(params, "grid", 24, 8, 64);
    if (duration <= 0.0 || duration > 30.0) {
        throw ServiceError(ErrorCode::BadParams,
                           "param 'duration_s' out of range (0, 30]");
    }

    const auto options = dtm::ControlOptions()
                             .target(target)
                             .trip(trip)
                             .duration(duration)
                             .supervised(supervised);
    const auto checked = options.try_validate();
    if (!checked.ok()) {
        throw ServiceError(ErrorCode::BadParams, checked.error().message);
    }

    OBS_SPAN("service.session.dtm_run");

    // Key the cached fleet by every parameter that shapes it. The fleet
    // carries its own monitor and grid; the session's readout ledger
    // never sees these scans.
    Json key = Json::object();
    key.set("supervised", supervised);
    key.set("duration_s", duration);
    key.set("target_c", target);
    key.set("trip_c", trip);
    key.set("grid", grid);
    if (!dtm_fleet_ || dtm_fleet_key_ != key.dump()) {
        const auto layout = dtm::fleet_layout_from_floorplan(spec_.floorplan);
        sensor::MonitorConfig mc = spec_.monitor;
        mc.grid_nx = grid;
        mc.grid_ny = grid;
        auto fleet = std::make_unique<dtm::DtmFleet>(
            spec_.tech, spec_.ring, spec_.floorplan, layout.regions,
            layout.sites, mc, options);
        fleet->tune();
        dtm_fleet_ = std::move(fleet);
        dtm_fleet_key_ = key.dump();
    }
    const auto res = dtm_fleet_->run();

    Json state = dtm_state(supervised, res);
    Json regions = Json::array();
    for (std::size_t r = 0; r < res.regions.size(); ++r) {
        const auto& rt = res.regions[r];
        Json j = state.at("regions").at(r);
        Json model_j = Json::object();
        model_j.set("valid", rt.model.valid);
        model_j.set("gain_c", rt.model.gain_c);
        model_j.set("tau_s", rt.model.tau_s);
        model_j.set("dead_time_s", rt.model.dead_time_s);
        j.set("model", std::move(model_j));
        Json gains_j = Json::object();
        gains_j.set("kp", rt.gains.kp);
        gains_j.set("ki", rt.gains.ki);
        gains_j.set("kd", rt.gains.kd);
        j.set("gains", std::move(gains_j));
        regions.push_back(std::move(j));
    }

    Json result = state;
    result.set("session", id_);
    result.set("target_c", target);
    result.set("trip_c", trip);
    result.set("duration_s", duration);
    result.set("regions", std::move(regions));
    publish(dtm_state_, std::move(state));
    return result;
}

Json Session::population_run(const Json& params) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    population_runs_.fetch_add(1, std::memory_order_relaxed);

    const int dice = require_int(params, "dice", 10000, 100, 1000000);
    const int shard = require_int(params, "shard", 1024, 16, 65536);
    const int seed = require_int(params, "seed", 1, 0, 1 << 30);
    const std::string cal_name =
        require_string(params, "calibration", "two_point");
    const std::string corner_name = require_string(params, "corner", "TT");
    const double horizon = require_finite(params, "horizon_hours", 10000.0);
    const double recal_interval =
        require_finite(params, "recal_interval_hours", 0.0);
    const double recal_temp = require_finite(params, "recal_temp_c", 60.0);
    const double yield_limit = require_finite(params, "yield_limit_c", 1.0);

    population::CalibrationPolicy cal_policy;
    try {
        cal_policy = population::calibration_policy_from_string(cal_name);
    } catch (const std::invalid_argument& e) {
        throw ServiceError(ErrorCode::BadParams, e.what());
    }
    phys::Corner corner = phys::Corner::TT;
    bool corner_ok = false;
    for (const phys::Corner c : phys::kAllCorners) {
        if (phys::to_string(c) == corner_name) {
            corner = c;
            corner_ok = true;
        }
    }
    if (!corner_ok) {
        throw ServiceError(ErrorCode::BadParams,
                           "param 'corner' must be TT|FF|SS|FS|SF");
    }

    population::PopulationConfig cfg;
    cfg.tech = spec_.tech;
    cfg.ring = spec_.ring;
    cfg.dice = static_cast<std::uint64_t>(dice);
    cfg.shard_size = static_cast<std::size_t>(shard);
    cfg.seed = static_cast<std::uint64_t>(seed);
    cfg.corner = corner;
    cfg.calibration = cal_policy;
    cfg.horizon_hours = horizon;
    // A positive interval schedules periodic one-point re-trims; zero or
    // less keeps the default, RecalPolicy::Never.
    if (recal_interval > 0.0) {
        cfg.recal.policy = population::RecalPolicy::Periodic;
        cfg.recal.interval_hours = recal_interval;
    }
    cfg.recal.temp_c = recal_temp;
    cfg.yield_limit_c = yield_limit;
    try {
        population::validate(cfg);
    } catch (const std::invalid_argument& e) {
        throw ServiceError(ErrorCode::BadParams, e.what());
    }
    const std::uint64_t fp = population::population_fingerprint(cfg);

    // Server-owned pool; the checkpoint is keyed by the population
    // fingerprint.
    population::PopulationRuntime rt;
    rt.pool = pool_;
    rt.parallel = spec_.runtime.parallel_enabled();
    set_spool(rt, spool_dir_, spec_.runtime, "population", fp);
    rt.cancel = spec_.runtime.effective_cancel();

    // Queries watch the run live: the snapshot is republished after
    // every folded shard.
    rt.on_shard = [this, &cal_name](const population::PopulationProgress& p) {
        publish(population_state_,
                population_state(cal_name, p.dice_done < p.dice_total, p));
    };

    OBS_SPAN("service.session.population_run");
    const auto start = start_progress(
        cfg.dice, static_cast<std::size_t>(
                      (cfg.dice + cfg.shard_size - 1) / cfg.shard_size));
    publish(population_state_, population_state(cal_name, true, start));

    population::PopulationResult res;
    try {
        res = population::run_population(cfg, rt);
    } catch (...) {
        // Cancellation (typed CancelledError -> "cancelled" wire error)
        // or a fault: mark the snapshot idle, keep the partial telemetry.
        std::lock_guard lock(state_m_);
        population_state_.set("running", false);
        throw;
    }

    Json metrics_j = Json::array();
    for (const auto& m : res.metrics) {
        Json mj = Json::object();
        mj.set("name", m.name);
        mj.set("count", m.count);
        mj.set("mean", std::isfinite(m.mean) ? Json(m.mean) : Json(nullptr));
        mj.set("stddev",
               std::isfinite(m.stddev) ? Json(m.stddev) : Json(nullptr));
        mj.set("min", std::isfinite(m.min) ? Json(m.min) : Json(nullptr));
        mj.set("max", std::isfinite(m.max) ? Json(m.max) : Json(nullptr));
        Json q_j = Json::array();
        for (const auto& q : m.quantiles) {
            Json qj = Json::object();
            qj.set("p", q.p);
            qj.set("value",
                   std::isfinite(q.value) ? Json(q.value) : Json(nullptr));
            q_j.push_back(std::move(qj));
        }
        mj.set("quantiles", std::move(q_j));
        metrics_j.push_back(std::move(mj));
    }

    Json result = Json::object();
    result.set("session", id_);
    result.set("dice", res.dice);
    result.set("shards", static_cast<std::uint64_t>(res.shards));
    result.set("shard_size", static_cast<std::uint64_t>(res.shard_size));
    result.set("fingerprint", hex64(res.fingerprint));
    result.set("resumed_dice", res.resumed_dice);
    result.set("calibration", cal_name);
    result.set("corner", corner_name);
    result.set("horizon_hours", horizon);
    result.set("recal_interval_hours", recal_interval);
    result.set("yield_limit_c", yield_limit);
    result.set("yield_fresh", res.yield_fresh);
    result.set("yield_aged", res.yield_aged);
    result.set("metrics", std::move(metrics_j));

    {
        std::lock_guard lock(state_m_);
        population_state_.set("running", false);
        population_state_.set("resumed_dice", res.resumed_dice);
    }
    return result;
}

void Session::publish(Json& slot, Json value) {
    std::lock_guard lock(state_m_);
    slot = std::move(value);
}

ModelPtr Session::published_node(const Json& slot,
                                 const std::atomic<std::uint64_t>& runs) const {
    Json value;
    {
        std::lock_guard lock(state_m_);
        value = slot;
    }
    value.set("runs", runs.load(std::memory_order_relaxed));
    return json_node(std::move(value));
}

ModelPtr Session::model() const {
    const Session* self = this;
    const std::size_t n_sites = sites_.size();

    auto counter_leaf = [](const std::atomic<std::uint64_t>& c) {
        return [&c] { return Json(c.load(std::memory_order_relaxed)); };
    };

    // One site's subtree: every leaf re-reads the snapshot under the
    // state mutex, so a query observes a coherent post-scan value
    // without waiting for a running job.
    auto site_node = [self](std::size_t i) -> ModelPtr {
        auto field = [self, i](auto read) {
            return leaf([self, i, read] {
                std::lock_guard lock(self->state_m_);
                return read(self->sites_[i]);
            });
        };
        return object({
            {"name", [field] {
                 return field([](const SiteSnapshot& s) { return Json(s.name); });
             }},
            {"x", [field] {
                 return field([](const SiteSnapshot& s) { return Json(s.x); });
             }},
            {"y", [field] {
                 return field([](const SiteSnapshot& s) { return Json(s.y); });
             }},
            {"health", [field] {
                 return field([](const SiteSnapshot& s) {
                     return Json(sensor::to_string(s.health));
                 });
             }},
            {"confidence", [field] {
                 return field([](const SiteSnapshot& s) {
                     return Json(sensor::to_string(s.confidence));
                 });
             }},
            {"last_c", [field] {
                 return field([](const SiteSnapshot& s) {
                     return s.has_reading ? Json(s.last_c) : Json(nullptr);
                 });
             }},
            {"faults_total", [field] {
                 return field([](const SiteSnapshot& s) {
                     return Json(s.faults_total);
                 });
             }},
            {"strikes", [field] {
                 return field(
                     [](const SiteSnapshot& s) { return Json(s.strikes); });
             }},
        });
    };

    auto config_node = [self]() -> ModelPtr {
        return object({
            {"stages", [self] {
                 return fixed_leaf(Json(self->spec_.ring.stage_count()));
             }},
            {"sites_nx",
             [self] { return fixed_leaf(Json(self->spec_.sites_nx)); }},
            {"sites_ny",
             [self] { return fixed_leaf(Json(self->spec_.sites_ny)); }},
            {"health_enabled", [self] {
                 return fixed_leaf(Json(self->spec_.monitor.enable_health));
             }},
            {"redundancy", [self] {
                 return fixed_leaf(Json(self->spec_.monitor.redundancy));
             }},
            {"fast_kernel", [self] {
                 return fixed_leaf(
                     Json(self->spec_.runtime.fast_kernel_enabled()));
             }},
            {"fault_policy", [self] {
                 return fixed_leaf(
                     Json(ring::to_string(self->spec_.runtime.fault().policy)));
             }},
        });
    };

    // sessions[i].kernel — the transient-kernel configuration this
    // session's SPICE work runs with (projected once from the immutable
    // spec) plus the live kernel counters. The counters come from the
    // process-wide metrics registry — the transient engine is shared, so
    // they aggregate across sessions; the config leaves are what make
    // the node per-session.
    auto kernel_node = [self]() -> ModelPtr {
        const spice::TransientOptions k =
            self->spec_.runtime.transient_options();
        const util::SimdLevel dispatch = util::resolve_simd();
        auto metric = [](const char* name) {
            return leaf([name] {
                return Json(
                    exec::MetricsRegistry::global().counter(name).value());
            });
        };
        return object({
            {"fast", [self] {
                 return fixed_leaf(
                     Json(self->spec_.runtime.fast_kernel_enabled()));
             }},
            {"simd", [dispatch] {
                 return fixed_leaf(Json(util::simd_level_name(dispatch)));
             }},
            {"reuse_lu", [k] { return fixed_leaf(Json(k.reuse_lu)); }},
            {"lockstep_width",
             [k] { return fixed_leaf(Json(k.lockstep_width)); }},
            {"bypass_tol_v", [k] { return fixed_leaf(Json(k.bypass_tol_v)); }},
            {"batch_lanes", [metric] { return metric("spice.eval.batch_lanes"); }},
            {"simd_groups", [metric] { return metric("spice.eval.simd_groups"); }},
            {"bypass_hits", [metric] { return metric("spice.eval.bypass_hits"); }},
            {"refactors", [metric] { return metric("spice.newton.refactor"); }},
            {"lu_reuses", [metric] { return metric("spice.newton.reuse"); }},
        });
    };

    return object({
        {"id", [self] { return fixed_leaf(Json(self->id_)); }},
        {"name", [self] { return fixed_leaf(Json(self->name_)); }},
        {"requests",
         [self, counter_leaf] { return leaf(counter_leaf(self->requests_)); }},
        {"sweeps",
         [self, counter_leaf] { return leaf(counter_leaf(self->sweeps_)); }},
        {"maps",
         [self, counter_leaf] { return leaf(counter_leaf(self->maps_)); }},
        {"measures",
         [self, counter_leaf] { return leaf(counter_leaf(self->measures_)); }},
        {"optimizes",
         [self, counter_leaf] { return leaf(counter_leaf(self->optimizes_)); }},
        {"dtm_runs",
         [self, counter_leaf] { return leaf(counter_leaf(self->dtm_runs_)); }},
        {"population_runs",
         [self, counter_leaf] {
             return leaf(counter_leaf(self->population_runs_));
         }},
        {"scans", [self] {
             return leaf([self] {
                 std::lock_guard lock(self->state_m_);
                 return Json(self->scans_);
             });
         }},
        {"config", config_node},
        {"sites", [self, n_sites, site_node] {
             return array([n_sites] { return n_sites; },
                          [site_node](std::size_t i) { return site_node(i); });
         }},
        {"last_map", [self] {
             return leaf([self] {
                 std::lock_guard lock(self->state_m_);
                 return self->last_map_summary_ ? *self->last_map_summary_
                                                : Json(nullptr);
             });
         }},
        {"dtm", [self] {
             return self->published_node(self->dtm_state_, self->dtm_runs_);
         }},
        {"population", [self] {
             return self->published_node(self->population_state_,
                                         self->population_runs_);
         }},
        {"kernel", kernel_node},
    });
}

} // namespace stsense::service
