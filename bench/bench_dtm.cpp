// DTM — sensor-driven dynamic thermal management, now as the supervised
// closed-loop fleet: per-region autotuned PID controllers reading
// through the degraded-readout monitor, watched by per-region fault
// supervisors. The bench measures the control quality of the fault-free
// loop (settling time, overshoot, bitwise supervision-on/off parity)
// and then replays seeded FaultInjector chaos scenarios (dead region,
// stuck actuator, drifted / stuck / NaN sensors) with and without
// supervision, proving the envelope invariant: no region's true
// temperature exceeds trip + 5 degC while supervised.
//
//   $ ./bench/bench_dtm [--quick] [--chaos] [--json=BENCH_dtm.json]
//
// `--chaos` adds the fault-scenario matrix (the tier-1 stage runs it
// with a pinned STSENSE_FAULT_SEED). Writes BENCH_dtm.json, including the
// (ungated) wall time of the supervised fleet's tune and of one
// fault-free run.
#include "bench_common.hpp"

#include "dtm/fleet.hpp"
#include "exec/fault_injector.hpp"
#include "exec/metrics.hpp"
#include "phys/technology.hpp"
#include "ring/config.hpp"
#include "thermal/floorplan.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

using namespace stsense;

namespace {

dtm::ControlOptions control_options(bool quick, bool supervised) {
    return dtm::ControlOptions()
        .target(95.0)
        .trip(110.0)
        .duration(quick ? 1.5 : 3.0)
        .control_dt(2e-2)
        .sim_dt(5e-3)
        .supervised(supervised);
}

dtm::DtmFleet make_fleet(bool quick, bool supervised) {
    const auto fp = thermal::demo_floorplan();
    const auto layout = dtm::fleet_layout_from_floorplan(fp);
    sensor::MonitorConfig mc;
    mc.grid_nx = quick ? 24 : 32;
    mc.grid_ny = quick ? 24 : 32;
    mc.enable_health = true;
    return dtm::DtmFleet(
        phys::cmos350(), ring::RingConfig::uniform(cells::CellKind::Inv, 5, 2.75),
        fp, layout.regions, layout.sites, mc, control_options(quick, supervised));
}

/// First time the region shows FaultedSafe; -1 when it never does.
double detect_latency_s(const dtm::FleetResult& res, std::size_t region) {
    for (const auto& s : res.steps) {
        if (s.state[region] == dtm::ControlState::FaultedSafe) return s.t_s;
    }
    return -1.0;
}

double region_peak(const dtm::FleetResult& res, std::size_t region) {
    return res.regions[region].peak_true_c;
}

/// Supervisor-ladder recovery latency, measured on the state machine
/// directly: fault for `fault_steps`, then feed clean observations and
/// count steps until Active again (backoff wait + probation).
int ladder_recovery_steps(const dtm::SupervisorConfig& cfg, int fault_steps) {
    dtm::ControllerSupervisor sup(cfg);
    sup.mark_tuned();
    dtm::Observation bad;
    bad.reading_valid = false;
    bad.trust = 0.0;
    dtm::Observation good;
    good.measured_c = 95.0;
    good.predicted_c = 95.0;
    good.predicted_prev_c = 95.0;
    for (int i = 0; i < fault_steps; ++i) sup.observe(bad);
    int steps = 0;
    while (sup.state() != dtm::ControlState::Active && steps < 10000) {
        if (sup.should_probe()) sup.begin_probe();
        sup.observe(good);
        ++steps;
    }
    return steps;
}

struct ChaosRow {
    std::string name;
    std::size_t region = 0;
    dtm::ControlFault expected = dtm::ControlFault::None;
    double detect_s = -1.0;
    double peak_supervised_c = 0.0;
    double peak_raw_c = 0.0;
    dtm::ControlFault latched = dtm::ControlFault::None;
};

} // namespace

int main(int argc, char** argv) {
    const util::Cli cli(argc, argv);
    const bool quick = cli.has("quick");
    const bool chaos = cli.has("chaos");
    bench::banner("DTM",
                  "fault-supervised closed-loop fleet: autotuned per-region "
                  "PID vs the thermal envelope (target 95 / trip 110 degC)");

    bench::ShapeChecks checks;

    // ---- fault-free: control quality + supervision parity --------------
    auto fleet_sup = make_fleet(quick, true);
    auto fleet_raw = make_fleet(quick, false);
    const double tune_wall_s = bench::wall_seconds([&] { fleet_sup.tune(); });
    fleet_raw.tune();
    dtm::FleetResult clean_sup;
    const double run_wall_s =
        bench::wall_seconds([&] { clean_sup = fleet_sup.run(); });
    const auto clean_raw = fleet_raw.run();

    std::size_t parity_mismatches = 0;
    for (std::size_t k = 0; k < clean_sup.steps.size(); ++k) {
        const auto& a = clean_sup.steps[k];
        const auto& b = clean_raw.steps[k];
        for (std::size_t r = 0; r < a.u.size(); ++r) {
            const bool same_meas =
                (std::isnan(a.measured_c[r]) && std::isnan(b.measured_c[r])) ||
                a.measured_c[r] == b.measured_c[r];
            if (a.u[r] != b.u[r] || a.u_achieved[r] != b.u_achieved[r] ||
                a.true_c[r] != b.true_c[r] || !same_meas) {
                ++parity_mismatches;
            }
        }
    }

    util::Table clean_table({"run", "die peak (degC)", "max overshoot (degC)",
                             "settling (ms)", "fault latches"});
    auto add_clean = [&](const std::string& name, const dtm::FleetResult& r) {
        clean_table.add_row(
            {name, util::fixed(r.die_peak_c, 2), util::fixed(r.max_overshoot_c, 2),
             r.settling_time_s < 0.0 ? std::string("never")
                                     : util::fixed(1e3 * r.settling_time_s, 0),
             std::to_string(r.fault_latches)});
    };
    add_clean("supervised", clean_sup);
    add_clean("supervision off", clean_raw);
    std::cout << clean_table.render();

    util::Table region_table({"region", "state", "last fault", "latches",
                              "u (final)", "true (degC)", "peak (degC)"});
    for (const auto& rt : clean_sup.regions) {
        region_table.add_row({rt.name, dtm::to_string(rt.state),
                              dtm::to_string(rt.last_fault),
                              std::to_string(rt.supervisor.fault_latches),
                              util::fixed(rt.u, 3), util::fixed(rt.true_c, 2),
                              util::fixed(rt.peak_true_c, 2)});
    }
    std::cout << "\n" << region_table.render();
    std::cout << "\ntuned models: ";
    for (std::size_t r = 0; r < fleet_sup.region_count(); ++r) {
        const auto& m = fleet_sup.model(r);
        std::cout << fleet_sup.region(r).name << " (K=" << util::fixed(m.gain_c, 1)
                  << " degC, tau=" << util::fixed(1e3 * m.tau_s, 0) << " ms) ";
    }
    std::cout << "\n";

    const int recovery_steps =
        ladder_recovery_steps(control_options(quick, true).supervisor_config(), 6);
    const double recovery_s =
        recovery_steps * control_options(quick, true).control_dt_s();
    std::cout << "ladder recovery latency (6 faulted steps, then clean): "
              << recovery_steps << " steps = " << util::fixed(1e3 * recovery_s, 0)
              << " ms\n";
    std::cout << "wall time (not gated): tune " << util::fixed(1e3 * tune_wall_s, 1)
              << " ms, one fault-free run " << util::fixed(1e3 * run_wall_s, 1)
              << " ms\n";

    checks.expect("fault-free supervised run is bitwise the unsupervised run",
                  parity_mismatches == 0);
    checks.expect("fault-free run latches no faults",
                  clean_sup.fault_latches == 0);
    checks.expect("every region settles into the band",
                  clean_sup.settling_time_s >= 0.0);
    checks.expect("closed loop holds the die under the trip line",
                  clean_sup.die_peak_c < 110.0);
    checks.expect("ladder recovers a cleaned fault (backoff + probation)",
                  recovery_steps > 0 && recovery_steps < 200);

    // ---- chaos matrix ---------------------------------------------------
    std::vector<ChaosRow> rows;
    if (chaos) {
        const std::uint64_t seed = exec::FaultInjector::seed_from_env(20260808);
        std::cout << "\nchaos scenarios (fault seed " << seed << "):\n";

        struct Scenario {
            std::string name;
            exec::FaultInjector::Config cfg;
            std::size_t region;
            dtm::ControlFault expected;
        };
        std::vector<Scenario> scenarios;
        {
            exec::FaultInjector::Config c;
            c.seed = seed;
            c.p_region_kill = 1.0;
            c.only_units = {0};
            scenarios.push_back({"region-kill (core sensors dead)", c, 0,
                                 dtm::ControlFault::SensorLoss});
        }
        {
            exec::FaultInjector::Config c;
            c.seed = seed;
            c.p_actuator_stuck = 1.0;
            // 0.9, not 1.0: with the hottest block stuck at full power
            // the steady die peak stays above trip + 5 even with every
            // neighbor at the throttle floor — past the fleet's
            // actuation authority, no policy can hold the envelope.
            // Stuck-at-90% is still runaway-hot but winnable.
            c.stuck_factor = 0.9;
            c.only_units = {0};
            scenarios.push_back({"actuator stuck at 90% power (core)", c, 0,
                                 dtm::ControlFault::StuckActuator});
        }
        {
            exec::FaultInjector::Config c;
            c.seed = seed;
            c.p_drift_site = 1.0;
            c.drift_offset_c = -25.0;
            c.only_units = {0}; // ring 0 = the core region's site
            // A drifted-but-plausible reading passes the readout's
            // checks; the fleet's model-envelope detector is what
            // catches it, so the latched fault is Excursion.
            scenarios.push_back({"sensor drifts 25 degC cold (core)", c, 0,
                                 dtm::ControlFault::Excursion});
        }
        {
            exec::FaultInjector::Config c;
            c.seed = seed;
            c.p_stuck_osc = 1.0;
            c.only_units = {0};
            scenarios.push_back({"stuck oscillator (core site)", c, 0,
                                 dtm::ControlFault::SensorLoss});
        }
        {
            exec::FaultInjector::Config c;
            c.seed = seed;
            c.p_drift_site = 1.0;
            c.drift_offset_c = std::numeric_limits<double>::quiet_NaN();
            c.only_units = {0};
            scenarios.push_back({"NaN readings (core site)", c, 0,
                                 dtm::ControlFault::SensorLoss});
        }

        util::Table chaos_table({"scenario", "detect (ms)", "latched fault",
                                 "peak sup (degC)", "peak raw (degC)"});
        for (const auto& sc : scenarios) {
            ChaosRow row;
            row.name = sc.name;
            row.region = sc.region;
            row.expected = sc.expected;
            {
                exec::FaultInjector inj(sc.cfg);
                exec::FaultInjector::Scope scope(inj);
                const auto res = fleet_sup.run();
                row.detect_s = detect_latency_s(res, sc.region);
                row.peak_supervised_c = region_peak(res, sc.region);
                row.latched = res.regions[sc.region].last_fault;
            }
            {
                exec::FaultInjector inj(sc.cfg);
                exec::FaultInjector::Scope scope(inj);
                const auto res = fleet_raw.run();
                row.peak_raw_c = region_peak(res, sc.region);
            }
            chaos_table.add_row(
                {row.name,
                 row.detect_s < 0.0 ? std::string("never")
                                    : util::fixed(1e3 * row.detect_s, 0),
                 dtm::to_string(row.latched),
                 util::fixed(row.peak_supervised_c, 2),
                 util::fixed(row.peak_raw_c, 2)});
            rows.push_back(row);
        }
        std::cout << chaos_table.render();

        bool all_detected = true;
        bool all_expected = true;
        bool envelope_held = true;
        for (const auto& row : rows) {
            all_detected = all_detected && row.detect_s >= 0.0;
            all_expected = all_expected && row.latched == row.expected;
            envelope_held = envelope_held && row.peak_supervised_c < 115.0;
        }
        checks.expect("every chaos scenario latches FaultedSafe", all_detected);
        checks.expect("every scenario latches the expected fault kind",
                      all_expected);
        checks.expect("envelope invariant: supervised true peak < trip + 5 "
                      "degC in every scenario",
                      envelope_held);
        checks.expect("stuck actuator: supervision (neighbor derating) cuts "
                      "the peak vs unsupervised",
                      rows[1].peak_supervised_c < rows[1].peak_raw_c);
    }

    // ---- snapshot -------------------------------------------------------
    const std::string json_path = cli.get("json", std::string("BENCH_dtm.json"));
    {
        std::ofstream json(json_path);
        json << "{\n"
             << "  \"workload\": \"dtm_fleet\",\n"
             << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
             << "  \"chaos\": " << (chaos ? "true" : "false") << ",\n"
             << "  \"regions\": " << fleet_sup.region_count() << ",\n"
             << "  \"parity_mismatches\": " << parity_mismatches << ",\n"
             << "  \"die_peak_c\": " << clean_sup.die_peak_c << ",\n"
             << "  \"max_overshoot_c\": " << clean_sup.max_overshoot_c << ",\n"
             << "  \"settling_time_s\": " << clean_sup.settling_time_s << ",\n"
             << "  \"recovery_latency_s\": " << recovery_s << ",\n"
             << "  \"tune_solves\": " << clean_sup.tune_solves << ",\n"
             << "  \"scenarios\": [";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            json << (i == 0 ? "\n" : ",\n")
                 << "    {\"name\": \"" << rows[i].name << "\", "
                 << "\"detect_s\": " << rows[i].detect_s << ", "
                 << "\"fault\": \"" << dtm::to_string(rows[i].latched) << "\", "
                 << "\"peak_supervised_c\": " << rows[i].peak_supervised_c
                 << ", "
                 << "\"peak_raw_c\": " << rows[i].peak_raw_c << "}";
        }
        json << (rows.empty() ? "" : "\n  ") << "],\n"
             << "  \"tune_wall_s\": " << tune_wall_s << ",\n"
             << "  \"run_wall_s\": " << run_wall_s << ",\n"
             << "  \"metrics\": " << exec::MetricsRegistry::global().to_json()
             << "\n"
             << "}\n";
    }
    std::cout << "\ndtm snapshot: " << json_path << "\n";
    return checks.report();
}
