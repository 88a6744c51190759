#include "dtm/fleet.hpp"

#include "phys/technology.hpp"
#include "ring/config.hpp"
#include "thermal/floorplan.hpp"
#include "util/expected.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <utility>

namespace stsense::dtm {
namespace {

ControlOptions test_options(bool supervised = true) {
    return ControlOptions().duration(1.5).supervised(supervised);
}

DtmFleet make_fleet(ControlOptions opts) {
    const auto fp = thermal::demo_floorplan();
    const auto layout = fleet_layout_from_floorplan(fp);
    sensor::MonitorConfig mc;
    mc.grid_nx = 24;
    mc.grid_ny = 24;
    mc.enable_health = true;
    return DtmFleet(phys::cmos350(),
                    ring::RingConfig::uniform(cells::CellKind::Inv, 5, 2.75),
                    fp, layout.regions, layout.sites, mc, opts);
}

TEST(DtmFleetLayout, OneRegionPerBlockPlusGuards) {
    const auto fp = thermal::demo_floorplan();
    const auto layout = fleet_layout_from_floorplan(fp);
    ASSERT_EQ(layout.regions.size(), fp.blocks().size());
    EXPECT_EQ(layout.sites.size(), fp.blocks().size() + 9u);
    for (std::size_t r = 0; r < layout.regions.size(); ++r) {
        EXPECT_EQ(layout.regions[r].name, fp.blocks()[r].name);
        ASSERT_EQ(layout.regions[r].block_indices.size(), 1u);
        ASSERT_EQ(layout.regions[r].site_indices.size(), 1u);
        const auto& site = layout.sites[layout.regions[r].site_indices[0]];
        EXPECT_EQ(site.name, "r_" + fp.blocks()[r].name);
    }
    // Guard sites are unassigned to any region.
    EXPECT_EQ(layout.sites[fp.blocks().size()].name.rfind("guard_", 0), 0u);
}

TEST(DtmFleetOptions, TryValidateReportsOutOfRange) {
    const auto bad = ControlOptions().target(120.0).trip(110.0).try_validate();
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().kind, ErrorKind::OutOfRange);
    EXPECT_NE(bad.error().message.find("target"), std::string::npos);
}

TEST(DtmFleetOptions, ValidateThrowsInvalidArgument) {
    EXPECT_NO_THROW(ControlOptions().validate());
    EXPECT_THROW(ControlOptions().control_dt(0.0).validate(),
                 std::invalid_argument);
    EXPECT_THROW(ControlOptions().sim_dt(0.05).control_dt(0.02).validate(),
                 std::invalid_argument);
    EXPECT_THROW(ControlOptions().throttle_floor(0.0).validate(),
                 std::invalid_argument);
    EXPECT_THROW(ControlOptions().neighbor_derate(0.0).validate(),
                 std::invalid_argument);
    SupervisorConfig sc;
    sc.fault_after = 1;
    sc.suspect_after = 3; // fault_after < suspect_after: malformed ladder
    EXPECT_THROW(ControlOptions().supervisor(sc).validate(),
                 std::invalid_argument);

    // Non-finite values fail every check they reach.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::pair<const char*, ControlOptions> non_finite[] = {
        {"duration nan", ControlOptions().duration(nan)},
        {"duration inf", ControlOptions().duration(inf)},
        {"sim_dt nan", ControlOptions().sim_dt(nan)},
        {"tune_horizon inf", ControlOptions().tune_horizon(inf)},
        {"tune_horizon nan", ControlOptions().tune_horizon(nan)},
        {"tau_c nan", ControlOptions().tau_c(nan)},
        {"tau_c inf", ControlOptions().tau_c(inf)},
        {"throttle_floor nan", ControlOptions().throttle_floor(nan)},
        {"tune_step nan", ControlOptions().tune_step(nan)},
        {"settle_band nan", ControlOptions().settle_band(nan)},
        {"settle_band inf", ControlOptions().settle_band(inf)},
        {"adjacency_gap nan", ControlOptions().adjacency_gap(nan)},
        {"adjacency_gap inf", ControlOptions().adjacency_gap(inf)},
        {"neighbor_derate nan", ControlOptions().neighbor_derate(nan)},
        {"target -inf", ControlOptions().target(-inf)},
        {"trip inf", ControlOptions().trip(inf)},
    };
    for (const auto& [what, options] : non_finite) {
        EXPECT_THROW(options.validate(), std::invalid_argument) << what;
    }
    SupervisorConfig nan_detector;
    nan_detector.excursion_c = nan;
    EXPECT_THROW(ControlOptions().supervisor(nan_detector).validate(),
                 std::invalid_argument);
    nan_detector = SupervisorConfig{};
    nan_detector.stuck_tol = inf;
    EXPECT_THROW(ControlOptions().supervisor(nan_detector).validate(),
                 std::invalid_argument);
    nan_detector = SupervisorConfig{};
    nan_detector.trust_floor = nan;
    EXPECT_THROW(ControlOptions().supervisor(nan_detector).validate(),
                 std::invalid_argument);

    // Step counts that do not fit an int: duration / control_dt,
    // control_dt / sim_dt and tune_horizon / sim_dt.
    EXPECT_THROW(ControlOptions().duration(1e12).validate(),
                 std::invalid_argument);
    EXPECT_THROW(ControlOptions().control_dt(1e3).sim_dt(1e-7).validate(),
                 std::invalid_argument);
    EXPECT_THROW(ControlOptions().tune_horizon(1e9).validate(),
                 std::invalid_argument);
    EXPECT_NO_THROW(ControlOptions().duration(1e6).tune_horizon(1e6).validate());
}

TEST(DtmFleetOptions, FluentChainsKeepValues) {
    const auto o = ControlOptions()
                       .target(90.0)
                       .trip(105.0)
                       .throttle_floor(0.2)
                       .neighbor_derate(0.5)
                       .supervised(false);
    EXPECT_DOUBLE_EQ(o.target_c(), 90.0);
    EXPECT_DOUBLE_EQ(o.trip_c(), 105.0);
    EXPECT_DOUBLE_EQ(o.throttle_floor_u(), 0.2);
    EXPECT_DOUBLE_EQ(o.neighbor_derate_cap(), 0.5);
    EXPECT_FALSE(o.supervised_enabled());
}

TEST(DtmFleetCtor, RejectsBadRegionSpecs) {
    const auto fp = thermal::demo_floorplan();
    auto layout = fleet_layout_from_floorplan(fp);
    sensor::MonitorConfig mc;
    mc.grid_nx = 24;
    mc.grid_ny = 24;
    const auto mk = [&](std::vector<RegionSpec> regions) {
        return std::make_unique<DtmFleet>(
            phys::cmos350(),
            ring::RingConfig::uniform(cells::CellKind::Inv, 5, 2.75), fp,
            std::move(regions), layout.sites, mc, test_options());
    };
    EXPECT_THROW(mk({}), std::invalid_argument);
    auto out_of_range = layout.regions;
    out_of_range[0].block_indices = {99};
    EXPECT_THROW(mk(out_of_range), std::invalid_argument);
    auto twice = layout.regions;
    twice[1].block_indices = twice[0].block_indices;
    EXPECT_THROW(mk(twice), std::invalid_argument);
    auto no_sites = layout.regions;
    no_sites[0].site_indices.clear();
    EXPECT_THROW(mk(no_sites), std::invalid_argument);
}

TEST(DtmWorkloadTrace, ActivityLookup) {
    WorkloadTrace trace;
    EXPECT_DOUBLE_EQ(trace.activity_at(0.0, 0), 1.0); // empty = nominal
    trace.phases.push_back({1.0, {0.5, 0.8}});
    trace.phases.push_back({1.0, {1.0}});
    EXPECT_DOUBLE_EQ(trace.activity_at(0.5, 0), 0.5);
    EXPECT_DOUBLE_EQ(trace.activity_at(0.5, 1), 0.8);
    EXPECT_DOUBLE_EQ(trace.activity_at(1.5, 0), 1.0);
    EXPECT_DOUBLE_EQ(trace.activity_at(1.5, 1), 1.0); // missing entry
    EXPECT_DOUBLE_EQ(trace.activity_at(9.0, 0), 1.0); // past the end
}

// The expensive fixtures: one tuned fleet per supervision mode, shared
// across tests (tune = R+1 steady solves + R transients).
class DtmFleetRun : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        supervised_ = new DtmFleet(make_fleet(test_options(true)));
        raw_ = new DtmFleet(make_fleet(test_options(false)));
        supervised_->tune();
        raw_->tune();
    }
    static void TearDownTestSuite() {
        delete supervised_;
        delete raw_;
        supervised_ = nullptr;
        raw_ = nullptr;
    }
    static DtmFleet* supervised_;
    static DtmFleet* raw_;
};
DtmFleet* DtmFleetRun::supervised_ = nullptr;
DtmFleet* DtmFleetRun::raw_ = nullptr;

TEST_F(DtmFleetRun, TuneIdentifiesEveryRegion) {
    ASSERT_TRUE(supervised_->tuned());
    for (std::size_t r = 0; r < supervised_->region_count(); ++r) {
        EXPECT_TRUE(supervised_->model(r).valid) << supervised_->region(r).name;
        EXPECT_GT(supervised_->model(r).gain_c, 0.0);
        EXPECT_GT(supervised_->model(r).tau_s, 0.0);
        EXPECT_GT(supervised_->gains(r).kp, 0.0);
        EXPECT_GT(supervised_->gains(r).ki, 0.0);
    }
}

TEST_F(DtmFleetRun, StaticGainMatrixIsColumnDominant) {
    // Row dominance does NOT hold on the demo die: the 3 W io block is
    // warmed more by its 9 W fpu neighbor than by its own power. What
    // controllability needs — and what the plant delivers — is column
    // dominance: throttling region r moves region r's temperature more
    // than it moves anybody else's.
    const std::size_t n = supervised_->region_count();
    for (std::size_t r = 0; r < n; ++r) {
        const double diag = supervised_->static_gain(r, r);
        EXPECT_GT(diag, 0.0);
        for (std::size_t q = 0; q < n; ++q) {
            if (q == r) continue;
            EXPECT_GT(supervised_->static_gain(r, q), 0.0)
                << "heating any region warms every region";
            EXPECT_GT(diag, supervised_->static_gain(q, r))
                << "own knob must move its region most";
        }
    }
}

TEST_F(DtmFleetRun, FaultFreeSupervisedRunIsBitwiseUnsupervised) {
    const auto a = supervised_->run();
    const auto b = raw_->run();
    EXPECT_EQ(a.fault_latches, 0u);
    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (std::size_t k = 0; k < a.steps.size(); ++k) {
        for (std::size_t r = 0; r < supervised_->region_count(); ++r) {
            EXPECT_EQ(a.steps[k].u[r], b.steps[k].u[r]);
            EXPECT_EQ(a.steps[k].u_achieved[r], b.steps[k].u_achieved[r]);
            EXPECT_EQ(a.steps[k].true_c[r], b.steps[k].true_c[r]);
        }
        EXPECT_EQ(a.steps[k].die_peak_c, b.steps[k].die_peak_c);
    }
    EXPECT_EQ(a.die_peak_c, b.die_peak_c);
    EXPECT_EQ(a.settling_time_s, b.settling_time_s);
}

TEST_F(DtmFleetRun, FaultFreeRunRegulatesAndSettles) {
    const auto res = supervised_->run();
    EXPECT_EQ(res.fault_latches, 0u);
    EXPECT_LT(res.die_peak_c, supervised_->options().trip_c());
    EXPECT_GE(res.settling_time_s, 0.0);
    for (const auto& rt : res.regions) {
        EXPECT_EQ(rt.state, ControlState::Active) << rt.name;
        EXPECT_EQ(rt.last_fault, ControlFault::None) << rt.name;
        // Regulated at or below target (low-power regions saturate
        // below it); always under the trip line.
        EXPECT_LT(rt.true_c, supervised_->options().trip_c()) << rt.name;
    }
}

TEST_F(DtmFleetRun, RunsAreDeterministic) {
    const auto a = supervised_->run();
    const auto b = supervised_->run();
    ASSERT_EQ(a.steps.size(), b.steps.size());
    EXPECT_EQ(a.die_peak_c, b.die_peak_c);
    EXPECT_EQ(a.settling_time_s, b.settling_time_s);
    EXPECT_EQ(a.steps.back().u, b.steps.back().u);
}

TEST_F(DtmFleetRun, WorkloadTraceShiftsPower) {
    // Core idling at 30% activity: its temperature must come out well
    // below the all-nominal run's.
    WorkloadTrace idle;
    idle.phases.push_back({10.0, {0.3, 1.0, 1.0, 1.0}});
    const auto nominal = supervised_->run();
    const auto idled = supervised_->run(idle);
    EXPECT_LT(idled.regions[0].true_c, nominal.regions[0].true_c - 2.0);
    EXPECT_EQ(idled.fault_latches, 0u);
}

} // namespace
} // namespace stsense::dtm
