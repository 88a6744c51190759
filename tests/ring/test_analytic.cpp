#include "ring/analytic.hpp"

#include "phys/corners.hpp"
#include "phys/units.hpp"
#include "sensor/presets.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace stsense::ring {
namespace {

using cells::CellKind;

constexpr double kRoomK = 300.15;

/// The technology moved `k` sigma of the default die-to-die variation:
/// both thresholds up by k * vth_sigma, both current factors scaled by
/// (1 - k * kp_rel_sigma) — a slow die for k > 0, a fast one for k < 0.
phys::Technology sigma_shifted(double k) {
    const phys::VariationSpec var;
    phys::Technology t = phys::cmos350();
    for (phys::MosfetParams* p : {&t.nmos, &t.pmos}) {
        p->vth0 += k * var.vth_sigma;
        p->kp *= 1.0 - k * var.kp_rel_sigma;
    }
    return t;
}

TEST(AnalyticRing, PeriodPlausibleFor5StageInv) {
    const AnalyticRingModel m(phys::cmos350(), RingConfig::uniform(CellKind::Inv, 5));
    const double p = m.period(kRoomK);
    // Hundreds of ps for a 0.35 um 5-stage ring.
    EXPECT_GT(p, 50e-12);
    EXPECT_LT(p, 2e-9);
    EXPECT_NEAR(m.frequency(kRoomK), 1.0 / p, 1.0);
}

TEST(AnalyticRing, PeriodIncreasesMonotonicallyWithTemperature) {
    const AnalyticRingModel m(phys::cmos350(), RingConfig::uniform(CellKind::Inv, 5));
    double prev = m.period(223.15);
    for (double t = 235.0; t <= 423.15; t += 12.5) {
        const double cur = m.period(t);
        EXPECT_GT(cur, prev) << "T=" << t;
        prev = cur;
    }
}

TEST(AnalyticRing, PeriodScalesWithStageCount) {
    const auto tech = phys::cmos350();
    const double p5 = AnalyticRingModel(tech, RingConfig::uniform(CellKind::Inv, 5)).period(kRoomK);
    const double p9 = AnalyticRingModel(tech, RingConfig::uniform(CellKind::Inv, 9)).period(kRoomK);
    const double p21 = AnalyticRingModel(tech, RingConfig::uniform(CellKind::Inv, 21)).period(kRoomK);
    EXPECT_NEAR(p9 / p5, 9.0 / 5.0, 0.02);
    EXPECT_NEAR(p21 / p5, 21.0 / 5.0, 0.05);
}

TEST(AnalyticRing, NandRingSlowerThanInvRing) {
    const auto tech = phys::cmos350();
    const double pi = AnalyticRingModel(tech, RingConfig::uniform(CellKind::Inv, 5)).period(kRoomK);
    const double pn = AnalyticRingModel(tech, RingConfig::uniform(CellKind::Nand2, 5)).period(kRoomK);
    EXPECT_GT(pn, pi);
}

TEST(AnalyticRing, PeriodsBatchMatchesScalar) {
    const AnalyticRingModel m(phys::cmos350(), RingConfig::uniform(CellKind::Inv, 5));
    const std::vector<double> temps{250.0, 300.0, 400.0};
    const auto batch = m.periods(temps);
    ASSERT_EQ(batch.size(), 3u);
    for (std::size_t i = 0; i < temps.size(); ++i) {
        EXPECT_DOUBLE_EQ(batch[i], m.period(temps[i]));
    }
}

TEST(AnalyticRing, StageLoadIncludesNextStageInput) {
    const auto tech = phys::cmos350();
    // Alternate INV and NAND3 stages: loads alternate too (NAND3 input
    // pin == INV input pin cap under Supply tie, so equal here), but a
    // bridged NAND3 next-stage triples the load.
    RingConfig cfg = RingConfig::uniform(CellKind::Inv, 5);
    cfg.stages[1].kind = CellKind::Nand3;
    cfg.stages[1].tie = cells::SideInputTie::Bridge;
    const AnalyticRingModel m(tech, cfg);
    // Stage 0 drives the bridged NAND3.
    EXPECT_NEAR(m.stage_load(0) / m.stage_load(1), 3.0, 1e-9);
}

TEST(AnalyticRing, StageLoadIndexChecked) {
    const AnalyticRingModel m(phys::cmos350(), RingConfig::uniform(CellKind::Inv, 5));
    EXPECT_THROW(m.stage_load(5), std::out_of_range);
}

TEST(AnalyticRing, SensitivityPositiveAndStable) {
    const AnalyticRingModel m(phys::cmos350(), RingConfig::uniform(CellKind::Inv, 5));
    const double s = m.sensitivity(kRoomK);
    EXPECT_GT(s, 0.0);
    // ~0.3-0.6 %/K of a ~275 ps period -> order 1 ps/K.
    EXPECT_GT(s, 0.1e-12);
    EXPECT_LT(s, 10e-12);
    EXPECT_THROW(m.sensitivity(kRoomK, 0.0), std::invalid_argument);
}

TEST(AnalyticRing, InvalidConfigRejected) {
    EXPECT_THROW(AnalyticRingModel(phys::cmos350(),
                                   RingConfig::uniform(CellKind::Inv, 4)),
                 std::invalid_argument);
}

TEST(AnalyticRing, WireCapSlowsRing) {
    auto tech = phys::cmos350();
    const double p0 =
        AnalyticRingModel(tech, RingConfig::uniform(CellKind::Inv, 5)).period(kRoomK);
    tech.wire_cap_per_stage = 5e-15;
    const double p1 =
        AnalyticRingModel(tech, RingConfig::uniform(CellKind::Inv, 5)).period(kRoomK);
    EXPECT_GT(p1, p0);
}

TEST(AnalyticRing, PeriodIsBitwiseThePlainSumOfStageDelays) {
    // period() forms the mobility factors once per device card; the
    // result must equal, bit for bit, the plain per-stage sum in which
    // every stage forms them itself.
    std::vector<std::pair<std::string, RingConfig>> rings =
        sensor::presets::fig3_configurations();
    for (double r : sensor::presets::kFig2Ratios) {
        rings.emplace_back(
            "5xINV Wp/Wn=" + std::to_string(r),
            RingConfig::uniform(CellKind::Inv, sensor::presets::kPaperStages, r));
    }
    util::Rng rng(2005);
    rings.emplace_back("13xINV mismatched",
                       sample_stage_mismatch(RingConfig::uniform(CellKind::Inv, 13),
                                             MismatchSpec{0.01, 0.004}, rng));

    const std::vector<std::pair<std::string, phys::Technology>> techs = {
        {"nominal", phys::cmos350()},
        {"+1 sigma", sigma_shifted(1.0)},
        {"-1 sigma", sigma_shifted(-1.0)},
    };
    for (const auto& [tech_name, tech] : techs) {
        for (const auto& [ring_name, ring] : rings) {
            const AnalyticRingModel m(tech, ring);
            for (double tc = -50.0; tc <= 150.0; tc += 12.5) {
                const double tk = phys::celsius_to_kelvin(tc);
                double sum = 0.0;
                for (std::size_t i = 0; i < ring.stages.size(); ++i) {
                    sum += m.delay_model()
                               .delays(ring.stages[i], m.stage_load(i), tk)
                               .pair_delay();
                }
                EXPECT_EQ(m.period(tk), sum)
                    << tech_name << ", " << ring_name << ", " << tc << " degC";
            }
        }
    }
}

} // namespace
} // namespace stsense::ring
