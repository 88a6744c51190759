#include "phys/mosfet.hpp"
#include "phys/technology.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

namespace stsense::phys {
namespace {

MosfetParams nmos() { return cmos350().nmos; }
MosfetParams pmos() { return cmos350().pmos; }
MosGeometry unit_geom() { return {1.0e-6, 0.35e-6}; }

TEST(Mosfet, ThresholdDropsWithTemperature) {
    const auto p = nmos();
    EXPECT_LT(threshold_voltage(p, 400.0), threshold_voltage(p, 300.0));
    EXPECT_NEAR(threshold_voltage(p, p.t0), p.vth0, 1e-12);
    EXPECT_NEAR(threshold_voltage(p, p.t0 + 100.0), p.vth0 - 100.0 * p.vth_tc, 1e-12);
}

TEST(Mosfet, MobilityDegradesWithTemperature) {
    const auto p = nmos();
    EXPECT_DOUBLE_EQ(mobility_factor(p, p.t0), 1.0);
    EXPECT_LT(mobility_factor(p, 400.0), 1.0);
    EXPECT_GT(mobility_factor(p, 250.0), 1.0);
}

TEST(Mosfet, SuppliedMobilityIsBitwiseTheComputedOne) {
    // The analytic ring hoists mobility_factor out of its stage loop; the
    // hoisted form must not move a bit of the drive current.
    for (const MosfetParams& p : {nmos(), pmos()}) {
        for (const MosGeometry g : {unit_geom(), MosGeometry{4.2e-6, 0.35e-6}}) {
            for (double vgs : {0.0, 0.6, 1.1, 3.3}) {
                for (double t = 223.15; t <= 423.15; t += 12.5) {
                    EXPECT_EQ(saturation_current(p, g, vgs, t,
                                                 mobility_factor(p, t)),
                              saturation_current(p, g, vgs, t))
                        << "vgs=" << vgs << " T=" << t;
                }
            }
        }
    }
}

TEST(Mosfet, SaturationCurrentScalesWithWidth) {
    const auto p = nmos();
    MosGeometry g1 = unit_geom();
    MosGeometry g2 = g1;
    g2.w *= 2.0;
    const double i1 = saturation_current(p, g1, 3.3, 300.0);
    const double i2 = saturation_current(p, g2, 3.3, 300.0);
    EXPECT_NEAR(i2 / i1, 2.0, 1e-9);
}

TEST(Mosfet, SaturationCurrentIncreasesWithVgs) {
    const auto p = nmos();
    const auto g = unit_geom();
    double prev = saturation_current(p, g, 1.0, 300.0);
    for (double vgs = 1.2; vgs <= 3.3; vgs += 0.2) {
        const double cur = saturation_current(p, g, vgs, 300.0);
        EXPECT_GT(cur, prev) << "vgs=" << vgs;
        prev = cur;
    }
}

TEST(Mosfet, OffDeviceCurrentTiny) {
    const auto p = nmos();
    const auto g = unit_geom();
    const double off = saturation_current(p, g, 0.0, 300.0);
    const double on = saturation_current(p, g, 3.3, 300.0);
    EXPECT_LT(off / on, 1e-2);
}

TEST(Mosfet, NominalOnCurrentMagnitudeRealistic) {
    // ~500 uA/um is the right ballpark for a 0.35 um NMOS at Vdd = 3.3 V.
    const double id = saturation_current(nmos(), unit_geom(), 3.3, 300.0);
    EXPECT_GT(id, 200e-6);
    EXPECT_LT(id, 1000e-6);
}

TEST(Mosfet, EvaluateZeroVdsZeroCurrent) {
    const auto e = evaluate(nmos(), unit_geom(), 3.3, 0.0, 300.0);
    EXPECT_DOUBLE_EQ(e.id, 0.0);
    EXPECT_GT(e.gds, 0.0); // Finite triode conductance at the origin.
}

TEST(Mosfet, EvaluateMatchesSaturationBranch) {
    const auto p = nmos();
    const auto g = unit_geom();
    const double idsat = saturation_current(p, g, 3.3, 300.0);
    const auto e = evaluate(p, g, 3.3, 3.3, 300.0);
    // In saturation with channel-length modulation: Id = Idsat*(1+lambda*vds).
    EXPECT_NEAR(e.id, idsat * (1.0 + p.lambda * 3.3), idsat * 1e-9);
}

TEST(Mosfet, NegativeVdsAntisymmetric) {
    const auto p = nmos();
    const auto g = unit_geom();
    // id(vgs, -vds) should equal -id(vgs + vds, vds) by S/D symmetry.
    const auto fwd = evaluate(p, g, 3.3 + 0.5, 0.5, 300.0);
    const auto rev = evaluate(p, g, 3.3, -0.5, 300.0);
    EXPECT_NEAR(rev.id, -fwd.id, std::abs(fwd.id) * 1e-9);
}

TEST(Mosfet, InvalidInputsThrow) {
    const auto p = nmos();
    const auto g = unit_geom();
    EXPECT_THROW(evaluate(p, g, 1.0, 1.0, -5.0), std::invalid_argument);
    MosGeometry bad = g;
    bad.w = 0.0;
    EXPECT_THROW(evaluate(p, bad, 1.0, 1.0, 300.0), std::invalid_argument);
    MosfetParams pb = p;
    pb.alpha = 2.5;
    EXPECT_THROW(evaluate(pb, g, 1.0, 1.0, 300.0), std::invalid_argument);
}

// ---- Property-based derivative checks -------------------------------------
// The Newton solver relies on gm/gds matching the I-V surface; verify the
// analytic derivatives against central differences over a bias grid for
// both polarities.

using BiasParam = std::tuple<double, double, double, bool>; // vgs, vds, temp, is_pmos

class MosfetDerivativeTest : public ::testing::TestWithParam<BiasParam> {};

TEST_P(MosfetDerivativeTest, AnalyticMatchesNumeric) {
    const auto [vgs, vds, temp, is_pmos] = GetParam();
    const MosfetParams p = is_pmos ? pmos() : nmos();
    const auto g = unit_geom();
    const double h = 1e-6;

    const MosEval e = evaluate(p, g, vgs, vds, temp);
    const double gm_num =
        (evaluate(p, g, vgs + h, vds, temp).id - evaluate(p, g, vgs - h, vds, temp).id) /
        (2.0 * h);
    const double gds_num =
        (evaluate(p, g, vgs, vds + h, temp).id - evaluate(p, g, vgs, vds - h, temp).id) /
        (2.0 * h);

    const double scale = std::max(1e-6, std::abs(e.id));
    EXPECT_NEAR(e.gm, gm_num, 2e-3 * scale + 1e-9) << "gm mismatch";
    EXPECT_NEAR(e.gds, gds_num, 2e-3 * scale + 1e-9) << "gds mismatch";
}

std::string bias_param_name(const ::testing::TestParamInfo<BiasParam>& info) {
    const auto [vgs, vds, temp, is_pmos] = info.param;
    auto fmt = [](double v) {
        std::string s = std::to_string(v);
        for (auto& c : s) {
            if (c == '.' || c == '-') c = '_';
        }
        return s.substr(0, 5);
    };
    return std::string(is_pmos ? "P" : "N") + "_vgs" + fmt(vgs) + "_vds" +
           fmt(vds) + "_T" + fmt(temp);
}

INSTANTIATE_TEST_SUITE_P(
    BiasGrid, MosfetDerivativeTest,
    ::testing::Combine(::testing::Values(0.0, 0.4, 0.8, 1.5, 2.4, 3.3),  // vgs
                       ::testing::Values(0.05, 0.3, 1.0, 2.0, 3.3),     // vds
                       ::testing::Values(223.15, 300.0, 423.15),        // temp
                       ::testing::Bool()),                              // pmos?
    bias_param_name);

// Delay-relevant property: the drive current *decreases* with temperature
// at full gate drive (mobility dominates threshold) for both devices —
// the sign that makes delay, and hence the sensor reading, increase with T.
class MosfetTempCurrentTest : public ::testing::TestWithParam<bool> {};

TEST_P(MosfetTempCurrentTest, OnCurrentFallsWithTemperature) {
    const MosfetParams p = GetParam() ? pmos() : nmos();
    const auto g = unit_geom();
    double prev = saturation_current(p, g, 3.3, 223.15);
    for (double t = 248.15; t <= 423.15; t += 25.0) {
        const double cur = saturation_current(p, g, 3.3, t);
        EXPECT_LT(cur, prev) << "T=" << t;
        prev = cur;
    }
}

INSTANTIATE_TEST_SUITE_P(BothPolarities, MosfetTempCurrentTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                             return info.param ? "Pmos" : "Nmos";
                         });

// Region-boundary continuity: the triode/saturation handoff at
// vds = vdsat must be continuous in current (C0) and nearly so in
// conductance (C1 by construction of the CLM blending).
class MosfetBoundaryTest : public ::testing::TestWithParam<double> {};

TEST_P(MosfetBoundaryTest, ContinuousAcrossVdsat) {
    const MosfetParams p = nmos();
    const auto g = unit_geom();
    const double vgs = GetParam();
    const double vdsat = saturation_voltage(p, vgs, 300.0);
    ASSERT_GT(vdsat, 0.0);
    const double eps = 1e-7;
    const auto below = evaluate(p, g, vgs, vdsat - eps, 300.0);
    const auto above = evaluate(p, g, vgs, vdsat + eps, 300.0);
    EXPECT_NEAR(below.id, above.id, 1e-6 * std::abs(above.id) + 1e-12);
    EXPECT_NEAR(below.gds, above.gds, 1e-3 * std::abs(above.id) + 1e-9);
    EXPECT_NEAR(below.gm, above.gm, 1e-3 * std::abs(above.gm) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(GateDrives, MosfetBoundaryTest,
                         ::testing::Values(0.8, 1.2, 2.0, 2.8, 3.3),
                         [](const ::testing::TestParamInfo<double>& info) {
                             return "vgs" + std::to_string(
                                                static_cast<int>(info.param * 100));
                         });

TEST(Mosfet, Capacitances) {
    const auto p = nmos();
    const auto g = unit_geom();
    EXPECT_DOUBLE_EQ(gate_capacitance(p, g), p.cgate_per_w * g.w);
    EXPECT_DOUBLE_EQ(drain_capacitance(p, g), p.cdrain_per_w * g.w);
}

} // namespace
} // namespace stsense::phys
