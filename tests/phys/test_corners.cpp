#include "phys/corners.hpp"
#include "phys/mosfet.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace stsense::phys {
namespace {

MosGeometry unit_geom() { return {1.0e-6, 0.35e-6}; }

TEST(Corners, NamesRoundTrip) {
    EXPECT_EQ(to_string(Corner::TT), "TT");
    EXPECT_EQ(to_string(Corner::FF), "FF");
    EXPECT_EQ(to_string(Corner::SS), "SS");
    EXPECT_EQ(to_string(Corner::FS), "FS");
    EXPECT_EQ(to_string(Corner::SF), "SF");
}

TEST(Corners, TtIsIdentityOnDevices) {
    const Technology base = cmos350();
    const Technology tt = apply_corner(base, Corner::TT);
    EXPECT_DOUBLE_EQ(tt.nmos.vth0, base.nmos.vth0);
    EXPECT_DOUBLE_EQ(tt.pmos.kp, base.pmos.kp);
}

TEST(Corners, FastCornerIsFaster) {
    const Technology base = cmos350();
    const Technology ff = apply_corner(base, Corner::FF);
    const double i_base = saturation_current(base.nmos, unit_geom(), base.vdd, 300.0);
    const double i_ff = saturation_current(ff.nmos, unit_geom(), ff.vdd, 300.0);
    EXPECT_GT(i_ff, i_base);
}

TEST(Corners, SlowCornerIsSlower) {
    const Technology base = cmos350();
    const Technology ss = apply_corner(base, Corner::SS);
    const double i_base = saturation_current(base.nmos, unit_geom(), base.vdd, 300.0);
    const double i_ss = saturation_current(ss.nmos, unit_geom(), ss.vdd, 300.0);
    EXPECT_LT(i_ss, i_base);
}

TEST(Corners, SkewedCornersMovePolaritiesOppositely) {
    const Technology base = cmos350();
    const Technology fs = apply_corner(base, Corner::FS);
    EXPECT_LT(fs.nmos.vth0, base.nmos.vth0); // Fast NMOS.
    EXPECT_GT(fs.pmos.vth0, base.pmos.vth0); // Slow PMOS.
    const Technology sf = apply_corner(base, Corner::SF);
    EXPECT_GT(sf.nmos.vth0, base.nmos.vth0);
    EXPECT_LT(sf.pmos.vth0, base.pmos.vth0);
}

TEST(Corners, CornerNameAppended) {
    EXPECT_EQ(apply_corner(cmos350(), Corner::FF).name, "cmos350-FF");
}

TEST(Variation, DeterministicGivenSeed) {
    const Technology base = cmos350();
    const VariationSpec spec;
    util::Rng a(99);
    util::Rng b(99);
    const Technology va = sample_variation(base, spec, a);
    const Technology vb = sample_variation(base, spec, b);
    EXPECT_DOUBLE_EQ(va.nmos.vth0, vb.nmos.vth0);
    EXPECT_DOUBLE_EQ(va.pmos.kp, vb.pmos.kp);
}

TEST(Variation, SpreadMatchesSigma) {
    const Technology base = cmos350();
    VariationSpec spec;
    spec.vth_sigma = 0.015;
    util::Rng rng(4);
    double sum = 0.0;
    double sum_sq = 0.0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        const double dv = sample_variation(base, spec, rng).nmos.vth0 - base.nmos.vth0;
        sum += dv;
        sum_sq += dv * dv;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.002);
    EXPECT_NEAR(std::sqrt(sum_sq / n), spec.vth_sigma, 0.002);
}

TEST(Variation, CorrelatedModeTiesPolarities) {
    const Technology base = cmos350();
    VariationSpec spec;
    spec.correlated_np = true;
    util::Rng rng(8);
    for (int i = 0; i < 20; ++i) {
        const Technology v = sample_variation(base, spec, rng);
        const double dn = v.nmos.vth0 - base.nmos.vth0;
        const double dp = v.pmos.vth0 - base.pmos.vth0;
        EXPECT_NEAR(dn, dp, 1e-12);
    }
}

TEST(Variation, BatchSamplesMatchPerTrialStreams) {
    const Technology base = cmos350();
    VariationSpec spec;
    const util::Rng rng(77);
    std::vector<Technology> batch(5);
    VariationStream(base, spec, rng).next_n(batch, nullptr);
    ASSERT_EQ(batch.size(), 5u);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        util::Rng trial = rng.split(static_cast<std::uint64_t>(i));
        const auto expected = sample_variation(base, spec, trial);
        EXPECT_DOUBLE_EQ(batch[i].nmos.vth0, expected.nmos.vth0);
        EXPECT_DOUBLE_EQ(batch[i].nmos.kp, expected.nmos.kp);
        EXPECT_DOUBLE_EQ(batch[i].pmos.vth0, expected.pmos.vth0);
    }
}

TEST(Variation, BatchOfZeroTrialsIsEmpty) {
    const Technology base = cmos350();
    const util::Rng rng(77);
    VariationStream stream(base, VariationSpec{}, rng);
    std::vector<Technology> batch;
    stream.next_n(batch, nullptr);
    EXPECT_TRUE(batch.empty());
    EXPECT_EQ(stream.cursor(), 0u);
}

TEST(Variation, VddVariationOptIn) {
    const Technology base = cmos350();
    VariationSpec spec; // vdd_rel_sigma = 0 by default.
    util::Rng rng(5);
    EXPECT_DOUBLE_EQ(sample_variation(base, spec, rng).vdd, base.vdd);

    spec.vdd_rel_sigma = 0.05;
    bool moved = false;
    for (int i = 0; i < 10 && !moved; ++i) {
        moved = sample_variation(base, spec, rng).vdd != base.vdd;
    }
    EXPECT_TRUE(moved);
}

} // namespace
} // namespace stsense::phys
