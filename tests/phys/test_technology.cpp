#include "phys/technology.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <utility>

namespace stsense::phys {
namespace {

TEST(Technology, PresetsAreValid) {
    EXPECT_NO_THROW(validate(cmos350()));
    EXPECT_NO_THROW(validate(cmos180()));
    EXPECT_NO_THROW(validate(cmos130()));
}

TEST(Technology, LookupByName) {
    EXPECT_EQ(technology_by_name("cmos350").name, "cmos350");
    EXPECT_EQ(technology_by_name("cmos180").name, "cmos180");
    EXPECT_EQ(technology_by_name("cmos130").name, "cmos130");
    EXPECT_THROW(technology_by_name("cmos65"), std::invalid_argument);
}

TEST(Technology, ScalingTrendsAcrossNodes) {
    const Technology t350 = cmos350();
    const Technology t180 = cmos180();
    const Technology t130 = cmos130();
    // Supply, geometry and threshold all shrink with the node.
    EXPECT_GT(t350.vdd, t180.vdd);
    EXPECT_GT(t180.vdd, t130.vdd);
    EXPECT_GT(t350.lmin, t180.lmin);
    EXPECT_GT(t180.lmin, t130.lmin);
    EXPECT_GT(t350.nmos.vth0, t130.nmos.vth0);
}

TEST(Technology, PolaritiesAssigned) {
    const Technology t = cmos350();
    EXPECT_EQ(t.nmos.type, MosType::Nmos);
    EXPECT_EQ(t.pmos.type, MosType::Pmos);
}

TEST(Technology, PmosWeakerThanNmos) {
    const Technology t = cmos350();
    EXPECT_LT(t.pmos.kp, t.nmos.kp);
}

TEST(TechnologyValidate, RejectsBadValues) {
    Technology t = cmos350();
    t.vdd = -1.0;
    EXPECT_THROW(validate(t), std::invalid_argument);

    t = cmos350();
    t.nmos.vth0 = 5.0; // Above vdd.
    EXPECT_THROW(validate(t), std::invalid_argument);

    t = cmos350();
    t.pmos.kp = 0.0;
    EXPECT_THROW(validate(t), std::invalid_argument);

    t = cmos350();
    t.unit_nmos_width = 0.1e-6; // Below wmin.
    EXPECT_THROW(validate(t), std::invalid_argument);

    t = cmos350();
    t.library_ratio = 0.0;
    EXPECT_THROW(validate(t), std::invalid_argument);

    t = cmos350();
    t.nmos.type = MosType::Pmos; // Wrong card polarity.
    EXPECT_THROW(validate(t), std::invalid_argument);
}

TEST(TechnologyValidate, RejectsEveryNonFiniteField) {
    using Field = std::pair<const char*, double Technology::*>;
    using CardField = std::pair<const char*, double MosfetParams::*>;
    const Field fields[] = {
        {"vdd", &Technology::vdd},
        {"lmin", &Technology::lmin},
        {"wmin", &Technology::wmin},
        {"unit_nmos_width", &Technology::unit_nmos_width},
        {"library_ratio", &Technology::library_ratio},
        {"wire_cap_per_stage", &Technology::wire_cap_per_stage},
    };
    const CardField card_fields[] = {
        {"vth0", &MosfetParams::vth0},
        {"alpha", &MosfetParams::alpha},
        {"kp", &MosfetParams::kp},
        {"mobility_exp", &MosfetParams::mobility_exp},
        {"vth_tc", &MosfetParams::vth_tc},
        {"lambda", &MosfetParams::lambda},
        {"vdsat_coeff", &MosfetParams::vdsat_coeff},
        {"t0", &MosfetParams::t0},
        {"smoothing", &MosfetParams::smoothing},
        {"cgate_per_w", &MosfetParams::cgate_per_w},
        {"cdrain_per_w", &MosfetParams::cdrain_per_w},
    };
    const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
    for (double v : bad) {
        for (const auto& [name, field] : fields) {
            Technology t = cmos350();
            t.*field = v;
            EXPECT_THROW(validate(t), std::invalid_argument) << name << " = " << v;
        }
        for (const auto& [name, field] : card_fields) {
            for (MosfetParams Technology::*card : {&Technology::nmos, &Technology::pmos}) {
                Technology t = cmos350();
                (t.*card).*field = v;
                EXPECT_THROW(validate(t), std::invalid_argument)
                    << (card == &Technology::nmos ? "nmos." : "pmos.") << name
                    << " = " << v;
            }
        }
    }
    // Finite values of the fields validation never bounded still pass.
    Technology t = cmos350();
    t.nmos.mobility_exp = -0.5;
    t.pmos.vth_tc = -1e-3;
    t.nmos.lambda = 0.0;
    t.pmos.vdsat_coeff = 2.0;
    EXPECT_NO_THROW(validate(t));
}

} // namespace
} // namespace stsense::phys
