#include "cells/cell.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace stsense::cells {
namespace {

TEST(CellKindNames, RoundTrip) {
    for (CellKind k : kAllCellKinds) {
        EXPECT_EQ(cell_kind_from_string(to_string(k)), k);
    }
    EXPECT_THROW(cell_kind_from_string("XOR2"), std::invalid_argument);
}

TEST(CellTopology, InputCounts) {
    EXPECT_EQ(input_count(CellKind::Inv), 1);
    EXPECT_EQ(input_count(CellKind::Nand2), 2);
    EXPECT_EQ(input_count(CellKind::Nand3), 3);
    EXPECT_EQ(input_count(CellKind::Nor2), 2);
    EXPECT_EQ(input_count(CellKind::Nor3), 3);
}

TEST(CellTopology, NandStacksNmos) {
    EXPECT_EQ(nmos_stack_depth(CellKind::Nand2), 2);
    EXPECT_EQ(nmos_stack_depth(CellKind::Nand3), 3);
    EXPECT_EQ(pmos_stack_depth(CellKind::Nand2), 1);
    EXPECT_EQ(pmos_stack_depth(CellKind::Nand3), 1);
}

TEST(CellTopology, NorStacksPmos) {
    EXPECT_EQ(pmos_stack_depth(CellKind::Nor2), 2);
    EXPECT_EQ(pmos_stack_depth(CellKind::Nor3), 3);
    EXPECT_EQ(nmos_stack_depth(CellKind::Nor2), 1);
    EXPECT_EQ(nmos_stack_depth(CellKind::Nor3), 1);
}

TEST(CellTopology, InverterIsSymmetric) {
    EXPECT_EQ(nmos_stack_depth(CellKind::Inv), 1);
    EXPECT_EQ(pmos_stack_depth(CellKind::Inv), 1);
}

TEST(CellSpecValidate, AcceptsDefaults) {
    CellSpec spec;
    EXPECT_NO_THROW(validate(spec));
}

TEST(CellSpecValidate, RejectsBadValues) {
    CellSpec spec;
    spec.drive = 0.0;
    EXPECT_THROW(validate(spec), std::invalid_argument);
    spec.drive = 1.0;
    spec.ratio = -1.0;
    EXPECT_THROW(validate(spec), std::invalid_argument);
}

TEST(CellSpecValidate, RejectsNonFiniteValues) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double v : {nan, inf, -inf}) {
        CellSpec spec;
        spec.drive = v;
        EXPECT_THROW(validate(spec), std::invalid_argument) << "drive " << v;
        spec = CellSpec{};
        spec.ratio = v;
        EXPECT_THROW(validate(spec), std::invalid_argument) << "ratio " << v;
        spec = CellSpec{};
        spec.vth_shift_v = v;
        EXPECT_THROW(validate(spec), std::invalid_argument) << "vth_shift_v " << v;
    }
}

TEST(CellSpecDescribe, MentionsKindAndRatio) {
    CellSpec spec;
    spec.kind = CellKind::Nand2;
    spec.ratio = 2.5;
    const std::string d = describe(spec);
    EXPECT_NE(d.find("NAND2"), std::string::npos);
    EXPECT_NE(d.find("2.50"), std::string::npos);
}

TEST(CellSpecDescribe, MarksBridgeTie) {
    CellSpec spec;
    spec.kind = CellKind::Nor2;
    spec.tie = SideInputTie::Bridge;
    EXPECT_NE(describe(spec).find("bridge"), std::string::npos);
}

TEST(CellSpec, EqualityComparable) {
    CellSpec a;
    CellSpec b;
    EXPECT_EQ(a, b);
    b.kind = CellKind::Nand3;
    EXPECT_NE(a, b);
}

} // namespace
} // namespace stsense::cells
