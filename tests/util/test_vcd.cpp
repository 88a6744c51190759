#include "util/vcd.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace stsense::util {
namespace {

class VcdTest : public ::testing::Test {
protected:
    void TearDown() override { std::remove(path_.c_str()); }
    std::string slurp() {
        std::ifstream in(path_);
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    }
    // One file per test: ctest runs the tests of this fixture in
    // parallel processes, which must not write the same file.
    std::string path_ =
        testing::TempDir() + "stsense_vcd_test_" +
        testing::UnitTest::GetInstance()->current_test_info()->name() + ".vcd";
};

TEST_F(VcdTest, HeaderAndChangesWellFormed) {
    {
        VcdWriter vcd(path_, "1ps");
        const int clk = vcd.add_wire("clk");
        const int v = vcd.add_real("ring_out");
        vcd.time(0);
        vcd.change_wire(clk, false);
        vcd.change_real(v, 0.0);
        vcd.time(100);
        vcd.change_wire(clk, true);
        vcd.change_real(v, 3.3);
        vcd.finish();
    }
    const std::string s = slurp();
    EXPECT_NE(s.find("$timescale 1ps $end"), std::string::npos);
    EXPECT_NE(s.find("$var wire 1"), std::string::npos);
    EXPECT_NE(s.find("$var real 64"), std::string::npos);
    EXPECT_NE(s.find("$enddefinitions $end"), std::string::npos);
    EXPECT_NE(s.find("#0"), std::string::npos);
    EXPECT_NE(s.find("#100"), std::string::npos);
    EXPECT_NE(s.find("r3.3"), std::string::npos);
}

TEST_F(VcdTest, DecreasingTimeRejected) {
    VcdWriter vcd(path_, "1ps");
    vcd.add_wire("a");
    vcd.time(100);
    EXPECT_THROW(vcd.time(50), std::invalid_argument);
}

TEST_F(VcdTest, DeclarationAfterTimeRejected) {
    VcdWriter vcd(path_, "1ps");
    vcd.add_wire("a");
    vcd.time(0);
    EXPECT_THROW(vcd.add_wire("b"), std::logic_error);
}

TEST_F(VcdTest, BadIdRejected) {
    VcdWriter vcd(path_, "1ps");
    EXPECT_THROW(vcd.change_wire(0, true), std::invalid_argument);
}

TEST_F(VcdTest, ManyVariablesGetUniqueCodes) {
    VcdWriter vcd(path_, "1ns");
    for (int i = 0; i < 200; ++i) {
        vcd.add_wire("w" + std::to_string(i));
    }
    EXPECT_EQ(vcd.variable_count(), 200u);
    // Codes beyond 94 need two characters; just assert the header wrote.
    vcd.finish();
    EXPECT_FALSE(slurp().empty());
}

TEST(Vcd, UnwritablePathThrows) {
    EXPECT_THROW(VcdWriter("/nonexistent-dir/x.vcd", "1ps"), std::runtime_error);
}

} // namespace
} // namespace stsense::util
