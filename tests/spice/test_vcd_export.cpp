#include "spice/vcd_export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

namespace stsense::spice {
namespace {

Trace ramp(const std::string& name) {
    Trace t;
    t.name = name;
    for (int i = 0; i <= 10; ++i) {
        t.time.push_back(i * 1e-12);
        t.value.push_back(0.33 * i);
    }
    return t;
}

class VcdExportTest : public ::testing::Test {
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
        testing::TempDir() + "stsense_vcd_export_" +
        testing::UnitTest::GetInstance()->current_test_info()->name() + ".vcd";
};

TEST_F(VcdExportTest, WritesRealVariablesPerTrace) {
    std::vector<Trace> traces{ramp("n0"), ramp("n1")};
    export_vcd(path_, traces);
    const std::string s = slurp();
    EXPECT_NE(s.find("$var real 64"), std::string::npos);
    EXPECT_NE(s.find(" n0 $end"), std::string::npos);
    EXPECT_NE(s.find(" n1 $end"), std::string::npos);
    // 1 ps = 1000 fs ticks.
    EXPECT_NE(s.find("#1000"), std::string::npos);
}

TEST_F(VcdExportTest, RejectsEmptyInputs) {
    EXPECT_THROW(export_vcd(path_, {}), std::invalid_argument);
    std::vector<Trace> traces{Trace{}};
    EXPECT_THROW(export_vcd(path_, traces), std::invalid_argument);
    std::vector<Trace> ok{ramp("a")};
    EXPECT_THROW(export_vcd(path_, ok, 0.0), std::invalid_argument);
}

} // namespace
} // namespace stsense::spice
