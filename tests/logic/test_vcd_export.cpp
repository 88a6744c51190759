#include "logic/vcd_export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

namespace stsense::logic {
namespace {

class LogicVcdTest : public ::testing::Test {
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
        testing::TempDir() + "stsense_logic_vcd_" +
        testing::UnitTest::GetInstance()->current_test_info()->name() + ".vcd";
};

TEST_F(LogicVcdTest, DumpsRecordedChanges) {
    Circuit c;
    const NetId a = c.add_net("a");
    const NetId y = c.add_net("y");
    c.add_gate(GateKind::Inv, {a}, y, 10.0);

    Simulator sim(c);
    sim.record(a);
    sim.record(y);
    sim.set_input(a, Level::Zero, 0.0);
    sim.set_input(a, Level::One, 100.0);
    sim.run_until(200.0);

    const std::vector<NetId> nets{a, y};
    export_vcd(path_, c, sim, nets);
    const std::string s = slurp();
    EXPECT_NE(s.find("$var wire 1"), std::string::npos);
    EXPECT_NE(s.find(" a $end"), std::string::npos);
    EXPECT_NE(s.find(" y $end"), std::string::npos);
    // Initial x snapshot, then the recorded edges.
    EXPECT_NE(s.find("#0"), std::string::npos);
    EXPECT_NE(s.find("#100"), std::string::npos);
    EXPECT_NE(s.find("#110"), std::string::npos); // Inverter output edge.
    EXPECT_NE(s.find('x'), std::string::npos);
}

TEST_F(LogicVcdTest, RejectsBadArgs) {
    Circuit c;
    const NetId a = c.add_net("a");
    Simulator sim(c);
    EXPECT_THROW(export_vcd(path_, c, sim, {}), std::invalid_argument);
    const std::vector<NetId> nets{a};
    EXPECT_THROW(export_vcd(path_, c, sim, nets, 0.0), std::invalid_argument);
}

} // namespace
} // namespace stsense::logic
