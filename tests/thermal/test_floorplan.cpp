#include "thermal/floorplan.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>

namespace stsense::thermal {
namespace {

TEST(Floorplan, RejectsBadDie) {
    EXPECT_THROW(Floorplan(0.0, 1e-3), std::invalid_argument);
    EXPECT_THROW(Floorplan(1e-3, -1.0), std::invalid_argument);
}

TEST(Floorplan, RejectsBadBlocks) {
    Floorplan fp(10e-3, 10e-3);
    EXPECT_THROW(fp.add_block({"zero", 0, 0, 0.0, 1e-3, 1.0}), std::invalid_argument);
    EXPECT_THROW(fp.add_block({"neg", 0, 0, 1e-3, 1e-3, -1.0}), std::invalid_argument);
    EXPECT_THROW(fp.add_block({"off", 9.5e-3, 0, 1e-3, 1e-3, 1.0}),
                 std::invalid_argument);
}

// NaN fails every `x <= 0` or `x > extent` test, so each one used to
// wave it through; non-finite inputs are rejected explicitly instead.
TEST(FloorplanNonFinite, DieExtentsRejected) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(Floorplan(nan, 1e-3), std::invalid_argument);
    EXPECT_THROW(Floorplan(1e-3, nan), std::invalid_argument);
    EXPECT_THROW(Floorplan(inf, 1e-3), std::invalid_argument);
}

TEST(FloorplanNonFinite, BlockFieldsRejected) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    Floorplan fp(10e-3, 10e-3);
    EXPECT_THROW(fp.add_block({"x", nan, 0, 1e-3, 1e-3, 1.0}), std::invalid_argument);
    EXPECT_THROW(fp.add_block({"y", 0, nan, 1e-3, 1e-3, 1.0}), std::invalid_argument);
    EXPECT_THROW(fp.add_block({"w", 0, 0, nan, 1e-3, 1.0}), std::invalid_argument);
    EXPECT_THROW(fp.add_block({"h", 0, 0, 1e-3, nan, 1.0}), std::invalid_argument);
    EXPECT_THROW(fp.add_block({"p", 0, 0, 1e-3, 1e-3, nan}), std::invalid_argument);
    EXPECT_THROW(fp.add_block({"inf", 0, 0, 1e-3, 1e-3,
                               std::numeric_limits<double>::infinity()}),
                 std::invalid_argument);
    EXPECT_TRUE(fp.blocks().empty());
}

TEST(Floorplan, TotalPowerSumsBlocks) {
    Floorplan fp(10e-3, 10e-3);
    fp.add_block({"a", 0, 0, 1e-3, 1e-3, 2.0});
    fp.add_block({"b", 5e-3, 5e-3, 1e-3, 1e-3, 3.0});
    EXPECT_DOUBLE_EQ(fp.total_power(), 5.0);
}

TEST(PowerMap, ConservesTotalPower) {
    Floorplan fp(10e-3, 10e-3);
    fp.add_block({"a", 1.1e-3, 2.3e-3, 3.7e-3, 2.9e-3, 7.5});
    fp.add_block({"b", 6.0e-3, 6.0e-3, 2.0e-3, 2.0e-3, 2.5});
    for (int n : {8, 16, 48}) {
        const auto map = fp.power_map(n, n);
        const double total = std::accumulate(map.begin(), map.end(), 0.0);
        EXPECT_NEAR(total, 10.0, 1e-9) << "grid " << n;
    }
}

TEST(PowerMap, PowerLandsInsideBlockFootprint) {
    Floorplan fp(10e-3, 10e-3);
    fp.add_block({"hot", 0.0, 0.0, 2.5e-3, 2.5e-3, 4.0});
    const int n = 8; // 1.25 mm cells; block covers cells [0,1] x [0,1].
    const auto map = fp.power_map(n, n);
    double inside = 0.0;
    for (int iy = 0; iy < 2; ++iy) {
        for (int ix = 0; ix < 2; ++ix) {
            inside += map[static_cast<std::size_t>(iy) * n + ix];
        }
    }
    EXPECT_NEAR(inside, 4.0, 1e-9);
}

TEST(PowerMap, PartialOverlapSplitsProportionally) {
    Floorplan fp(2e-3, 1e-3);
    // Block straddles the two cells of a 2x1 grid: 25% left, 75% right.
    fp.add_block({"straddle", 0.75e-3, 0.0, 1.0e-3, 1.0e-3, 8.0});
    const auto map = fp.power_map(2, 1);
    EXPECT_NEAR(map[0], 2.0, 1e-9);
    EXPECT_NEAR(map[1], 6.0, 1e-9);
}

TEST(PowerMap, BadGridThrows) {
    Floorplan fp(1e-3, 1e-3);
    EXPECT_THROW(fp.power_map(0, 4), std::invalid_argument);
}

TEST(DemoFloorplan, HasBlocksAndRealisticPower) {
    const Floorplan fp = demo_floorplan();
    EXPECT_GE(fp.blocks().size(), 3u);
    EXPECT_GT(fp.total_power(), 10.0);
    EXPECT_LT(fp.total_power(), 100.0);
}

} // namespace
} // namespace stsense::thermal
