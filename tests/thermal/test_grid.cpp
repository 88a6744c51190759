#include "thermal/grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

namespace stsense::thermal {
namespace {

TEST(ThermalGrid, RejectsBadConstruction) {
    EXPECT_THROW(ThermalGrid(0, 4, 1e-3, 1e-3), std::invalid_argument);
    EXPECT_THROW(ThermalGrid(4, 4, -1.0, 1e-3), std::invalid_argument);
    GridParams p;
    p.k_si = 0.0;
    EXPECT_THROW(ThermalGrid(4, 4, 1e-3, 1e-3, p), std::invalid_argument);
}

// NaN fails every `x <= 0` test, so the grid used to accept it; a NaN
// power cell then produced an all-NaN field reported as converged,
// because std::max(max_update, NaN) keeps max_update.
TEST(ThermalGridNonFinite, ConstructorRejectsExtentsAndParams) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(ThermalGrid(4, 4, nan, 1e-3), std::invalid_argument);
    EXPECT_THROW(ThermalGrid(4, 4, 1e-3, nan), std::invalid_argument);
    EXPECT_THROW(ThermalGrid(4, 4, std::numeric_limits<double>::infinity(), 1e-3),
                 std::invalid_argument);
    for (double GridParams::*field :
         {&GridParams::k_si, &GridParams::die_thickness, &GridParams::h_eff,
          &GridParams::c_v, &GridParams::ambient_c}) {
        GridParams p;
        p.*field = nan;
        EXPECT_THROW(ThermalGrid(4, 4, 1e-3, 1e-3, p), std::invalid_argument);
    }
}

TEST(ThermalGridNonFinite, SteadyStateRejectsNanPower) {
    const ThermalGrid grid(8, 8, 10e-3, 10e-3);
    std::vector<double> power(64, 0.01);
    power[27] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(grid.steady_state(power), std::invalid_argument);
    power[27] = std::numeric_limits<double>::infinity();
    EXPECT_THROW(grid.steady_state(power), std::invalid_argument);
}

TEST(ThermalGridNonFinite, TransientStepRejectsNanTemperaturePowerAndDt) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const ThermalGrid grid(4, 4, 1e-3, 1e-3);
    const std::vector<double> power(16, 0.01);
    std::vector<double> temps(16, 45.0);
    EXPECT_THROW(grid.transient_step(temps, power, nan), std::invalid_argument);
    EXPECT_THROW(grid.transient_step(temps, power,
                                     std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
    auto bad_power = power;
    bad_power[3] = nan;
    EXPECT_THROW(grid.transient_step(temps, bad_power, 1e-3), std::invalid_argument);
    temps[5] = nan;
    EXPECT_THROW(grid.transient_step(temps, power, 1e-3), std::invalid_argument);
}

TEST(ThermalGridNonFinite, SampleAndCellIndexRejectNanCoordinates) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const ThermalGrid grid(4, 4, 1e-3, 1e-3);
    const std::vector<double> temps(16, 45.0);
    EXPECT_THROW(grid.sample(temps, nan, 0.5e-3), std::invalid_argument);
    EXPECT_THROW(grid.sample(temps, 0.5e-3, nan), std::invalid_argument);
    EXPECT_THROW(grid.cell_index(nan, 0.5e-3), std::invalid_argument);
    EXPECT_THROW(grid.cell_index(0.5e-3, std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
}

TEST(ThermalGridNonFinite, NanOmegaRejected) {
    const ThermalGrid grid(4, 4, 1e-3, 1e-3);
    SolveOptions opt;
    opt.sor_omega = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(grid.steady_state(std::vector<double>(16, 0.0), opt),
                 std::invalid_argument);
}

TEST(SteadyState, ZeroPowerIsAmbientEverywhere) {
    GridParams params;
    params.ambient_c = 45.0;
    const ThermalGrid grid(8, 8, 10e-3, 10e-3, params);
    const std::vector<double> power(64, 0.0);
    const auto t = grid.steady_state(power);
    for (double v : t) EXPECT_NEAR(v, 45.0, 1e-6);
}

TEST(SteadyState, UniformPowerGivesUniformRisePlusAmbient) {
    // With uniform power and adiabatic edges, every cell sees the same
    // vertical path: dT = P_cell / G_v.
    GridParams params;
    params.ambient_c = 40.0;
    const int n = 8;
    const ThermalGrid grid(n, n, 10e-3, 10e-3, params);
    const double p_cell = 0.1;
    const std::vector<double> power(static_cast<std::size_t>(n) * n, p_cell);
    const auto t = grid.steady_state(power);
    const double dx = 10e-3 / n;
    const double g_v = params.h_eff * dx * dx;
    const double expected = params.ambient_c + p_cell / g_v;
    for (double v : t) EXPECT_NEAR(v, expected, 1e-5);
}

TEST(SteadyState, GlobalEnergyBalance) {
    // Total power in == total vertical heat out: sum(G_v (T - Tamb)) = P.
    GridParams params;
    const int n = 16;
    const ThermalGrid grid(n, n, 10e-3, 10e-3, params);
    std::vector<double> power(static_cast<std::size_t>(n) * n, 0.0);
    power[3 * n + 4] = 5.0;
    power[10 * n + 12] = 3.0;
    SolveOptions opt;
    opt.tolerance_c = 1e-10;
    const auto t = grid.steady_state(power, opt);
    const double dx = 10e-3 / n;
    const double g_v = params.h_eff * dx * dx;
    double out = 0.0;
    for (double v : t) out += g_v * (v - params.ambient_c);
    EXPECT_NEAR(out, 8.0, 8.0 * 1e-5);
}

TEST(SteadyState, HotspotPeaksAtSource) {
    GridParams params;
    const int n = 16;
    const ThermalGrid grid(n, n, 10e-3, 10e-3, params);
    std::vector<double> power(static_cast<std::size_t>(n) * n, 0.0);
    const std::size_t src = 5 * n + 7;
    power[src] = 10.0;
    const auto t = grid.steady_state(power);
    const auto peak = std::max_element(t.begin(), t.end());
    EXPECT_EQ(static_cast<std::size_t>(peak - t.begin()), src);
    // Temperature decays away from the source.
    EXPECT_GT(t[src], t[src + 1]);
    EXPECT_GT(t[src + 1], t[src + 3]);
}

TEST(SteadyState, SizeMismatchThrows) {
    const ThermalGrid grid(4, 4, 1e-3, 1e-3);
    EXPECT_THROW(grid.steady_state(std::vector<double>(15, 0.0)),
                 std::invalid_argument);
}

TEST(TransientStep, ConvergesToSteadyState) {
    GridParams params;
    const int n = 8;
    const ThermalGrid grid(n, n, 10e-3, 10e-3, params);
    std::vector<double> power(static_cast<std::size_t>(n) * n, 0.0);
    power[3 * n + 3] = 4.0;

    const auto target = grid.steady_state(power);
    std::vector<double> t(static_cast<std::size_t>(n) * n, params.ambient_c);
    for (int step = 0; step < 400; ++step) {
        grid.transient_step(t, power, 1e-3);
    }
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_NEAR(t[i], target[i], 0.05) << "cell " << i;
    }
}

TEST(TransientStep, HeatsMonotonicallyFromAmbient) {
    GridParams params;
    const int n = 6;
    const ThermalGrid grid(n, n, 5e-3, 5e-3, params);
    std::vector<double> power(static_cast<std::size_t>(n) * n, 0.05);
    std::vector<double> t(power.size(), params.ambient_c);
    double prev_mean = params.ambient_c;
    for (int step = 0; step < 10; ++step) {
        grid.transient_step(t, power, 1e-4);
        const double mean = std::accumulate(t.begin(), t.end(), 0.0) /
                            static_cast<double>(t.size());
        EXPECT_GT(mean, prev_mean);
        prev_mean = mean;
    }
}

TEST(TransientStep, BadArgsThrow) {
    const ThermalGrid grid(4, 4, 1e-3, 1e-3);
    std::vector<double> t(16, 45.0);
    std::vector<double> p(16, 0.0);
    EXPECT_THROW(grid.transient_step(t, p, 0.0), std::invalid_argument);
    std::vector<double> bad(15, 0.0);
    EXPECT_THROW(grid.transient_step(t, bad, 1e-3), std::invalid_argument);
}

TEST(Sample, BilinearInterpolatesBetweenCells) {
    const ThermalGrid grid(2, 1, 2e-3, 1e-3);
    // Cell centers at x = 0.5 mm and 1.5 mm.
    const std::vector<double> t{10.0, 20.0};
    EXPECT_NEAR(grid.sample(t, 0.5e-3, 0.5e-3), 10.0, 1e-9);
    EXPECT_NEAR(grid.sample(t, 1.5e-3, 0.5e-3), 20.0, 1e-9);
    EXPECT_NEAR(grid.sample(t, 1.0e-3, 0.5e-3), 15.0, 1e-9);
}

TEST(Sample, ClampsOutsideDie) {
    const ThermalGrid grid(2, 1, 2e-3, 1e-3);
    const std::vector<double> t{10.0, 20.0};
    EXPECT_NEAR(grid.sample(t, -1e-3, 0.0), 10.0, 1e-9);
    EXPECT_NEAR(grid.sample(t, 5e-3, 2e-3), 20.0, 1e-9);
}

TEST(CellIndex, MapsCoordinates) {
    const ThermalGrid grid(4, 4, 4e-3, 4e-3);
    EXPECT_EQ(grid.cell_index(0.5e-3, 0.5e-3), 0u);
    EXPECT_EQ(grid.cell_index(3.5e-3, 0.5e-3), 3u);
    EXPECT_EQ(grid.cell_index(0.5e-3, 3.5e-3), 12u);
}

TEST(SolveOptions, BadOmegaThrows) {
    const ThermalGrid grid(4, 4, 1e-3, 1e-3);
    std::vector<double> p(16, 0.0);
    SolveOptions opt;
    opt.sor_omega = 2.5;
    EXPECT_THROW(grid.steady_state(p, opt), std::invalid_argument);

    // The tolerance and the sweep budget are checked before any sweep:
    // an infinite tolerance would "converge" after one sweep, and the
    // rest would run the whole budget and report non-convergence.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double tol : {inf, -inf, nan, 0.0, -0.0, -1e-7}) {
        SolveOptions bad;
        bad.tolerance_c = tol;
        EXPECT_THROW(grid.steady_state(p, bad), std::invalid_argument) << tol;
        std::vector<double> temps(16, 45.0);
        EXPECT_THROW(grid.transient_step(temps, p, 1e-3, bad),
                     std::invalid_argument)
            << tol;
    }
    for (const int iters : {0, -1, std::numeric_limits<int>::min()}) {
        SolveOptions bad;
        bad.max_iters = iters;
        EXPECT_THROW(grid.steady_state(p, bad), std::invalid_argument) << iters;
    }
    SolveOptions one_sweep;
    one_sweep.max_iters = 1;
    one_sweep.tolerance_c = std::numeric_limits<double>::max();
    EXPECT_NO_THROW(grid.steady_state(p, one_sweep));
}

} // namespace
} // namespace stsense::thermal
