// ThermalGridReference — ThermalGrid's anti-diagonal SOR against the
// plain lexicographic SOR kept here as the oracle: the row-by-row sweep
// the solver's result is defined by. Results must agree bit for bit,
// with the same sweep count: with max_iters set to the oracle's count
// both converge, and one sweep fewer both throw.
#include "thermal/grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace stsense::thermal {
namespace {

/// Row-by-row Gauss-Seidel over-relaxation of the grid's RC system,
/// with its conductances rebuilt from the documented formulas.
class LexicographicSor {
public:
    LexicographicSor(int nx, int ny, double width, double height, GridParams p)
        : nx_(nx), ny_(ny), p_(p) {
        const double dx = width / nx;
        const double dy = height / ny;
        gx_ = p.k_si * p.die_thickness * dy / dx;
        gy_ = p.k_si * p.die_thickness * dx / dy;
        gv_ = p.h_eff * dx * dy;
        cap_ = p.c_v * p.die_thickness * dx * dy;
    }

    /// Returns the converged field and the sweep count; throws on
    /// non-convergence within opt.max_iters sweeps.
    std::vector<double> solve(const std::vector<double>& source,
                              const std::vector<double>& extra_diag,
                              std::vector<double> t, const SolveOptions& opt,
                              int& sweeps) const {
        for (int iter = 0; iter < opt.max_iters; ++iter) {
            double max_update = 0.0;
            for (int iy = 0; iy < ny_; ++iy) {
                for (int ix = 0; ix < nx_; ++ix) {
                    const std::size_t i = static_cast<std::size_t>(iy) * nx_ + ix;
                    double diag = gv_ + extra_diag[i];
                    double neigh = 0.0;
                    if (ix > 0) { diag += gx_; neigh += gx_ * t[i - 1]; }
                    if (ix < nx_ - 1) { diag += gx_; neigh += gx_ * t[i + 1]; }
                    if (iy > 0) { diag += gy_; neigh += gy_ * t[i - nx_]; }
                    if (iy < ny_ - 1) {
                        diag += gy_;
                        neigh += gy_ * t[i + static_cast<std::size_t>(nx_)];
                    }
                    const double gs = (source[i] + gv_ * p_.ambient_c + neigh) / diag;
                    const double updated = t[i] + opt.sor_omega * (gs - t[i]);
                    max_update = std::max(max_update, std::abs(updated - t[i]));
                    t[i] = updated;
                }
            }
            if (max_update < opt.tolerance_c) {
                sweeps = iter + 1;
                return t;
            }
        }
        throw std::runtime_error("reference SOR did not converge");
    }

    std::vector<double> steady(const std::vector<double>& power,
                               const SolveOptions& opt, int& sweeps) const {
        const std::vector<double> zero(power.size(), 0.0);
        return solve(power, zero,
                     std::vector<double>(power.size(), p_.ambient_c), opt, sweeps);
    }

    std::vector<double> transient(const std::vector<double>& temps,
                                  const std::vector<double>& power, double dt,
                                  const SolveOptions& opt, int& sweeps) const {
        const double g_c = cap_ / dt;
        std::vector<double> source(power.size());
        for (std::size_t i = 0; i < power.size(); ++i) {
            source[i] = power[i] + g_c * temps[i];
        }
        return solve(source, std::vector<double>(power.size(), g_c), temps, opt,
                     sweeps);
    }

private:
    int nx_;
    int ny_;
    GridParams p_;
    double gx_ = 0.0;
    double gy_ = 0.0;
    double gv_ = 0.0;
    double cap_ = 0.0;
};

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// A lopsided power map: a hot corner block, a warm stripe and a cold
/// remainder, so no two rows or columns are alike.
std::vector<double> power_map(int nx, int ny) {
    std::vector<double> p(static_cast<std::size_t>(nx) * ny);
    for (int iy = 0; iy < ny; ++iy) {
        for (int ix = 0; ix < nx; ++ix) {
            double w = 1e-3 * (1 + (ix * 7 + iy * 3) % 5);
            if (ix < (nx + 2) / 3 && iy >= ny / 2) w += 0.6 / (nx * ny) * 40.0;
            if (iy == ny / 3) w += 0.05;
            p[static_cast<std::size_t>(iy) * nx + ix] = w;
        }
    }
    return p;
}

struct Shape {
    int nx;
    int ny;
};

/// Square, wide and tall grids. The kernel stores the field by
/// anti-diagonal along the shorter side and relaxes two cells at a time:
/// these reach single-cell and two-cell diagonals, long thin grids (on
/// either orientation) and diagonals of odd and even length.
const Shape kShapes[] = {{1, 1},  {1, 7},  {7, 1},  {2, 2},   {5, 3},   {24, 24},
                         {48, 48}, {11, 19}, {64, 3}, {3, 64}, {2, 33}, {33, 2},
                         {6, 9},  {9, 6},  {7, 10}, {10, 7}};

std::string name(const Shape& s) {
    return std::to_string(s.nx) + "x" + std::to_string(s.ny);
}

TEST(ThermalGridReference, SteadyStateMatchesBitForBit) {
    for (const auto& s : kShapes) {
        for (const double omega : {1.8, 1.0, 1.37}) {
            const GridParams params;
            const ThermalGrid grid(s.nx, s.ny, 10e-3, 7e-3, params);
            const LexicographicSor ref(s.nx, s.ny, 10e-3, 7e-3, params);
            SolveOptions opt;
            opt.sor_omega = omega;
            const auto power = power_map(s.nx, s.ny);
            int sweeps = 0;
            const auto want = ref.steady(power, opt, sweeps);
            EXPECT_TRUE(bitwise_equal(grid.steady_state(power, opt), want))
                << name(s) << ", omega " << omega;

            // Same sweep count: enough budget converges to the same bits,
            // one sweep less fails on both sides.
            opt.max_iters = sweeps;
            EXPECT_TRUE(bitwise_equal(grid.steady_state(power, opt), want))
                << name(s) << ", omega " << omega << ", max_iters " << sweeps;
            opt.max_iters = sweeps - 1;
            int unused = 0;
            EXPECT_THROW(ref.steady(power, opt, unused), std::runtime_error);
            EXPECT_THROW(grid.steady_state(power, opt), std::runtime_error)
                << name(s) << ", omega " << omega << ", max_iters " << sweeps - 1;
        }
    }
}

TEST(ThermalGridReference, TransientStepsMatchBitForBit) {
    for (const auto& s : kShapes) {
        GridParams params;
        params.ambient_c = 38.5;
        const ThermalGrid grid(s.nx, s.ny, 4e-3, 9e-3, params);
        const LexicographicSor ref(s.nx, s.ny, 4e-3, 9e-3, params);
        const auto power = power_map(s.nx, s.ny);
        std::vector<double> field(power.size(), params.ambient_c);
        for (int step = 0; step < 5; ++step) {
            SolveOptions opt;
            opt.tolerance_c = 1e-9;
            int sweeps = 0;
            const auto want = ref.transient(field, power, 5e-3, opt, sweeps);
            auto got = field;
            grid.transient_step(got, power, 5e-3, opt);
            ASSERT_TRUE(bitwise_equal(got, want)) << name(s) << ", step " << step;

            opt.max_iters = sweeps;
            got = field;
            grid.transient_step(got, power, 5e-3, opt);
            EXPECT_TRUE(bitwise_equal(got, want))
                << name(s) << ", step " << step << ", max_iters " << sweeps;
            opt.max_iters = sweeps - 1;
            int unused = 0;
            EXPECT_THROW(ref.transient(field, power, 5e-3, opt, unused),
                         std::runtime_error);
            got = field;
            EXPECT_THROW(grid.transient_step(got, power, 5e-3, opt),
                         std::runtime_error)
                << name(s) << ", step " << step << ", max_iters " << sweeps - 1;
            field = want;
        }
    }
}

/// A field that crosses 0 degC, reached from a start field of exact
/// +0.0 and -0.0 cells: every neighbour product and sum meets signed
/// zeros, which the kernel's zero-padded die edges must not disturb.
TEST(ThermalGridReference, FieldCrossingZeroMatchesBitForBit) {
    for (const auto& s : kShapes) {
        GridParams params;
        params.ambient_c = -20.0;
        const ThermalGrid grid(s.nx, s.ny, 10e-3, 7e-3, params);
        const LexicographicSor ref(s.nx, s.ny, 10e-3, 7e-3, params);
        // Power in the hot corner block only: it rises well above 0 degC
        // while the unpowered rest of the die stays below.
        std::vector<double> power(static_cast<std::size_t>(s.nx) * s.ny, 0.0);
        for (int iy = s.ny / 2; iy < s.ny; ++iy) {
            for (int ix = 0; ix < (s.nx + 2) / 3; ++ix) {
                power[static_cast<std::size_t>(iy) * s.nx + ix] =
                    24.0 / (s.nx * s.ny);
            }
        }

        SolveOptions opt;
        int sweeps = 0;
        const auto steady = ref.steady(power, opt, sweeps);
        EXPECT_TRUE(bitwise_equal(grid.steady_state(power, opt), steady)) << name(s);
        if (s.nx * s.ny > 1) {
            EXPECT_LT(*std::min_element(steady.begin(), steady.end()), 0.0) << name(s);
            EXPECT_GT(*std::max_element(steady.begin(), steady.end()), 0.0) << name(s);
        }

        std::vector<double> field(power.size());
        for (std::size_t i = 0; i < field.size(); ++i) {
            field[i] = i % 3 == 0 ? -0.0 : 0.0;
        }
        for (int step = 0; step < 3; ++step) {
            const auto want = ref.transient(field, power, 2e-3, opt, sweeps);
            auto got = field;
            grid.transient_step(got, power, 2e-3, opt);
            ASSERT_TRUE(bitwise_equal(got, want)) << name(s) << ", step " << step;
            field = want;
        }
    }
}

} // namespace
} // namespace stsense::thermal
