#include "thermal/grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace stsense::thermal {

namespace {

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

bool all_finite(std::span<const double> values) {
    return std::all_of(values.begin(), values.end(),
                       [](double v) { return std::isfinite(v); });
}

/// Rows relaxed together as one wavefront band. Picked by measurement
/// (DESIGN.md, "Thermal solver"): enough independent per-row dependency
/// chains to hide the divide's latency, few enough that a band's cells
/// stay in L1.
constexpr int kWavefrontRows = 8;

} // namespace

ThermalGrid::ThermalGrid(int nx, int ny, double width, double height,
                         GridParams params)
    : nx_(nx), ny_(ny), params_(params) {
    if (nx < 1 || ny < 1) throw std::invalid_argument("ThermalGrid: nx, ny must be >= 1");
    if (!finite_positive(width) || !finite_positive(height)) {
        throw std::invalid_argument("ThermalGrid: extents must be finite and > 0");
    }
    if (!finite_positive(params.k_si) || !finite_positive(params.die_thickness) ||
        !finite_positive(params.h_eff) || !finite_positive(params.c_v)) {
        throw std::invalid_argument(
            "ThermalGrid: material parameters must be finite and > 0");
    }
    if (!std::isfinite(params.ambient_c)) {
        throw std::invalid_argument("ThermalGrid: ambient_c must be finite");
    }
    dx_ = width / nx;
    dy_ = height / ny;
    g_lat_x_ = params.k_si * params.die_thickness * dy_ / dx_;
    g_lat_y_ = params.k_si * params.die_thickness * dx_ / dy_;
    g_v_ = params.h_eff * dx_ * dy_;
    cap_ = params.c_v * params.die_thickness * dx_ * dy_;
}

std::vector<double> ThermalGrid::solve(std::span<const double> source,
                                       std::span<const double> extra_diag,
                                       std::span<const double> initial,
                                       const SolveOptions& opt) const {
    const std::size_t n = static_cast<std::size_t>(nx_) * ny_;
    if (source.size() != n || extra_diag.size() != n || initial.size() != n) {
        throw std::invalid_argument("ThermalGrid::solve: size mismatch");
    }
    if (!(opt.sor_omega > 0.0 && opt.sor_omega < 2.0)) {
        throw std::invalid_argument("ThermalGrid::solve: sor_omega out of (0, 2)");
    }
    const auto nx = static_cast<std::size_t>(nx_);
    const double omega = opt.sor_omega;

    // Per-cell constants, hoisted out of the sweep with the sweep's own
    // operations in its own order, so they carry the same bits: the
    // diagonal (g_v + extra + each present neighbour's conductance) and
    // the right-hand side source + g_v * ambient.
    std::vector<double> diag(n);
    std::vector<double> rhs(n);
    for (int iy = 0; iy < ny_; ++iy) {
        for (int ix = 0; ix < nx_; ++ix) {
            const std::size_t i = static_cast<std::size_t>(iy) * nx + ix;
            double d = g_v_ + extra_diag[i];
            if (ix > 0) d += g_lat_x_;
            if (ix < nx_ - 1) d += g_lat_x_;
            if (iy > 0) d += g_lat_y_;
            if (iy < ny_ - 1) d += g_lat_y_;
            diag[i] = d;
            rhs[i] = source[i] + g_v_ * params_.ambient_c;
        }
    }

    // Gauss-Seidel over-relaxation of one cell: the left and lower
    // neighbours already hold this sweep's values, the right and upper
    // ones the last sweep's.
    std::vector<double> t(initial.begin(), initial.end());
    auto relax = [&](int ix, int iy, double& max_update) {
        const std::size_t i = static_cast<std::size_t>(iy) * nx + ix;
        double neigh = 0.0;
        if (ix > 0) neigh += g_lat_x_ * t[i - 1];
        if (ix < nx_ - 1) neigh += g_lat_x_ * t[i + 1];
        if (iy > 0) neigh += g_lat_y_ * t[i - nx];
        if (iy < ny_ - 1) neigh += g_lat_y_ * t[i + nx];
        const double gs = (rhs[i] + neigh) / diag[i];
        const double updated = t[i] + omega * (gs - t[i]);
        max_update = std::max(max_update, std::abs(updated - t[i]));
        t[i] = updated;
    };

    // One sweep visits the rows in bands of kWavefrontRows. Inside a band
    // row y0 + j runs j cells behind row y0, so on step k the band
    // relaxes cells (k - j, y0 + j): each reads a left neighbour relaxed
    // on step k - 1 and a lower one relaxed on step k - 1 (or in the band
    // below), while its right and upper neighbours are still untouched.
    // Every cell therefore sees exactly the values of the row-by-row
    // lexicographic sweep, and the band's rows are independent
    // dependency chains within a step. The max is order-free.
    for (int iter = 0; iter < opt.max_iters; ++iter) {
        double max_update = 0.0;
        for (int y0 = 0; y0 < ny_; y0 += kWavefrontRows) {
            const int rows = std::min(kWavefrontRows, ny_ - y0);
            for (int k = 0; k < nx_ + rows - 1; ++k) {
                const int j_first = std::max(0, k - nx_ + 1);
                const int j_last = std::min(rows - 1, k);
                for (int j = j_first; j <= j_last; ++j) {
                    relax(k - j, y0 + j, max_update);
                }
            }
        }
        if (max_update < opt.tolerance_c) return t;
    }
    throw std::runtime_error("ThermalGrid: SOR did not converge");
}

std::vector<double> ThermalGrid::steady_state(std::span<const double> power_w,
                                              const SolveOptions& opt) const {
    const std::size_t n = static_cast<std::size_t>(nx_) * ny_;
    if (power_w.size() != n) {
        throw std::invalid_argument("steady_state: power map size mismatch");
    }
    if (!all_finite(power_w)) {
        throw std::invalid_argument("steady_state: non-finite power");
    }
    const std::vector<double> zero_diag(n, 0.0);
    const std::vector<double> initial(n, params_.ambient_c);
    return solve(power_w, zero_diag, initial, opt);
}

void ThermalGrid::transient_step(std::vector<double>& temps_c,
                                 std::span<const double> power_w, double dt,
                                 const SolveOptions& opt) const {
    const std::size_t n = static_cast<std::size_t>(nx_) * ny_;
    if (temps_c.size() != n || power_w.size() != n) {
        throw std::invalid_argument("transient_step: size mismatch");
    }
    if (!finite_positive(dt)) {
        throw std::invalid_argument("transient_step: dt must be finite and > 0");
    }
    if (!all_finite(temps_c) || !all_finite(power_w)) {
        throw std::invalid_argument("transient_step: non-finite temperature or power");
    }

    const double g_c = cap_ / dt;
    std::vector<double> source(n);
    std::vector<double> diag(n, g_c);
    for (std::size_t i = 0; i < n; ++i) source[i] = power_w[i] + g_c * temps_c[i];
    temps_c = solve(source, diag, temps_c, opt);
}

std::size_t ThermalGrid::cell_index(double x, double y) const {
    if (!std::isfinite(x) || !std::isfinite(y)) {
        throw std::invalid_argument("cell_index: non-finite coordinate");
    }
    const int ix = std::clamp(static_cast<int>(x / dx_), 0, nx_ - 1);
    const int iy = std::clamp(static_cast<int>(y / dy_), 0, ny_ - 1);
    return static_cast<std::size_t>(iy) * nx_ + ix;
}

double ThermalGrid::sample(std::span<const double> temps_c, double x,
                           double y) const {
    const std::size_t n = static_cast<std::size_t>(nx_) * ny_;
    if (temps_c.size() != n) throw std::invalid_argument("sample: size mismatch");
    if (!std::isfinite(x) || !std::isfinite(y)) {
        throw std::invalid_argument("sample: non-finite coordinate");
    }

    // Cell-center coordinates: center of cell (ix, iy) is ((ix+0.5)dx, ...).
    const double fx = std::clamp(x / dx_ - 0.5, 0.0, static_cast<double>(nx_ - 1));
    const double fy = std::clamp(y / dy_ - 0.5, 0.0, static_cast<double>(ny_ - 1));
    const int ix0 = static_cast<int>(fx);
    const int iy0 = static_cast<int>(fy);
    const int ix1 = std::min(ix0 + 1, nx_ - 1);
    const int iy1 = std::min(iy0 + 1, ny_ - 1);
    const double ax = fx - ix0;
    const double ay = fy - iy0;

    auto at = [&](int ix, int iy) {
        return temps_c[static_cast<std::size_t>(iy) * nx_ + ix];
    };
    const double bottom = at(ix0, iy0) * (1.0 - ax) + at(ix1, iy0) * ax;
    const double top = at(ix0, iy1) * (1.0 - ax) + at(ix1, iy1) * ax;
    return bottom * (1.0 - ay) + top * ay;
}

} // namespace stsense::thermal
