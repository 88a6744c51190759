#include "thermal/grid.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace stsense::thermal {

namespace {

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

bool all_finite(std::span<const double> values) {
    return std::all_of(values.begin(), values.end(),
                       [](double v) { return std::isfinite(v); });
}

/// Two cells relaxed as one value: GCC/Clang vector extensions, which
/// lower to SSE2 on x86-64 and to NEON on AArch64 with no ISA flag.
typedef double Lanes __attribute__((vector_size(16)));
typedef std::int64_t LaneBits __attribute__((vector_size(16)));

/// Unaligned load and store of one cell (V = double) or two (Lanes).
template <class V>
V load(const double* p) {
    V v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

template <class V>
void store(double* p, V v) {
    std::memcpy(p, &v, sizeof v);
}

double magnitude(double v) { return std::abs(v); }
Lanes magnitude(Lanes v) {
    // std::abs per lane: clear the sign bit.
    return std::bit_cast<Lanes>(std::bit_cast<LaneBits>(v) & INT64_MAX);
}

/// The SOR update's constants, and the slot offsets of a cell's x and y
/// neighbours in the diagonal-major field.
struct Stencil {
    double g_x;
    double g_y;
    double omega;
    std::ptrdiff_t off_x;
    std::ptrdiff_t off_y;
};

/// Gauss-Seidel over-relaxation of the cells at c (one per lane of V),
/// with the lexicographic sweep's expressions in its association: the
/// neighbours summed left, right, lower, upper from +0.0, a divide, then
/// the relaxation. max_update keeps its value against a NaN change, as
/// std::max(max_update, change) does.
template <class V>
void relax(double* c, const double* rhs, const double* diag, const Stencil& s,
           V& max_update) {
    V neigh{};
    neigh += s.g_x * load<V>(c - s.off_x);
    neigh += s.g_x * load<V>(c + s.off_x);
    neigh += s.g_y * load<V>(c - s.off_y);
    neigh += s.g_y * load<V>(c + s.off_y);
    const V old = load<V>(c);
    const V gs = (load<V>(rhs) + neigh) / load<V>(diag);
    const V updated = old + s.omega * (gs - old);
    const V change = magnitude(updated - old);
    max_update = max_update < change ? change : max_update;
    store(c, updated);
}

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
    if (!finite_positive(opt.tolerance_c)) {
        throw std::invalid_argument(
            "ThermalGrid::solve: tolerance_c must be finite and > 0");
    }
    if (opt.max_iters < 1) {
        throw std::invalid_argument("ThermalGrid::solve: max_iters must be >= 1");
    }

    // The field is stored diagonal-major. Anti-diagonal d = ix + iy holds
    // the cells whose lane coordinate u runs from lo(d) to hi(d); u is
    // the shorter side's index, so a skewed grid keeps short rows. Cell
    // (d, u) sits in slot (d + 1) * stride + u + 1: a zero pad row lies
    // before the first diagonal and after the last, and a zero pad
    // column on each side of u. A cell's four neighbours then lie on
    // rows d - 1 and d + 1 at fixed offsets, so a run of cells and each
    // of its neighbour sets are contiguous loads. A neighbour past the
    // die edge lands on a slot outside the grid, which no sweep writes.
    const bool u_is_x = nx_ <= ny_;
    const int nu = u_is_x ? nx_ : ny_;
    const int nv = u_is_x ? ny_ : nx_;
    const int diagonals = nx_ + ny_ - 1;
    const std::ptrdiff_t stride = nu + 2;
    const Stencil stencil{g_lat_x_, g_lat_y_, opt.sor_omega,
                          u_is_x ? stride + 1 : stride,
                          u_is_x ? stride : stride + 1};
    auto lo = [&](int d) { return std::max(0, d - nv + 1); };
    auto hi = [&](int d) { return std::min(d, nu - 1); };
    // Visits every cell in sweep order as (ix, iy, row-major index, slot).
    auto for_each_cell = [&](auto&& visit) {
        for (int d = 0; d < diagonals; ++d) {
            for (int u = lo(d); u <= hi(d); ++u) {
                const int ix = u_is_x ? u : d - u;
                const int iy = u_is_x ? d - u : u;
                visit(ix, iy, static_cast<std::size_t>(iy) * nx_ + ix,
                      static_cast<std::size_t>((d + 1) * stride + u + 1));
            }
        }
    };

    // Per-cell constants in sweep order, hoisted out of the sweep with
    // the sweep's own operations in its own order, so they carry the
    // same bits: the diagonal (g_v + extra + each present neighbour's
    // conductance) and the right-hand side source + g_v * ambient.
    std::vector<double> t(static_cast<std::size_t>((diagonals + 2) * stride), 0.0);
    std::vector<double> diag;
    std::vector<double> rhs;
    diag.reserve(n);
    rhs.reserve(n);
    for_each_cell([&](int ix, int iy, std::size_t i, std::size_t slot) {
        double d = g_v_ + extra_diag[i];
        if (ix > 0) d += g_lat_x_;
        if (ix < nx_ - 1) d += g_lat_x_;
        if (iy > 0) d += g_lat_y_;
        if (iy < ny_ - 1) d += g_lat_y_;
        diag.push_back(d);
        rhs.push_back(source[i] + g_v_ * params_.ambient_c);
        t[slot] = initial[i];
    });

    // One sweep relaxes the anti-diagonals in order, two cells at a
    // time. A cell's left and lower neighbours lie on diagonal d - 1,
    // already relaxed this sweep; its right and upper ones on d + 1, not
    // yet. So every cell sees exactly the values of the row-by-row
    // lexicographic sweep, and the cells of one diagonal are
    // independent. An absent neighbour adds g * 0.0 = +0.0 to a sum
    // that started at +0.0 and so is never -0.0: the sum is unchanged.
    // The max is order-free: the lanes never hold NaN.
    for (int iter = 0; iter < opt.max_iters; ++iter) {
        Lanes max_pair{};
        double max_update = 0.0;
        std::size_t k = 0;
        for (int d = 0; d < diagonals; ++d) {
            const int last = hi(d);
            int u = lo(d);
            double* c = t.data() + (d + 1) * stride + 1 + u;
            for (; u < last; u += 2, c += 2, k += 2) {
                relax(c, rhs.data() + k, diag.data() + k, stencil, max_pair);
            }
            if (u == last) {
                relax(c, rhs.data() + k, diag.data() + k, stencil, max_update);
                ++k;
            }
        }
        max_update = std::max({max_update, max_pair[0], max_pair[1]});
        if (max_update < opt.tolerance_c) {
            std::vector<double> out(n);
            for_each_cell([&](int, int, std::size_t i, std::size_t slot) {
                out[i] = t[slot];
            });
            return out;
        }
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
