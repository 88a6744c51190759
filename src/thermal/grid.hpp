// 2-D RC compact thermal model of a die.
//
// Each grid cell couples laterally to its 4-neighbours through silicon
// conduction and vertically to ambient through an effective
// package/heatsink conductance; it stores heat in the silicon volume.
// This is the standard HotSpot-style abstraction, sized down to what the
// thermal-mapping and self-heating experiments need.
//
//   G_lat = k_si * t_die * dy / dx          (between lateral neighbours)
//   G_v   = h_eff * dx * dy                  (cell to ambient)
//   C     = c_v * t_die * dx * dy            (cell heat capacity)
#pragma once

#include <span>
#include <vector>

namespace stsense::thermal {

/// Material / package parameters of the grid.
struct GridParams {
    double k_si = 130.0;      ///< Silicon thermal conductivity [W/(m K)].
    double die_thickness = 0.4e-3; ///< [m].
    double h_eff = 8.0e3;     ///< Effective vertical conductance to ambient [W/(m^2 K)].
    double c_v = 1.63e6;      ///< Volumetric heat capacity of Si [J/(m^3 K)].
    double ambient_c = 45.0;  ///< Ambient / package reference temperature [deg C].
};

/// Iterative-solver controls; a solve throws std::invalid_argument on a
/// value outside the stated range before it sweeps.
struct SolveOptions {
    int max_iters = 20000;     ///< Sweep budget, >= 1.
    double tolerance_c = 1e-7; ///< Max per-cell update to converge; finite, > 0.
    double sor_omega = 1.8;    ///< Over-relaxation factor in (0, 2).
};

/// Steady-state and transient solver over an nx-by-ny cell grid.
class ThermalGrid {
public:
    /// Grid of nx-by-ny cells covering width-by-height meters. Throws
    /// std::invalid_argument unless the extents and every GridParams
    /// field are finite (and the extents and material constants > 0).
    ThermalGrid(int nx, int ny, double width, double height,
                GridParams params = {});

    int nx() const { return nx_; }
    int ny() const { return ny_; }
    const GridParams& params() const { return params_; }

    /// Steady-state temperature map [deg C] for the per-cell power map
    /// [W] (row-major, y slowest). Throws std::invalid_argument on size
    /// mismatch or a non-finite power, and std::runtime_error on solver
    /// non-convergence.
    std::vector<double> steady_state(std::span<const double> power_w,
                                     const SolveOptions& opt = {}) const;

    /// Advances `temps_c` by one implicit-Euler step of `dt` seconds
    /// under the given power map (in place). Throws
    /// std::invalid_argument on a size mismatch, a non-finite
    /// temperature or power, or a dt that is not finite and > 0.
    void transient_step(std::vector<double>& temps_c,
                        std::span<const double> power_w, double dt,
                        const SolveOptions& opt = {}) const;

    /// Temperature at die coordinates (x, y) by bilinear interpolation
    /// of the cell-center samples; clamps to the die. Non-finite
    /// coordinates throw std::invalid_argument.
    double sample(std::span<const double> temps_c, double x, double y) const;

    /// Index of the cell containing (x, y), clamped to the die.
    /// Non-finite coordinates throw std::invalid_argument.
    std::size_t cell_index(double x, double y) const;

private:
    /// Shared SOR kernel: solves (diag + G) T = rhs-form system. Each
    /// sweep relaxes the anti-diagonals in order, which reproduces the
    /// lexicographic sweep bit for bit (see grid.cpp).
    std::vector<double> solve(std::span<const double> source,
                              std::span<const double> extra_diag,
                              std::span<const double> initial,
                              const SolveOptions& opt) const;

    int nx_;
    int ny_;
    double dx_;
    double dy_;
    GridParams params_;
    double g_lat_x_; ///< Conductance to x-neighbour [W/K].
    double g_lat_y_; ///< Conductance to y-neighbour [W/K].
    double g_v_;     ///< Conductance to ambient [W/K].
    double cap_;     ///< Heat capacity per cell [J/K].
};

} // namespace stsense::thermal
