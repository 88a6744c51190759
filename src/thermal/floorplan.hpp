// Die floorplan: rectangular blocks with power budgets, rasterized into
// the power map consumed by the thermal grid. This provides the
// "different points of the die" that the paper's smart unit monitors via
// multiplexed ring oscillators.
#pragma once

#include <string>
#include <vector>

namespace stsense::thermal {

/// One functional block dissipating power uniformly over its footprint.
struct Block {
    std::string name;
    double x = 0.0;      ///< Left edge [m].
    double y = 0.0;      ///< Bottom edge [m].
    double width = 0.0;  ///< [m].
    double height = 0.0; ///< [m].
    double power_w = 0.0;///< Total block power [W].
};

/// Rectangular die with power-dissipating blocks.
class Floorplan {
public:
    /// Die extents must be finite and positive.
    Floorplan(double die_width, double die_height);

    /// Adds a block; every field must be finite, and the block must lie
    /// fully inside the die and have positive area and non-negative
    /// power. Throws std::invalid_argument.
    void add_block(Block block);

    double die_width() const { return width_; }
    double die_height() const { return height_; }
    const std::vector<Block>& blocks() const { return blocks_; }

    /// Total power of all blocks [W].
    double total_power() const;

    /// Rasterizes to an nx-by-ny grid of per-cell power [W], row-major
    /// with y varying slowest. Block power is distributed over the cells
    /// it overlaps in proportion to the overlap area.
    std::vector<double> power_map(int nx, int ny) const;

private:
    double width_;
    double height_;
    std::vector<Block> blocks_;
};

/// A demonstrative microprocessor-like floorplan (core hotspot, cache,
/// I/O ring) on a 10 mm x 10 mm die, used by the thermal-mapping bench
/// and examples.
Floorplan demo_floorplan();

} // namespace stsense::thermal
