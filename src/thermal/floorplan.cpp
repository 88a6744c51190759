#include "thermal/floorplan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace stsense::thermal {

Floorplan::Floorplan(double die_width, double die_height)
    : width_(die_width), height_(die_height) {
    if (!(std::isfinite(die_width) && die_width > 0.0) ||
        !(std::isfinite(die_height) && die_height > 0.0)) {
        throw std::invalid_argument("Floorplan: die extents must be finite and > 0");
    }
}

void Floorplan::add_block(Block block) {
    if (!std::isfinite(block.x) || !std::isfinite(block.y) ||
        !std::isfinite(block.width) || !std::isfinite(block.height) ||
        !std::isfinite(block.power_w)) {
        throw std::invalid_argument("Floorplan: block '" + block.name +
                                    "' has a non-finite field");
    }
    if (block.width <= 0.0 || block.height <= 0.0) {
        throw std::invalid_argument("Floorplan: block '" + block.name +
                                    "' must have positive area");
    }
    if (block.power_w < 0.0) {
        throw std::invalid_argument("Floorplan: block '" + block.name +
                                    "' has negative power");
    }
    if (block.x < 0.0 || block.y < 0.0 || block.x + block.width > width_ ||
        block.y + block.height > height_) {
        throw std::invalid_argument("Floorplan: block '" + block.name +
                                    "' lies outside the die");
    }
    blocks_.push_back(std::move(block));
}

double Floorplan::total_power() const {
    double sum = 0.0;
    for (const auto& b : blocks_) sum += b.power_w;
    return sum;
}

std::vector<double> Floorplan::power_map(int nx, int ny) const {
    if (nx < 1 || ny < 1) throw std::invalid_argument("power_map: nx, ny must be >= 1");
    std::vector<double> map(static_cast<std::size_t>(nx) * ny, 0.0);
    const double dx = width_ / nx;
    const double dy = height_ / ny;

    for (const auto& b : blocks_) {
        const double area = b.width * b.height;
        const double density = b.power_w / area; // W per m^2.
        // Cells overlapped by the block.
        const int ix0 = std::clamp(static_cast<int>(b.x / dx), 0, nx - 1);
        const int ix1 = std::clamp(static_cast<int>((b.x + b.width) / dx), 0, nx - 1);
        const int iy0 = std::clamp(static_cast<int>(b.y / dy), 0, ny - 1);
        const int iy1 = std::clamp(static_cast<int>((b.y + b.height) / dy), 0, ny - 1);
        for (int iy = iy0; iy <= iy1; ++iy) {
            for (int ix = ix0; ix <= ix1; ++ix) {
                const double cx0 = ix * dx;
                const double cy0 = iy * dy;
                const double ox = std::max(0.0, std::min(cx0 + dx, b.x + b.width) -
                                                    std::max(cx0, b.x));
                const double oy = std::max(0.0, std::min(cy0 + dy, b.y + b.height) -
                                                    std::max(cy0, b.y));
                map[static_cast<std::size_t>(iy) * nx + ix] += density * ox * oy;
            }
        }
    }
    return map;
}

Floorplan demo_floorplan() {
    Floorplan fp(10e-3, 10e-3);
    fp.add_block({"core", 1.0e-3, 5.5e-3, 3.5e-3, 3.5e-3, 18.0});
    fp.add_block({"fpu", 5.0e-3, 6.0e-3, 2.0e-3, 2.5e-3, 9.0});
    fp.add_block({"l2cache", 1.0e-3, 1.0e-3, 6.0e-3, 3.5e-3, 6.0});
    fp.add_block({"io", 7.8e-3, 1.0e-3, 1.5e-3, 8.0e-3, 3.0});
    return fp;
}

} // namespace stsense::thermal
