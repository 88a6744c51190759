#include "spice/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace stsense::spice {

// The +1 throughout is the trailing scratch slot the batched scatter
// aims driven-node stamps at (see the class comment).
Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols + 1, 0.0) {}

void Matrix::clear() {
    std::fill(data_.begin(), data_.end(), 0.0);
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols + 1, 0.0);
}

namespace {

/// Doolittle LU with partial pivoting, factoring `a` in place. Rows are
/// permuted logically through `perm` (no physical swaps). Returns false
/// on a pivot below `pivot_tol` or a non-finite pivot. This is the one
/// factorization core behind lu_solve and LuFactors — keep the
/// arithmetic identical in both paths.
bool factor_core(Matrix& a, std::vector<std::size_t>& perm, double pivot_tol) {
    const std::size_t n = a.rows();
    perm.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = i;

    for (std::size_t k = 0; k < n; ++k) {
        std::size_t pivot = k;
        double best = std::abs(a.at(perm[k], k));
        for (std::size_t r = k + 1; r < n; ++r) {
            const double cand = std::abs(a.at(perm[r], k));
            if (cand > best) {
                best = cand;
                pivot = r;
            }
        }
        if (best < pivot_tol || !std::isfinite(best)) return false;
        std::swap(perm[k], perm[pivot]);

        const double pivval = a.at(perm[k], k);
        for (std::size_t r = k + 1; r < n; ++r) {
            const double factor = a.at(perm[r], k) / pivval;
            a.at(perm[r], k) = factor;
            if (factor == 0.0) continue;
            for (std::size_t c = k + 1; c < n; ++c) {
                a.at(perm[r], c) -= factor * a.at(perm[k], c);
            }
        }
    }
    return true;
}

/// Forward/back substitution against factors produced by factor_core.
/// Returns false when the solution is non-finite.
bool solve_core(const Matrix& a, const std::vector<std::size_t>& perm,
                std::span<const double> b, std::vector<double>& y,
                std::vector<double>& x) {
    const std::size_t n = a.rows();
    // Forward substitution (L has unit diagonal).
    y.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
        double sum = b[perm[r]];
        for (std::size_t c = 0; c < r; ++c) sum -= a.at(perm[r], c) * y[c];
        y[r] = sum;
    }
    // Back substitution.
    for (std::size_t ri = n; ri-- > 0;) {
        double sum = y[ri];
        for (std::size_t c = ri + 1; c < n; ++c) sum -= a.at(perm[ri], c) * x[c];
        x[ri] = sum / a.at(perm[ri], ri);
    }
    for (double v : x) {
        if (!std::isfinite(v)) return false;
    }
    return true;
}

} // namespace

bool lu_solve(Matrix& a, std::span<const double> b, std::vector<double>& x,
              double pivot_tol) {
    const std::size_t n = a.rows();
    if (a.cols() != n || b.size() != n) {
        throw std::invalid_argument("lu_solve: dimension mismatch");
    }
    x.assign(n, 0.0);
    if (n == 0) return true;

    std::vector<std::size_t> perm;
    if (!factor_core(a, perm, pivot_tol)) return false;
    std::vector<double> y;
    return solve_core(a, perm, b, y, x);
}

bool LuFactors::factor(const Matrix& a, double pivot_tol) {
    valid_ = false;
    const std::size_t n = a.rows();
    if (a.cols() != n) {
        throw std::invalid_argument("LuFactors::factor: matrix not square");
    }
    // Copy into the retained buffer (no allocation when the size is
    // unchanged), then factor in place.
    if (lu_.rows() != n || lu_.cols() != n) {
        lu_.resize(n, n);
    }
    for (std::size_t r = 0; r < n; ++r) {
        auto dst = lu_.row_span(r);
        const auto src = a.row_span(r);
        std::copy(src.begin(), src.end(), dst.begin());
    }
    if (!factor_core(lu_, perm_, pivot_tol)) return false;
    valid_ = true;
    return true;
}

bool LuFactors::solve(std::span<const double> b, std::vector<double>& x) const {
    const std::size_t n = lu_.rows();
    if (!valid_ || b.size() != n) return false;
    x.assign(n, 0.0);
    if (n == 0) return true;
    return solve_core(lu_, perm_, b, y_, x);
}

BandedLuFactors::Plan BandedLuFactors::analyze(const Matrix& a,
                                               double cost_cutoff) {
    Plan best;
    const std::size_t n = a.rows();
    if (a.cols() != n) {
        throw std::invalid_argument("BandedLuFactors::analyze: matrix not square");
    }
    if (n < 3) return best; // Dense is already optimal at this size.

    // Exact clipped elimination cost (multiply count) of a candidate
    // (band, border) shape vs the dense reference — n is tens at most,
    // so counting exactly is cheaper than getting an estimate wrong.
    const auto clipped_cost = [n](std::size_t band, std::size_t border) {
        const std::size_t nb = n - border; // First border row/column.
        std::size_t cost = 0;
        for (std::size_t k = 0; k < n; ++k) {
            std::size_t rows = 0;
            if (k + 1 < nb) rows += std::min(band, nb - 1 - k);
            rows += n - std::max(nb, k + 1);
            cost += rows * rows; // Row and column clip ranges coincide.
        }
        return cost;
    };
    std::size_t dense_cost = 0;
    for (std::size_t k = 0; k + 1 < n; ++k) {
        dense_cost += (n - 1 - k) * (n - 1 - k);
    }
    if (dense_cost == 0) return best;

    std::size_t best_cost = dense_cost;
    const std::size_t max_border = std::min<std::size_t>(n, 4);
    for (std::size_t w = 0; w <= max_border; ++w) {
        const std::size_t nb = n - w;
        std::size_t band = 0;
        for (std::size_t r = 0; r < nb; ++r) {
            for (std::size_t c = 0; c < nb; ++c) {
                if (a.at(r, c) == 0.0) continue;
                const std::size_t d = r > c ? r - c : c - r;
                band = std::max(band, d);
            }
        }
        const std::size_t cost = clipped_cost(band, w);
        if (cost < best_cost) {
            best_cost = cost;
            best.band = band;
            best.border = w;
            best.banded = true;
        }
    }
    if (static_cast<double>(best_cost) >=
        cost_cutoff * static_cast<double>(dense_cost)) {
        best = Plan{};
    }
    return best;
}

bool BandedLuFactors::factor(const Matrix& a, const Plan& plan,
                             double pivot_tol) {
    valid_ = false;
    const std::size_t n = a.rows();
    if (a.cols() != n) {
        throw std::invalid_argument("BandedLuFactors::factor: matrix not square");
    }
    if (!plan.banded || plan.border > n) return false;
    plan_ = plan;

    if (lu_.rows() != n || lu_.cols() != n) lu_.resize(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        auto dst = lu_.row_span(r);
        const auto src = a.row_span(r);
        std::copy(src.begin(), src.end(), dst.begin());
    }

    // Doolittle without pivoting, every loop clipped to the band plus
    // the dense border block — the fill of a bordered-band pattern
    // stays inside that shape, so nothing outside is ever touched.
    const std::size_t nb = n - plan.border; // First border row/column.
    const auto for_clipped = [&](std::size_t k, auto&& body) {
        if (k + 1 < nb) {
            const std::size_t end = std::min(nb - 1, k + plan.band);
            for (std::size_t i = k + 1; i <= end; ++i) body(i);
        }
        for (std::size_t i = std::max(nb, k + 1); i < n; ++i) body(i);
    };
    for (std::size_t k = 0; k < n; ++k) {
        const double pivval = lu_.at(k, k);
        if (std::abs(pivval) < pivot_tol || !std::isfinite(pivval)) return false;
        for_clipped(k, [&](std::size_t r) {
            const double factor = lu_.at(r, k) / pivval;
            lu_.at(r, k) = factor;
            if (factor == 0.0) return;
            for_clipped(k, [&](std::size_t c) {
                lu_.at(r, c) -= factor * lu_.at(k, c);
            });
        });
    }
    valid_ = true;
    return true;
}

bool BandedLuFactors::solve(std::span<const double> b,
                            std::vector<double>& x) const {
    const std::size_t n = lu_.rows();
    if (!valid_ || b.size() != n) return false;
    // Both substitutions fully overwrite their outputs, so a resize
    // (no-op in the solver's steady state) replaces the zero-fill.
    if (x.size() != n) x.resize(n);
    if (n == 0) return true;
    if (y_.size() != n) y_.resize(n);

    const std::size_t nb = n - plan_.border;
    const double* lu = lu_.data().data();
    // Forward substitution (L has unit diagonal): an interior row's L
    // profile is the band to its left; a border row's is the full row.
    for (std::size_t r = 0; r < n; ++r) {
        double sum = b[r];
        const double* row = lu + r * n;
        const std::size_t first =
            r < nb ? (r > plan_.band ? r - plan_.band : 0) : 0;
        for (std::size_t c = first; c < r; ++c) sum -= row[c] * y_[c];
        y_[r] = sum;
    }
    // Back substitution: the band to the right plus the border columns.
    for (std::size_t ri = n; ri-- > 0;) {
        double sum = y_[ri];
        const double* row = lu + ri * n;
        if (ri + 1 < nb) {
            const std::size_t end = std::min(nb - 1, ri + plan_.band);
            for (std::size_t c = ri + 1; c <= end; ++c) sum -= row[c] * x[c];
        }
        for (std::size_t c = std::max(nb, ri + 1); c < n; ++c) {
            sum -= row[c] * x[c];
        }
        x[ri] = sum / row[ri];
    }
    for (double v : x) {
        if (!std::isfinite(v)) return false;
    }
    return true;
}

double max_abs(std::span<const double> v) {
    double m = 0.0;
    for (double e : v) m = std::max(m, std::abs(e));
    return m;
}

} // namespace stsense::spice
