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

double max_abs(std::span<const double> v) {
    double m = 0.0;
    for (double e : v) m = std::max(m, std::abs(e));
    return m;
}

} // namespace stsense::spice
