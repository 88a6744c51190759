// Dense linear algebra for the circuit simulator.
//
// Ring-oscillator netlists have a handful of nodes (a 21-stage ring is
// ~22 unknowns), so a dense LU with partial pivoting is the right tool:
// no sparse bookkeeping, cache-friendly, and exactly as accurate.
//
// Two entry points share one factorization core:
//   * lu_solve() — the historical one-shot factor+solve (destroys A);
//   * LuFactors  — a reusable factorization: factor() once, solve() any
//     number of right-hand sides against it. This is the seam the
//     transient kernel's modified Newton uses to re-solve across
//     iterations (and steps) without refactoring.
// Both run the identical pivoting and elimination arithmetic, so a
// factor()+solve() pair is bitwise equal to the one-shot lu_solve().
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace stsense::spice {

/// Row-major dense square-capable matrix of doubles.
///
/// The storage carries one extra trailing "scratch" element past the
/// last entry: the batched device evaluator writes stamps addressed to
/// eliminated (driven) nodes there through precomputed flat offsets, so
/// its scatter loop needs no per-entry branch. The scratch element is
/// not part of the matrix (data()/at() never see it) and is zeroed
/// alongside the entries.
class Matrix {
public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
    double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

    /// Sets every entry to zero without reallocating.
    void clear();

    /// Resizes to rows x cols and zeroes the contents. Never shrinks the
    /// underlying allocation, so a workspace matrix reused at a fixed
    /// size allocates exactly once.
    void resize(std::size_t rows, std::size_t cols);

    /// Raw storage (row-major), e.g. for tests.
    std::span<const double> data() const {
        return std::span<const double>(data_.data(), rows_ * cols_);
    }

    /// Flat row-major storage including the trailing scratch slot at
    /// flat()[scratch_index()] — the batched scatter's write base.
    double* flat() { return data_.data(); }
    std::size_t scratch_index() const { return rows_ * cols_; }

    /// One row as a span — callers that only need a row should use this
    /// instead of slicing a copy out of data().
    std::span<const double> row_span(std::size_t r) const {
        return std::span<const double>(data_.data() + r * cols_, cols_);
    }
    std::span<double> row_span(std::size_t r) {
        return std::span<double>(data_.data() + r * cols_, cols_);
    }

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/// A reusable LU factorization (Doolittle, partial pivoting via a row
/// permutation, L with unit diagonal stored below U in one matrix).
///
/// factor() copies A into internal storage and factors it; solve()
/// back-substitutes any right-hand side against the stored factors.
/// Internal buffers are retained across calls, so refactoring at the
/// same size performs no heap allocation.
class LuFactors {
public:
    /// Factors `a` (square). Returns false — and marks the factors
    /// invalid — when the matrix is numerically singular (pivot below
    /// `pivot_tol`) or non-finite.
    bool factor(const Matrix& a, double pivot_tol = 1e-14);

    /// Solves A x = b against the stored factors. Returns false when no
    /// valid factorization is held, on dimension mismatch, or when the
    /// solution is non-finite; x is unspecified in that case.
    bool solve(std::span<const double> b, std::vector<double>& x) const;

    /// Dimension of the stored factorization (0 when none).
    std::size_t size() const { return valid_ ? lu_.rows() : 0; }
    bool valid() const { return valid_; }
    /// Drops the stored factorization (buffers are kept).
    void invalidate() { valid_ = false; }

private:
    Matrix lu_;
    std::vector<std::size_t> perm_;
    mutable std::vector<double> y_; ///< Forward-substitution scratch.
    bool valid_ = false;
};

/// In-place LU factorization with partial pivoting; solves A x = b.
///
/// Returns false if the matrix is numerically singular (pivot below
/// `pivot_tol`); in that case x is unspecified. A is destroyed.
bool lu_solve(Matrix& a, std::span<const double> b, std::vector<double>& x,
              double pivot_tol = 1e-14);

/// Maximum absolute entry of v (0 for empty v).
double max_abs(std::span<const double> v);

} // namespace stsense::spice
