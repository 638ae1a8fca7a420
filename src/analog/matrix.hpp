// Dense linear algebra for the MNA solver.
//
// Circuit matrices in this library are small (26 unknowns for the standard
// 2x1 SRAM block plus periphery, whose source-driven nodes are known inputs
// rather than unknowns), so a dense LU with partial pivoting is both the
// simplest and the fastest option. The engine assembles a row for every
// node and factors only the leading block of unknown nodes, so both factor
// classes take the size of the block to factor.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace memstress::analog {

/// Row-major dense square matrix.
///
/// Element access is assert-checked in debug builds (NDEBUG off); release
/// builds keep the raw unchecked path so the stamp loop stays a single
/// multiply-add.
class DenseMatrix {
 public:
  explicit DenseMatrix(std::size_t n = 0);

  std::size_t size() const { return n_; }
  void resize(std::size_t n);
  void set_zero();

  double& at(std::size_t row, std::size_t col) {
    assert(row < n_ && col < n_ && "DenseMatrix::at out of bounds");
    return data_[row * n_ + col];
  }
  double at(std::size_t row, std::size_t col) const {
    assert(row < n_ && col < n_ && "DenseMatrix::at out of bounds");
    return data_[row * n_ + col];
  }

  /// Accumulate `value` at (row, col) — the MNA "stamp" primitive.
  void add(std::size_t row, std::size_t col, double value) {
    assert(row < n_ && col < n_ && "DenseMatrix::add out of bounds");
    data_[row * n_ + col] += value;
  }

 private:
  std::size_t n_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting, reusable across solves.
///
/// `factor` returns false if the matrix is numerically singular.
class LuSolver {
 public:
  bool factor(const DenseMatrix& a) { return factor(a, a.size()); }
  /// Factor the leading n x n block of `a`.
  bool factor(const DenseMatrix& a, std::size_t n);

  /// Solve A x = b in place (b becomes x). Requires a prior successful factor.
  void solve(std::vector<double>& b) const;

  /// Solve A X = B for `nrhs` right-hand sides at once. B is row-major with
  /// the RHS index innermost (b[row * nrhs + k]), so the triangular sweeps
  /// read each LU row once and stream contiguously across the systems. Each
  /// column's arithmetic runs in the same order as `solve`, so column k's
  /// result is identical to a scalar solve of that RHS. No solver path
  /// calls it; perfbench's block-solve probe still does.
  void solve_block(double* b, std::size_t nrhs) const;

  std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
  std::vector<double> lu_;       // packed LU
  std::vector<std::size_t> piv_; // row permutation
};

/// Reusable factorization workspace for families of systems that differ by a
/// symmetric rank-1 stamp: A_lane = A_base + scale * u * u^T.
///
/// This is the incremental-refactorization primitive behind the batched
/// solver: `factor` runs the O(n^3) LU once per base matrix, caches
/// z = A_base^{-1} u for the registered update direction, and
/// `solve_updated` then serves each lane's system with the Sherman–Morrison
/// identity at O(n^2):
///
///   (A + s u u^T)^{-1} b = y - (s (u^T y) / (1 + s u^T z)) z,  y = A^{-1} b
///
/// Accuracy never silently degrades: `solve_updated` returns false when the
/// Sherman–Morrison denominator is too small relative to 1 (the updated
/// matrix is near-singular from A_base's point of view and the division
/// would amplify rounding error), and the caller must fall back to a full
/// refactorization at that lane's value.
class LuWorkspace {
 public:
  /// Factor the base matrix. Returns false on numerical singularity, in
  /// which case the workspace is unusable until the next successful factor.
  bool factor(const DenseMatrix& a_base) {
    return factor(a_base, a_base.size());
  }
  /// Factor the leading n x n block of `a_base`. The row norms of its first
  /// n rows span every column of `a_base`, so entries right of the block (a
  /// reduced system's source columns) still set a row's scale.
  bool factor(const DenseMatrix& a_base, std::size_t n);

  /// Register the rank-1 direction u (sparse: (row, coefficient) pairs) and
  /// cache z = A_base^{-1} u. The direction survives until the next factor
  /// or set_update_direction call. Requires a prior successful factor.
  void set_update_direction(const std::vector<std::pair<std::size_t, double>>& u);

  /// Solve (A_base + scale * u * u^T) x = b in place (b becomes x).
  /// Returns false — leaving b clobbered with intermediate values — when the
  /// Sherman–Morrison denominator guard trips; the caller must refactor.
  /// With scale == 0 this is an exact base solve and never fails.
  bool solve_updated(double scale, std::vector<double>& b) const;

  /// Plain base solve, A_base x = b in place.
  void solve(std::vector<double>& b) const { lu_.solve(b); }

  /// Infinity norm of each factored row of the base matrix, for
  /// residual-convergence scaling: a residual entry r_i is "small" when
  /// |r_i| / row_norm(i) is below the voltage tolerance.
  double row_norm(std::size_t row) const { return row_norms_[row]; }

  bool factored() const { return factored_; }
  std::size_t size() const { return lu_.size(); }

 private:
  LuSolver lu_;
  bool factored_ = false;
  std::vector<double> row_norms_;
  std::vector<std::pair<std::size_t, double>> u_;  // sparse update direction
  std::vector<double> z_;                          // A_base^{-1} u
  double utz_ = 0.0;                               // u^T z
};

}  // namespace memstress::analog
