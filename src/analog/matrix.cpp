#include "analog/matrix.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/error.hpp"

namespace memstress::analog {

DenseMatrix::DenseMatrix(std::size_t n) { resize(n); }

void DenseMatrix::resize(std::size_t n) {
  n_ = n;
  data_.assign(n * n, 0.0);
}

void DenseMatrix::set_zero() { data_.assign(data_.size(), 0.0); }

bool LuSolver::factor(const DenseMatrix& a, std::size_t n) {
  require(n <= a.size(), "LuSolver::factor block exceeds the matrix");
  n_ = n;
  lu_.resize(n_ * n_);
  piv_.resize(n_);
  for (std::size_t r = 0; r < n_; ++r)
    for (std::size_t c = 0; c < n_; ++c) lu_[r * n_ + c] = a.at(r, c);

  for (std::size_t k = 0; k < n_; ++k) {
    // Partial pivoting: largest magnitude in column k at/below the diagonal.
    std::size_t pivot = k;
    double best = std::fabs(lu_[k * n_ + k]);
    for (std::size_t r = k + 1; r < n_; ++r) {
      const double mag = std::fabs(lu_[r * n_ + k]);
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (best < 1e-300) return false;  // Singular to working precision.
    piv_[k] = pivot;
    if (pivot != k) {
      for (std::size_t c = 0; c < n_; ++c)
        std::swap(lu_[k * n_ + c], lu_[pivot * n_ + c]);
    }
    const double diag_inv = 1.0 / lu_[k * n_ + k];
    for (std::size_t r = k + 1; r < n_; ++r) {
      const double factor = lu_[r * n_ + k] * diag_inv;
      lu_[r * n_ + k] = factor;
      if (factor == 0.0) continue;
      const double* src = &lu_[k * n_ + k + 1];
      double* dst = &lu_[r * n_ + k + 1];
      for (std::size_t c = k + 1; c < n_; ++c) *dst++ -= factor * *src++;
    }
  }
  return true;
}

void LuSolver::solve(std::vector<double>& b) const {
  require(b.size() == n_, "LuSolver::solve dimension mismatch");
  // The factorization swaps full rows (PA = LU), so apply the entire
  // permutation to b first, then substitute against the final L and U.
  for (std::size_t k = 0; k < n_; ++k) {
    if (piv_[k] != k) std::swap(b[k], b[piv_[k]]);
  }
  for (std::size_t k = 0; k < n_; ++k) {
    const double bk = b[k];
    if (bk == 0.0) continue;
    for (std::size_t r = k + 1; r < n_; ++r) b[r] -= lu_[r * n_ + k] * bk;
  }
  // Back substitution.
  for (std::size_t k = n_; k-- > 0;) {
    double sum = b[k];
    const double* row = &lu_[k * n_];
    for (std::size_t c = k + 1; c < n_; ++c) sum -= row[c] * b[c];
    b[k] = sum / row[k];
  }
}

void LuSolver::solve_block(double* b, std::size_t nrhs) const {
  // Row swaps of the permutation, applied to whole RHS rows.
  for (std::size_t k = 0; k < n_; ++k) {
    if (piv_[k] == k) continue;
    double* a = b + k * nrhs;
    double* c = b + piv_[k] * nrhs;
    for (std::size_t j = 0; j < nrhs; ++j) std::swap(a[j], c[j]);
  }
  // Forward substitution: row k eliminates into every row below it, the
  // inner loop streaming across the RHS columns. No zero-skip branches:
  // LU fill is effectively random, so a data-dependent branch per entry
  // costs more in mispredictions than the multiply it saves (and x - 0*y
  // is exact, so skipping zeros never changed the result anyway).
  for (std::size_t k = 0; k < n_; ++k) {
    const double* bk = b + k * nrhs;
    for (std::size_t r = k + 1; r < n_; ++r) {
      const double f = lu_[r * n_ + k];
      double* br = b + r * nrhs;
      for (std::size_t j = 0; j < nrhs; ++j) br[j] -= f * bk[j];
    }
  }
  // Back substitution.
  for (std::size_t k = n_; k-- > 0;) {
    double* bk = b + k * nrhs;
    const double* row = &lu_[k * n_];
    for (std::size_t c = k + 1; c < n_; ++c) {
      const double rc = row[c];
      const double* bc = b + c * nrhs;
      for (std::size_t j = 0; j < nrhs; ++j) bk[j] -= rc * bc[j];
    }
    // Per-element division (not multiplication by a reciprocal) keeps each
    // column bitwise identical to the scalar solve() of the same RHS.
    for (std::size_t j = 0; j < nrhs; ++j) bk[j] /= row[k];
  }
}

bool LuWorkspace::factor(const DenseMatrix& a_base, std::size_t n) {
  factored_ = lu_.factor(a_base, n);
  u_.clear();
  z_.clear();
  utz_ = 0.0;
  row_norms_.assign(n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    double norm = 0.0;
    for (std::size_t c = 0; c < a_base.size(); ++c)
      norm = std::max(norm, std::fabs(a_base.at(r, c)));
    // Tiny floor only to keep an (impossible in MNA) all-zero row from
    // turning the residual guard into a division by zero. The norm must NOT
    // be floored at a physical scale like 1 S: a high-impedance node row
    // (gmin + a capacitor companion, ~1e-6 S) needs its residual measured
    // against its own conductance scale, or micro-amp KCL errors — tens of
    // millivolts on such a node — would pass the convergence test.
    row_norms_[r] = std::max(norm, 1e-300);
  }
  return factored_;
}

void LuWorkspace::set_update_direction(
    const std::vector<std::pair<std::size_t, double>>& u) {
  require(factored_, "LuWorkspace::set_update_direction before factor");
  u_ = u;
  z_.assign(lu_.size(), 0.0);
  for (const auto& [row, coeff] : u_) {
    require(row < z_.size(), "LuWorkspace: update row out of range");
    z_[row] += coeff;
  }
  lu_.solve(z_);
  utz_ = 0.0;
  for (const auto& [row, coeff] : u_) utz_ += coeff * z_[row];
}

bool LuWorkspace::solve_updated(double scale, std::vector<double>& b) const {
  require(factored_, "LuWorkspace::solve_updated before factor");
  lu_.solve(b);
  if (scale == 0.0 || u_.empty()) return true;
  const double denom = 1.0 + scale * utz_;
  // Guard: |denom| small means A_base + scale u u^T is nearly singular as
  // seen through the base factorization, and the correction term would be
  // dominated by amplified rounding error. 1e-8 leaves ~8 clean digits.
  if (!(std::fabs(denom) > 1e-8)) return false;
  double uty = 0.0;
  for (const auto& [row, coeff] : u_) uty += coeff * b[row];
  const double gain = scale * uty / denom;
  if (gain == 0.0) return true;
  for (std::size_t i = 0; i < b.size(); ++i) b[i] -= gain * z_[i];
  return true;
}

}  // namespace memstress::analog
