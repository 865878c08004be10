// Partial-pivot LU factorization. O(n³) to factor (2/3·n³ flops), O(n²)
// per right-hand-side solve.
//
// Role in decode: the general dense fallback. The decode subsystem
// (coding/decode_context.h) Schur-reduces MDS recovery systems onto their
// p x p parity block and LU-factorizes only that — p <= n - k, so at
// fleet scale this class factors 2 x 2 systems, not k x k ones — and
// caches the result per responder set. Pure Vandermonde systems skip LU
// entirely (linalg/vandermonde.h). Cost model: docs/PERFORMANCE.md.
#pragma once

#include <cstddef>
#include <span>

#include "src/linalg/matrix.h"

namespace s2c2::linalg {

class LuFactorization {
 public:
  /// Factors a square matrix. Throws std::invalid_argument if `a` is not
  /// square and std::domain_error if it is numerically singular.
  explicit LuFactorization(Matrix a);

  [[nodiscard]] std::size_t dim() const noexcept { return lu_.rows(); }

  /// Solves A x = b for a single right-hand side.
  [[nodiscard]] Vector solve(std::span<const double> b) const;

  /// In-place variant over a row-major RHS laid out as n rows of width m.
  /// Reuses an internal permutation scratch, so steady-state calls are
  /// allocation-free — but NOT safe to call concurrently on one instance
  /// (see tests/arena_test.cpp).
  void solve_inplace(std::span<double> b_rowmajor, std::size_t width) const;

  /// Same solve, with the permutation gather run through the caller-owned
  /// `perm_scratch` (resized as needed). The decode context shares one
  /// scratch across every cached factorization this way, so a cache
  /// entry retains no solve buffer of its own.
  void solve_inplace(std::span<double> b_rowmajor, std::size_t width,
                     std::vector<double>& perm_scratch) const;

 private:
  Matrix lu_;                     // packed L (unit diag) and U
  std::vector<std::size_t> piv_;  // row permutation
  // Retained across solve_inplace calls (resize keeps capacity) so the
  // row-permutation gather never heap-allocates in steady state.
  mutable std::vector<double> perm_scratch_;
};

}  // namespace s2c2::linalg
