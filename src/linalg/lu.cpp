#include "src/linalg/lu.h"

#include <cmath>
#include <stdexcept>

#include "src/util/require.h"

namespace s2c2::linalg {

LuFactorization::LuFactorization(Matrix a) : lu_(std::move(a)) {
  S2C2_REQUIRE(lu_.rows() == lu_.cols(), "LU of non-square matrix");
  const std::size_t n = lu_.rows();
  piv_.resize(n);
  for (std::size_t i = 0; i < n; ++i) piv_[i] = i;

  for (std::size_t col = 0; col < n; ++col) {
    // Pivot search.
    std::size_t pivot = col;
    double best = std::abs(lu_(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::abs(lu_(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best == 0.0) {
      throw std::domain_error("LU: matrix is numerically singular");
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu_(col, c), lu_(pivot, c));
      }
      std::swap(piv_[col], piv_[pivot]);
    }
    const double d = lu_(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double mult = lu_(r, col) / d;
      lu_(r, col) = mult;
      if (mult == 0.0) continue;
      for (std::size_t c = col + 1; c < n; ++c) {
        lu_(r, c) -= mult * lu_(col, c);
      }
    }
  }
}

Vector LuFactorization::solve(std::span<const double> b) const {
  const std::size_t n = dim();
  S2C2_REQUIRE(b.size() == n, "LU solve: rhs size mismatch");
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[piv_[i]];
  // Forward substitution (L has unit diagonal).
  for (std::size_t i = 1; i < n; ++i) {
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
    x[i] = acc;
  }
  // Back substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
    x[ii] = acc / lu_(ii, ii);
  }
  return x;
}

void LuFactorization::solve_inplace(std::span<double> b_rowmajor,
                                    std::size_t width) const {
  solve_inplace(b_rowmajor, width, perm_scratch_);
}

void LuFactorization::solve_inplace(std::span<double> b_rowmajor,
                                    std::size_t width,
                                    std::vector<double>& perm_scratch) const {
  const std::size_t n = dim();
  S2C2_REQUIRE(width > 0 && b_rowmajor.size() == n * width,
               "LU solve_inplace: rhs layout mismatch");
  // Apply the row permutation (gather through the caller's scratch).
  perm_scratch.resize(b_rowmajor.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < width; ++c) {
      perm_scratch[i * width + c] = b_rowmajor[piv_[i] * width + c];
    }
  }
  std::copy(perm_scratch.begin(), perm_scratch.end(), b_rowmajor.begin());
  // Forward substitution over all columns at once.
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double lij = lu_(i, j);
      if (lij == 0.0) continue;
      for (std::size_t c = 0; c < width; ++c) {
        b_rowmajor[i * width + c] -= lij * b_rowmajor[j * width + c];
      }
    }
  }
  // Back substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t j = ii + 1; j < n; ++j) {
      const double uij = lu_(ii, j);
      if (uij == 0.0) continue;
      for (std::size_t c = 0; c < width; ++c) {
        b_rowmajor[ii * width + c] -= uij * b_rowmajor[j * width + c];
      }
    }
    const double d = lu_(ii, ii);
    for (std::size_t c = 0; c < width; ++c) b_rowmajor[ii * width + c] /= d;
  }
}

}  // namespace s2c2::linalg
