// Dense row-major matrix and vector kernels.
//
// This is the BLAS substitute for the reproduction: the paper's workers run
// dgemv/dgemm on their encoded partitions; ours run Matrix::matvec /
// Matrix::matmul. Kernels are cache-blocked but deliberately simple — every
// figure in the paper reports *relative* latency, so kernel peak FLOP/s is
// irrelevant; correctness and a predictable cost model are what matter.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/util/rng.h"

namespace s2c2::linalg {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// From row-major data; data.size() must equal rows*cols.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  static Matrix identity(std::size_t n);

  /// Entries i.i.d. uniform in [lo, hi).
  static Matrix random_uniform(std::size_t rows, std::size_t cols,
                               util::Rng& rng, double lo = -1.0,
                               double hi = 1.0);

  /// Entries i.i.d. N(0, stddev^2).
  static Matrix random_normal(std::size_t rows, std::size_t cols,
                              util::Rng& rng, double stddev = 1.0);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] std::span<const double> data() const noexcept { return data_; }
  [[nodiscard]] std::span<double> mutable_data() noexcept { return data_; }

  /// Reshape without zeroing: contents are unspecified afterwards, the
  /// caller must overwrite every element. Retains capacity, so the decode
  /// hot path can reuse one Matrix across rounds allocation-free.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Copies rows [begin, end) into a new (end-begin) x cols matrix.
  [[nodiscard]] Matrix row_block(std::size_t begin, std::size_t end) const;

  /// y = this * x. x.size() must equal cols().
  [[nodiscard]] Vector matvec(std::span<const double> x) const;

  /// Writes this*x into y (y.size() == rows()); avoids allocation in loops.
  void matvec_into(std::span<const double> x, std::span<double> y) const;

  /// y = this^T * x  without materializing the transpose.
  [[nodiscard]] Vector matvec_transposed(std::span<const double> x) const;

  /// Y = this * X for a row-major multi-RHS panel X (cols() x b). Unlike
  /// matmul's blocked i-k-j loop, each output element is a single dot
  /// product in ascending-column order, so column j of the result is
  /// bitwise identical to matvec on column j of X — the invariant the
  /// block round data path relies on at b = 1.
  [[nodiscard]] Matrix matmat(const Matrix& x) const;

  /// Panel form of matmat: x is cols() x width row-major, y is
  /// rows() x width row-major; avoids allocation in loops.
  void matmat_into(std::span<const double> x, std::size_t width,
                   std::span<double> y) const;

  /// C = this * B (cache-blocked i-k-j loop).
  [[nodiscard]] Matrix matmul(const Matrix& b) const;

  [[nodiscard]] Matrix transposed() const;

  /// this += alpha * B (same shape).
  void add_scaled(const Matrix& b, double alpha);

  void scale(double alpha);

  [[nodiscard]] double frobenius_norm() const;

  /// Max |a_ij - b_ij|; shapes must match. A NaN difference reads as
  /// +infinity, so a NaN product fails every `error < tol` check.
  [[nodiscard]] double max_abs_diff(const Matrix& b) const;

  /// Stacks blocks vertically; all blocks must share cols().
  static Matrix vstack(std::span<const Matrix> blocks);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// ---- free vector helpers -------------------------------------------------

[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);

/// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);

[[nodiscard]] double norm2(std::span<const double> x);

/// Max |a_i - b_i|; sizes must match. NaN differences read as +infinity.
[[nodiscard]] double max_abs_diff(std::span<const double> a,
                                  std::span<const double> b);

/// Element-wise logistic sigmoid.
[[nodiscard]] Vector sigmoid(std::span<const double> x);

}  // namespace s2c2::linalg
