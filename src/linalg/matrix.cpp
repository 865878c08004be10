#include "src/linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/linalg/kernels.h"
#include "src/util/require.h"

namespace s2c2::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  S2C2_REQUIRE(data_.size() == rows_ * cols_,
               "matrix data size does not match rows*cols");
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::random_uniform(std::size_t rows, std::size_t cols,
                              util::Rng& rng, double lo, double hi) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.uniform(lo, hi);
  return m;
}

Matrix Matrix::random_normal(std::size_t rows, std::size_t cols,
                             util::Rng& rng, double stddev) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.normal(0.0, stddev);
  return m;
}

Matrix Matrix::row_block(std::size_t begin, std::size_t end) const {
  S2C2_REQUIRE(begin <= end && end <= rows_, "row_block range out of bounds");
  Matrix out(end - begin, cols_);
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(begin * cols_),
            data_.begin() + static_cast<std::ptrdiff_t>(end * cols_),
            out.data_.begin());
  return out;
}

Vector Matrix::matvec(std::span<const double> x) const {
  Vector y(rows_, 0.0);
  matvec_into(x, y);
  return y;
}

void Matrix::matvec_into(std::span<const double> x, std::span<double> y) const {
  S2C2_REQUIRE(x.size() == cols_, "matvec: x size mismatch");
  S2C2_REQUIRE(y.size() == rows_, "matvec: y size mismatch");
  kernels::dense_matvec(data_.data(), rows_, cols_, x.data(), y.data());
}

Matrix Matrix::matmat(const Matrix& x) const {
  S2C2_REQUIRE(x.rows() == cols_, "matmat: inner dimension mismatch");
  Matrix y(rows_, x.cols());
  matmat_into(x.data(), x.cols(), y.mutable_data());
  return y;
}

void Matrix::matmat_into(std::span<const double> x, std::size_t width,
                         std::span<double> y) const {
  S2C2_REQUIRE(width > 0, "matmat: width must be >= 1");
  S2C2_REQUIRE(x.size() == cols_ * width, "matmat: x panel size mismatch");
  S2C2_REQUIRE(y.size() == rows_ * width, "matmat: y panel size mismatch");
  kernels::dense_matmat(data_.data(), rows_, cols_, x.data(), width, y.data());
}

Vector Matrix::matvec_transposed(std::span<const double> x) const {
  S2C2_REQUIRE(x.size() == rows_, "matvec_transposed: x size mismatch");
  Vector y(cols_, 0.0);
  const double* a = data_.data();
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    const double* row = a + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) y[c] += xr * row[c];
  }
  return y;
}

Matrix Matrix::matmul(const Matrix& b) const {
  S2C2_REQUIRE(cols_ == b.rows_, "matmul: inner dimension mismatch");
  Matrix c(rows_, b.cols_);
  // i-k-j ordering: streams through B rows and C rows contiguously.
  constexpr std::size_t kBlock = 64;
  for (std::size_t i0 = 0; i0 < rows_; i0 += kBlock) {
    const std::size_t i1 = std::min(i0 + kBlock, rows_);
    for (std::size_t k0 = 0; k0 < cols_; k0 += kBlock) {
      const std::size_t k1 = std::min(k0 + kBlock, cols_);
      for (std::size_t i = i0; i < i1; ++i) {
        double* crow = c.data_.data() + i * c.cols_;
        for (std::size_t k = k0; k < k1; ++k) {
          const double aik = (*this)(i, k);
          if (aik == 0.0) continue;
          const double* brow = b.data_.data() + k * b.cols_;
          for (std::size_t j = 0; j < b.cols_; ++j) crow[j] += aik * brow[j];
        }
      }
    }
  }
  return c;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

void Matrix::add_scaled(const Matrix& b, double alpha) {
  S2C2_REQUIRE(rows_ == b.rows_ && cols_ == b.cols_,
               "add_scaled: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * b.data_[i];
  }
}

void Matrix::scale(double alpha) {
  for (double& v : data_) v *= alpha;
}

double Matrix::frobenius_norm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

double Matrix::max_abs_diff(const Matrix& b) const {
  S2C2_REQUIRE(rows_ == b.rows_ && cols_ == b.cols_,
               "max_abs_diff: shape mismatch");
  return linalg::max_abs_diff(data_, b.data_);
}

Matrix Matrix::vstack(std::span<const Matrix> blocks) {
  S2C2_REQUIRE(!blocks.empty(), "vstack of no blocks");
  const std::size_t cols = blocks.front().cols();
  std::size_t rows = 0;
  for (const Matrix& b : blocks) {
    S2C2_REQUIRE(b.cols() == cols, "vstack: column mismatch");
    rows += b.rows();
  }
  Matrix out(rows, cols);
  std::size_t at = 0;
  for (const Matrix& b : blocks) {
    std::copy(b.data_.begin(), b.data_.end(),
              out.data_.begin() + static_cast<std::ptrdiff_t>(at * cols));
    at += b.rows();
  }
  return out;
}

double dot(std::span<const double> a, std::span<const double> b) {
  S2C2_REQUIRE(a.size() == b.size(), "dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  S2C2_REQUIRE(x.size() == y.size(), "axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double norm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  S2C2_REQUIRE(a.size() == b.size(), "max_abs_diff: size mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::abs(a[i] - b[i]);
    // std::max(m, NaN) is m: a NaN product would read as a perfect match.
    if (std::isnan(d)) return std::numeric_limits<double>::infinity();
    m = std::max(m, d);
  }
  return m;
}

Vector sigmoid(std::span<const double> x) {
  Vector out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = 1.0 / (1.0 + std::exp(-x[i]));
  }
  return out;
}

}  // namespace s2c2::linalg
