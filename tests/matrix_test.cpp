// Unit tests for the dense linear-algebra substrate.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "src/linalg/matrix.h"
#include "src/util/rng.h"

namespace s2c2::linalg {
namespace {

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(Matrix, FromDataValidatesSize) {
  EXPECT_NO_THROW(Matrix(2, 2, {1, 2, 3, 4}));
  EXPECT_THROW(Matrix(2, 2, {1, 2, 3}), std::invalid_argument);
}

TEST(Matrix, IdentityMatvecIsIdentityMap) {
  const Matrix id = Matrix::identity(4);
  const Vector x{1.0, -2.0, 3.0, 0.5};
  const Vector y = id.matvec(x);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(Matrix, MatvecMatchesManual) {
  const Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  const Vector y = m.matvec(std::vector<double>{1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(Matrix, MatvecSizeMismatchThrows) {
  const Matrix m(2, 3);
  EXPECT_THROW(m.matvec(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Matrix, MatvecTransposedMatchesExplicitTranspose) {
  util::Rng rng(11);
  const Matrix m = Matrix::random_uniform(7, 5, rng);
  Vector x(7);
  for (auto& v : x) v = rng.normal();
  const Vector a = m.matvec_transposed(x);
  const Vector b = m.transposed().matvec(x);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(Matrix, MatmulAgainstManual) {
  const Matrix a(2, 2, {1, 2, 3, 4});
  const Matrix b(2, 2, {5, 6, 7, 8});
  const Matrix c = a.matmul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatmulIdentityIsNoop) {
  util::Rng rng(13);
  const Matrix a = Matrix::random_normal(6, 6, rng);
  const Matrix c = a.matmul(Matrix::identity(6));
  EXPECT_LT(c.max_abs_diff(a), 1e-12);
}

TEST(Matrix, MatmulBlockedMatchesNaiveOnOddSizes) {
  // Sizes straddling the 64-wide blocking.
  util::Rng rng(17);
  const Matrix a = Matrix::random_uniform(70, 65, rng);
  const Matrix b = Matrix::random_uniform(65, 66, rng);
  const Matrix c = a.matmul(b);
  // Naive check on a sample of entries.
  for (std::size_t r = 0; r < 70; r += 13) {
    for (std::size_t col = 0; col < 66; col += 11) {
      double acc = 0.0;
      for (std::size_t k = 0; k < 65; ++k) acc += a(r, k) * b(k, col);
      EXPECT_NEAR(c(r, col), acc, 1e-9);
    }
  }
}

TEST(Matrix, TransposeInvolution) {
  util::Rng rng(19);
  const Matrix a = Matrix::random_normal(4, 9, rng);
  EXPECT_LT(a.transposed().transposed().max_abs_diff(a), 1e-15);
}

TEST(Matrix, RowBlockExtractsRows) {
  const Matrix a(3, 2, {1, 2, 3, 4, 5, 6});
  const Matrix b = a.row_block(1, 3);
  EXPECT_EQ(b.rows(), 2u);
  EXPECT_DOUBLE_EQ(b(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(b(1, 1), 6.0);
  EXPECT_THROW(a.row_block(2, 4), std::invalid_argument);
}

TEST(Matrix, VstackRoundTripsRowBlocks) {
  util::Rng rng(23);
  const Matrix a = Matrix::random_uniform(6, 3, rng);
  const std::vector<Matrix> blocks{a.row_block(0, 2), a.row_block(2, 6)};
  const Matrix b = Matrix::vstack(blocks);
  EXPECT_LT(b.max_abs_diff(a), 1e-15);
}

TEST(Matrix, VstackRejectsColumnMismatch) {
  const std::vector<Matrix> blocks{Matrix(1, 2), Matrix(1, 3)};
  EXPECT_THROW(Matrix::vstack(blocks), std::invalid_argument);
}

TEST(Matrix, AddScaledAndScale) {
  Matrix a(1, 2, {1, 2});
  const Matrix b(1, 2, {10, 20});
  a.add_scaled(b, 0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 12.0);
  a.scale(2.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 12.0);
}

TEST(Matrix, FrobeniusNorm) {
  const Matrix a(1, 2, {3, 4});
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
}

TEST(VectorOps, DotAxpyNorm) {
  const Vector a{1, 2, 3};
  Vector b{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  axpy(2.0, a, b);
  EXPECT_DOUBLE_EQ(b[0], 6.0);
  EXPECT_DOUBLE_EQ(norm2(std::vector<double>{3.0, 4.0}), 5.0);
  EXPECT_THROW((void)dot(a, std::vector<double>{1.0}), std::invalid_argument);
}

TEST(VectorOps, MaxAbsDiff) {
  const Vector a{1, 2};
  const Vector b{1.5, 1.0};
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 1.0);
}

TEST(Matrix, MaxAbsDiffTreatsNaNAsInfinite) {
  // A NaN anywhere in a product must fail every `error < tol` check that
  // reads this result, on both overloads and wherever the NaN sits.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Vector good{1.0, 2.0, 3.0};
  for (std::size_t i = 0; i < good.size(); ++i) {
    Vector bad = good;
    bad[i] = nan;
    EXPECT_EQ(max_abs_diff(bad, good), inf) << "vector, NaN at " << i;
    EXPECT_EQ(max_abs_diff(good, bad), inf) << "vector, NaN at " << i;
    const Matrix a(1, 3, good);
    const Matrix b(1, 3, bad);
    EXPECT_EQ(a.max_abs_diff(b), inf) << "matrix, NaN at " << i;
    EXPECT_EQ(b.max_abs_diff(a), inf) << "matrix, NaN at " << i;
  }
  // inf - inf is NaN too: two infinite products are not a match.
  EXPECT_EQ(max_abs_diff(Vector{inf}, Vector{inf}), inf);
  // Finite results do not move.
  EXPECT_EQ(max_abs_diff(good, Vector{1.0, 2.5, 3.0}), 0.5);
  EXPECT_EQ(Matrix(1, 3, good).max_abs_diff(Matrix(1, 3, good)), 0.0);
}

TEST(VectorOps, SigmoidBounds) {
  const Vector y = sigmoid(std::vector<double>{-100.0, 0.0, 100.0});
  EXPECT_NEAR(y[0], 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(y[1], 0.5);
  EXPECT_NEAR(y[2], 1.0, 1e-12);
}

// Property sweep: matvec linearity A(ax + by) == a·Ax + b·By over shapes.
class MatvecLinearity : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(MatvecLinearity, Holds) {
  const auto [r, c] = GetParam();
  util::Rng rng(100 + r * 31 + c);
  const Matrix m = Matrix::random_normal(r, c, rng);
  Vector x(c), y(c);
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();
  Vector combo(c);
  for (std::size_t i = 0; i < combo.size(); ++i) {
    combo[i] = 2.0 * x[i] - 3.0 * y[i];
  }
  const Vector lhs = m.matvec(combo);
  Vector rhs = m.matvec(x);
  const Vector my = m.matvec(y);
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    rhs[i] = 2.0 * rhs[i] - 3.0 * my[i];
  }
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    EXPECT_NEAR(lhs[i], rhs[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatvecLinearity,
                         ::testing::Values(std::pair{1, 1}, std::pair{3, 7},
                                           std::pair{16, 16}, std::pair{65, 3},
                                           std::pair{128, 70}));

}  // namespace
}  // namespace s2c2::linalg
