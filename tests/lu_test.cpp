// Unit tests for the partial-pivot LU factorization.
#include <gtest/gtest.h>

#include <stdexcept>

#include "src/linalg/lu.h"
#include "src/util/rng.h"

namespace s2c2::linalg {
namespace {

TEST(Lu, SolvesHandSystem) {
  // 2x + y = 5 ; x + 3y = 10  ->  x = 1, y = 3.
  const Matrix a(2, 2, {2, 1, 1, 3});
  const LuFactorization lu(a);
  const Vector x = lu.solve(std::vector<double>{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, RejectsNonSquare) {
  EXPECT_THROW({ LuFactorization lu(Matrix(2, 3)); }, std::invalid_argument);
}

TEST(Lu, SingularThrowsDomainError) {
  const Matrix a(2, 2, {1, 2, 2, 4});
  EXPECT_THROW({ LuFactorization lu(a); }, std::domain_error);
}

TEST(Lu, PermutationMatrixSolve) {
  // Requires pivoting: zero on the leading diagonal.
  const Matrix a(2, 2, {0, 1, 1, 0});
  const LuFactorization lu(a);
  const Vector x = lu.solve(std::vector<double>{3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, SolveInplaceMultipleRhs) {
  util::Rng rng(5);
  const Matrix a = Matrix::random_normal(5, 5, rng);
  const Matrix b = Matrix::random_normal(5, 3, rng);
  const LuFactorization lu(a);
  Matrix x = b;
  lu.solve_inplace(x.mutable_data(), x.cols());
  const Matrix residual = a.matmul(x);
  EXPECT_LT(residual.max_abs_diff(b), 1e-9);
}

TEST(Lu, SolveInplaceLayoutValidation) {
  const Matrix a = Matrix::identity(3);
  const LuFactorization lu(a);
  std::vector<double> rhs(5, 1.0);  // not 3 * width for any width
  EXPECT_THROW(lu.solve_inplace(rhs, 2), std::invalid_argument);
}

// Property sweep: random systems solve to small residual across sizes.
class LuRandomSolve : public ::testing::TestWithParam<int> {};

TEST_P(LuRandomSolve, ResidualSmall) {
  const int n = GetParam();
  util::Rng rng(1000 + n);
  const Matrix a = Matrix::random_normal(n, n, rng);
  Vector b(n);
  for (auto& v : b) v = rng.normal();
  const LuFactorization lu(a);
  const Vector x = lu.solve(b);
  const Vector ax = a.matvec(x);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(ax[i], b[i], 1e-7) << "size " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomSolve,
                         ::testing::Values(1, 2, 3, 7, 12, 25, 40, 64));

}  // namespace
}  // namespace s2c2::linalg
