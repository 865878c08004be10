// Tests for MDS generator matrices: systematic layout, the paper's worked
// example, and the any-k-of-n invertibility property for both parity
// families.
#include <gtest/gtest.h>

#include <ostream>

#include "src/coding/generator_matrix.h"
#include "src/linalg/lu.h"
#include "src/util/rng.h"

namespace s2c2::coding {
namespace {

TEST(Generator, SystematicTopIsIdentity) {
  const GeneratorMatrix g(6, 4, ParityKind::kGaussian);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(g.coeff(i, j), i == j ? 1.0 : 0.0);
    }
    EXPECT_TRUE(g.is_systematic_row(i));
  }
  EXPECT_FALSE(g.is_systematic_row(4));
}

TEST(Generator, PaperWorkedExample42Vandermonde) {
  // Paper §2: worker 3 stores A1 + A2, worker 4 stores A1 + 2·A2.
  const GeneratorMatrix g(4, 2, ParityKind::kVandermonde);
  EXPECT_DOUBLE_EQ(g.coeff(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(g.coeff(2, 1), 1.0);
  EXPECT_DOUBLE_EQ(g.coeff(3, 0), 1.0);
  EXPECT_DOUBLE_EQ(g.coeff(3, 1), 2.0);
}

TEST(Generator, RejectsBadShape) {
  EXPECT_THROW(GeneratorMatrix(2, 3), std::invalid_argument);
  EXPECT_THROW(GeneratorMatrix(3, 0), std::invalid_argument);
}

TEST(Generator, SubmatrixPicksRows) {
  const GeneratorMatrix g(5, 3, ParityKind::kVandermonde);
  const std::vector<std::size_t> rows{0, 4};
  const linalg::Matrix sub = g.submatrix(rows);
  EXPECT_EQ(sub.rows(), 2u);
  EXPECT_DOUBLE_EQ(sub(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(sub(1, 0), g.coeff(4, 0));
}

TEST(Generator, DeterministicForSeed) {
  const GeneratorMatrix a(6, 3, ParityKind::kGaussian, 42);
  const GeneratorMatrix b(6, 3, ParityKind::kGaussian, 42);
  EXPECT_LT(a.matrix().max_abs_diff(b.matrix()), 1e-15);
}

struct MdsParam {
  std::size_t n;
  std::size_t k;
  ParityKind kind;
};

// Names each case from its fields. Without it gtest dumps the struct's
// bytes, padding included, and the discovered test names change from
// build to build.
void PrintTo(const MdsParam& p, std::ostream* os) {
  *os << "n" << p.n << " k" << p.k << " "
      << (p.kind == ParityKind::kGaussian ? "gaussian" : "vandermonde");
}

class AnyKInvertible : public ::testing::TestWithParam<MdsParam> {};

TEST_P(AnyKInvertible, RandomSubsetsInvert) {
  const auto [n, k, kind] = GetParam();
  const GeneratorMatrix g(n, k, kind);
  util::Rng rng(3000 + n * 13 + k);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    rng.shuffle(all);
    all.resize(k);
    std::sort(all.begin(), all.end());
    // Invertibility: LU must not throw and solves must have low residual.
    const linalg::Matrix sub = g.submatrix(all);
    const linalg::LuFactorization lu(sub);
    std::vector<double> b(k);
    for (auto& v : b) v = rng.normal();
    const auto x = lu.solve(b);
    const auto back = sub.matvec(x);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_NEAR(back[i], b[i], 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, AnyKInvertible,
    ::testing::Values(MdsParam{4, 2, ParityKind::kVandermonde},
                      MdsParam{6, 4, ParityKind::kVandermonde},
                      MdsParam{12, 10, ParityKind::kVandermonde},
                      MdsParam{4, 2, ParityKind::kGaussian},
                      MdsParam{12, 6, ParityKind::kGaussian},
                      MdsParam{12, 10, ParityKind::kGaussian},
                      MdsParam{50, 40, ParityKind::kGaussian}));

}  // namespace
}  // namespace s2c2::coding
