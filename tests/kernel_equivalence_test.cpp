// Blocked-kernel equivalence suite: every tiled kernel in
// src/linalg/kernels.h must be BITWISE identical (EXPECT_EQ on doubles,
// never EXPECT_NEAR) to the naive scalar reference it replaced, because
// the PR 5-8 fingerprint goldens hash accounting totals derived from these
// products and double addition is not associative — any reassociation
// would re-pin every golden. The kernels only interleave *different*
// output elements' accumulation chains; each element's own chain stays in
// ascending-column (dense) or CSR-storage (sparse) order.
//
// Coverage: randomized shapes straddling every tile boundary (row tile 4
// for matvec, 2 x 8, 4 x 8, 4 x 16 and 8 x 8 for matmat), odd and
// degenerate sizes, IEEE special values (signed zeros, subnormals,
// infinities, NaN) compared by bit pattern, unaligned row-pointer offsets (sub-range entry points as
// EncodedPartition uses them), dense matvec/matmat and CSR matvec/matmat,
// the Matrix/CsrMatrix wrappers, and concurrent kernel invocations across
// parameterized thread counts (results must be identical at any --jobs).
// The dense matmat sweeps run on the dispatched entry and on each tile
// through kernels::dense_matmat_on, so an AVX-512 host still tests the
// AVX2 and portable tiles its dispatch hides.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "src/linalg/kernels.h"
#include "src/linalg/matrix.h"
#include "src/linalg/sparse.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace s2c2::linalg {

namespace kernels {
// Names a tile parameter in test listings instead of dumping its bytes.
void PrintTo(MatmatTile tile, std::ostream* os) {
  *os << matmat_tile_name(tile);
}
}  // namespace kernels

namespace {

// Naive references: the exact pre-kernel loops, one scalar accumulator
// chain per output element.

std::vector<double> naive_dense_matvec(const double* a, std::size_t rows,
                                       std::size_t cols, const double* x) {
  std::vector<double> y(rows, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols; ++c) acc += a[r * cols + c] * x[c];
    y[r] = acc;
  }
  return y;
}

std::vector<double> naive_dense_matmat(const double* a, std::size_t rows,
                                       std::size_t cols, const double* x,
                                       std::size_t width) {
  std::vector<double> y(rows * width, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < width; ++j) {
      double acc = 0.0;
      for (std::size_t c = 0; c < cols; ++c) {
        acc += a[r * cols + c] * x[c * width + j];
      }
      y[r * width + j] = acc;
    }
  }
  return y;
}

std::vector<double> naive_csr_matvec(const CsrMatrix& m, std::size_t r0,
                                     std::size_t r1, const double* x) {
  const auto rp = m.row_ptr();
  const auto ci = m.col_idx();
  const auto vals = m.values();
  std::vector<double> y(r1 - r0, 0.0);
  for (std::size_t r = r0; r < r1; ++r) {
    double acc = 0.0;
    for (std::size_t p = rp[r]; p < rp[r + 1]; ++p) {
      acc += vals[p] * x[ci[p]];
    }
    y[r - r0] = acc;
  }
  return y;
}

std::vector<double> naive_csr_matmat(const CsrMatrix& m, std::size_t r0,
                                     std::size_t r1, const double* x,
                                     std::size_t width) {
  const auto rp = m.row_ptr();
  const auto ci = m.col_idx();
  const auto vals = m.values();
  std::vector<double> y((r1 - r0) * width, 0.0);
  for (std::size_t r = r0; r < r1; ++r) {
    for (std::size_t j = 0; j < width; ++j) {
      double acc = 0.0;
      for (std::size_t p = rp[r]; p < rp[r + 1]; ++p) {
        acc += vals[p] * x[ci[p] * width + j];
      }
      y[(r - r0) * width + j] = acc;
    }
  }
  return y;
}

std::vector<double> random_values(std::size_t n, util::Rng& rng) {
  std::vector<double> v(n);
  // Mixed magnitudes so reassociation would actually change the sums.
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = rng.normal() * (i % 5 == 0 ? 1e6 : (i % 3 == 0 ? 1e-6 : 1.0));
  }
  return v;
}

CsrMatrix random_csr(std::size_t rows, std::size_t cols, double density,
                     util::Rng& rng) {
  std::vector<Triplet> trips;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.uniform(0.0, 1.0) < density) {
        trips.push_back({r, c, rng.normal()});
      }
    }
  }
  return CsrMatrix(rows, cols, std::move(trips));
}

// Shapes straddling the tile boundaries (kMatvecRowTile = 4,
// kMatmatRowTile x kMatmatColTile = 2 x 8, kMatmatAvx2RowTile = 4, the
// AVX-512 4 x 16 and 8 x 8 tiles) plus odd/degenerate sizes.
struct Shape {
  std::size_t rows, cols;
};
// {17, 512} is one engine partition's chunk run in the serve-b16 shape.
const Shape kShapes[] = {{1, 1},    {1, 7},  {3, 5},   {4, 4},   {5, 9},
                         {7, 16},   {8, 8},  {9, 1},   {13, 3},  {16, 17},
                         {17, 512}, {31, 8}, {32, 33}, {63, 24}, {64, 5}};
const std::size_t kWidths[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 24, 32};

// A double's bit pattern, with every NaN folded to one: NaN payloads and
// signs depend on operand order inside the FPU, and no caller reads them.
std::uint64_t bits_nan_folded(double v) {
  return std::isnan(v) ? 0x7ff8000000000000ull
                       : std::bit_cast<std::uint64_t>(v);
}

// random_values with IEEE corner cases mixed in: signed zeros and
// subnormals in ~1 entry of 5, and about one infinity or NaN per `chain`
// entries, so a length-`chain` dot product may come out finite, infinite
// or NaN.
std::vector<double> special_values(std::size_t n, std::size_t chain,
                                   util::Rng& rng) {
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double finite[] = {0.0, -0.0, kDenorm, -kDenorm, 1e-310, -3e-320};
  const double nonfinite[] = {kInf, -kInf,
                              std::numeric_limits<double>::quiet_NaN()};
  std::vector<double> v = random_values(n, rng);
  for (double& e : v) {
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.2) {
      e = finite[rng.uniform_int(0, 5)];
    } else if (u < 0.2 + 1.0 / static_cast<double>(chain)) {
      e = nonfinite[rng.uniform_int(0, 2)];
    }
  }
  return v;
}

TEST(KernelEquivalence, DenseMatvecBitwiseMatchesNaive) {
  util::Rng rng(0xA11CE);
  for (const Shape s : kShapes) {
    const std::vector<double> a = random_values(s.rows * s.cols, rng);
    const std::vector<double> x = random_values(s.cols, rng);
    std::vector<double> y(s.rows, -1.0);
    kernels::dense_matvec(a.data(), s.rows, s.cols, x.data(), y.data());
    const std::vector<double> ref =
        naive_dense_matvec(a.data(), s.rows, s.cols, x.data());
    for (std::size_t r = 0; r < s.rows; ++r) {
      EXPECT_EQ(y[r], ref[r]) << s.rows << "x" << s.cols << " row " << r;
    }
  }
}

// A dense matmat entry point under test: the dispatched kernel or one tile.
using MatmatFn = std::function<void(const double*, std::size_t, std::size_t,
                                    const double*, std::size_t, double*)>;

void expect_matmat_matches_naive(const MatmatFn& matmat) {
  util::Rng rng(0xB0B);
  for (const Shape s : kShapes) {
    const std::vector<double> a = random_values(s.rows * s.cols, rng);
    for (const std::size_t w : kWidths) {
      const std::vector<double> x = random_values(s.cols * w, rng);
      std::vector<double> y(s.rows * w, -1.0);
      matmat(a.data(), s.rows, s.cols, x.data(), w, y.data());
      const std::vector<double> ref =
          naive_dense_matmat(a.data(), s.rows, s.cols, x.data(), w);
      for (std::size_t i = 0; i < y.size(); ++i) {
        EXPECT_EQ(y[i], ref[i])
            << s.rows << "x" << s.cols << " b=" << w << " i=" << i;
      }
    }
  }
}

// Vector lanes must round, overflow and propagate exactly like the scalar
// chain: -0.0 vs +0.0, subnormal sums, inf - inf and NaN all compared by
// bit pattern (EXPECT_EQ on doubles would miss a signed-zero change).
void expect_matmat_special_values_match_naive(const MatmatFn& matmat) {
  util::Rng rng(0x5EC1A1);
  const Shape shapes[] = {{1, 9}, {3, 40}, {5, 17}, {17, 512}, {33, 64}};
  std::size_t nan_out = 0, inf_out = 0, subnormal_out = 0;
  for (const Shape s : shapes) {
    std::vector<double> a = special_values(s.rows * s.cols, s.cols, rng);
    // Every third row is scaled into the subnormal range, so its products
    // underflow gradually and its finite sums stay subnormal.
    for (std::size_t r = 1; r < s.rows; r += 3) {
      for (std::size_t c = 0; c < s.cols; ++c) a[r * s.cols + c] *= 1e-318;
    }
    for (const std::size_t w : {2u, 7u, 8u, 9u, 16u, 24u, 32u}) {
      const std::vector<double> x = special_values(s.cols * w, s.cols, rng);
      std::vector<double> y(s.rows * w, -1.0);
      matmat(a.data(), s.rows, s.cols, x.data(), w, y.data());
      const std::vector<double> ref =
          naive_dense_matmat(a.data(), s.rows, s.cols, x.data(), w);
      for (std::size_t i = 0; i < y.size(); ++i) {
        EXPECT_EQ(bits_nan_folded(y[i]), bits_nan_folded(ref[i]))
            << s.rows << "x" << s.cols << " b=" << w << " i=" << i << ": "
            << y[i] << " vs " << ref[i];
        nan_out += std::isnan(ref[i]) ? 1 : 0;
        inf_out += std::isinf(ref[i]) ? 1 : 0;
        subnormal_out += std::fpclassify(ref[i]) == FP_SUBNORMAL ? 1 : 0;
      }
    }
  }
  // The draw must actually reach every class it claims to cover.
  EXPECT_GT(nan_out, 0u);
  EXPECT_GT(inf_out, 0u);
  EXPECT_GT(subnormal_out, 0u);
}

// The cross-kernel invariant the decoder relies on: column j of a panel
// product is the matvec of panel column j, bit for bit.
void expect_matmat_columns_match_matvec(const MatmatFn& matmat) {
  util::Rng rng(0xC01);
  const std::size_t rows = 23, cols = 19, width = 11;
  const std::vector<double> a = random_values(rows * cols, rng);
  const std::vector<double> x = random_values(cols * width, rng);
  std::vector<double> y(rows * width, 0.0);
  matmat(a.data(), rows, cols, x.data(), width, y.data());
  for (std::size_t j = 0; j < width; ++j) {
    std::vector<double> xj(cols);
    for (std::size_t c = 0; c < cols; ++c) xj[c] = x[c * width + j];
    std::vector<double> yj(rows, 0.0);
    kernels::dense_matvec(a.data(), rows, cols, xj.data(), yj.data());
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(y[r * width + j], yj[r]) << "col " << j << " row " << r;
    }
  }
}

TEST(KernelEquivalence, DenseMatmatBitwiseMatchesNaive) {
  expect_matmat_matches_naive(kernels::dense_matmat);
}

TEST(KernelEquivalence, DenseMatmatSpecialValuesMatchNaiveBitPatterns) {
  expect_matmat_special_values_match_naive(kernels::dense_matmat);
}

TEST(KernelEquivalence, MatmatColumnsMatchMatvecOfPanelColumns) {
  expect_matmat_columns_match_matvec(kernels::dense_matmat);
}

// The same sweeps on each tile by name. The dispatch runs one tile per
// host, so without these an AVX-512 host would never test the AVX2 and
// portable tiles. A tile the CPU cannot run is skipped, not passed.
class MatmatTileTest : public ::testing::TestWithParam<kernels::MatmatTile> {
 protected:
  void SetUp() override {
    if (!kernels::cpu_can_run(GetParam())) {
      GTEST_SKIP() << "this CPU cannot run the "
                   << kernels::matmat_tile_name(GetParam()) << " tile";
    }
  }

  MatmatFn matmat() const {
    return [tile = GetParam()](const double* a, std::size_t rows,
                               std::size_t cols, const double* x,
                               std::size_t width, double* y) {
      kernels::dense_matmat_on(tile, a, rows, cols, x, width, y);
    };
  }
};

TEST_P(MatmatTileTest, BitwiseMatchesNaive) {
  expect_matmat_matches_naive(matmat());
}

TEST_P(MatmatTileTest, SpecialValuesMatchNaiveBitPatterns) {
  expect_matmat_special_values_match_naive(matmat());
}

TEST_P(MatmatTileTest, ColumnsMatchMatvecOfPanelColumns) {
  expect_matmat_columns_match_matvec(matmat());
}

TEST_P(MatmatTileTest, RowAndColumnRemaindersMatchNaive) {
  // Rows 1-17 put every rows % 8, % 4 and % 2 remainder after a full row
  // block. Widths 1-17, 24, 32 and 33 put every width % 8 tail beside the
  // 8-column tiles and every masked lane count of the AVX-512 strips
  // (1-8 lanes of an 8-column strip, 9-15 columns of a 16-column one)
  // beside full strips. Each case runs once on random values and once on
  // special values, so signed zeros, subnormals, infinities and NaN pass
  // through the masked lanes too; results are compared by bit pattern.
  util::Rng rng(0x4A8);
  std::vector<std::size_t> widths;
  for (std::size_t w = 1; w <= 17; ++w) widths.push_back(w);
  widths.insert(widths.end(), {24, 32, 33});
  const std::size_t cols = 13;
  for (std::size_t rows = 1; rows <= 17; ++rows) {
    for (const std::size_t w : widths) {
      for (const bool special : {false, true}) {
        const std::vector<double> a =
            special ? special_values(rows * cols, cols, rng)
                    : random_values(rows * cols, rng);
        const std::vector<double> x =
            special ? special_values(cols * w, cols, rng)
                    : random_values(cols * w, rng);
        std::vector<double> y(rows * w, -1.0);
        matmat()(a.data(), rows, cols, x.data(), w, y.data());
        const std::vector<double> ref =
            naive_dense_matmat(a.data(), rows, cols, x.data(), w);
        for (std::size_t i = 0; i < y.size(); ++i) {
          EXPECT_EQ(bits_nan_folded(y[i]), bits_nan_folded(ref[i]))
              << rows << "x" << cols << " b=" << w << " i=" << i
              << (special ? " special" : "") << ": " << y[i] << " vs "
              << ref[i];
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tiles, MatmatTileTest,
    ::testing::Values(kernels::MatmatTile::kPortable,
                      kernels::MatmatTile::kAvx2,
                      kernels::MatmatTile::kAvx512),
    [](const ::testing::TestParamInfo<kernels::MatmatTile>& info) {
      // The name's first word: "portable", "avx2" or "avx512".
      const std::string name = kernels::matmat_tile_name(info.param);
      return name.substr(0, name.find(' '));
    });

TEST(KernelEquivalence, CsrMatvecBitwiseMatchesNaiveIncludingSubRanges) {
  util::Rng rng(0xD0C);
  for (const double density : {0.05, 0.3, 0.9}) {
    const CsrMatrix m = random_csr(37, 29, density, rng);
    const std::vector<double> x = random_values(m.cols(), rng);
    // Full matrix and unaligned row sub-ranges (the EncodedPartition
    // chunk-entry convention: row_ptr() + r0).
    const std::size_t ranges[][2] = {{0, 37}, {0, 1}, {5, 13}, {30, 37},
                                     {17, 18}};
    for (const auto& range : ranges) {
      const std::size_t r0 = range[0], r1 = range[1];
      std::vector<double> y(r1 - r0, -1.0);
      kernels::csr_matvec(m.row_ptr().data() + r0, r1 - r0,
                          m.col_idx().data(), m.values().data(), x.data(),
                          y.data());
      const std::vector<double> ref = naive_csr_matvec(m, r0, r1, x.data());
      for (std::size_t i = 0; i < y.size(); ++i) {
        EXPECT_EQ(y[i], ref[i])
            << "density " << density << " rows [" << r0 << "," << r1 << ")";
      }
    }
  }
}

TEST(KernelEquivalence, CsrMatmatBitwiseMatchesNaive) {
  util::Rng rng(0xE77);
  const CsrMatrix m = random_csr(41, 23, 0.2, rng);
  for (const std::size_t w : kWidths) {
    const std::vector<double> x = random_values(m.cols() * w, rng);
    std::vector<double> y(m.rows() * w, -1.0);
    kernels::csr_matmat(m.row_ptr().data(), m.rows(), m.col_idx().data(),
                        m.values().data(), x.data(), w, y.data());
    const std::vector<double> ref =
        naive_csr_matmat(m, 0, m.rows(), x.data(), w);
    for (std::size_t i = 0; i < y.size(); ++i) {
      EXPECT_EQ(y[i], ref[i]) << "b=" << w << " i=" << i;
    }
  }
}

TEST(KernelEquivalence, WidthOneMatmatIsTheMatvec) {
  // A one-column panel takes the matvec kernel: rows 1-9 cross every
  // matvec row-tile tail and every matmat row-pair tail.
  util::Rng rng(0xF1);
  for (std::size_t rows = 1; rows <= 9; ++rows) {
    for (const std::size_t cols : {1u, 6u, 17u}) {
      const std::vector<double> a = random_values(rows * cols, rng);
      const std::vector<double> x = random_values(cols, rng);
      std::vector<double> y(rows, -1.0), ref(rows, -2.0);
      kernels::dense_matmat(a.data(), rows, cols, x.data(), 1, y.data());
      kernels::dense_matvec(a.data(), rows, cols, x.data(), ref.data());
      for (std::size_t r = 0; r < rows; ++r) {
        EXPECT_EQ(y[r], ref[r]) << "dense " << rows << "x" << cols;
      }

      const CsrMatrix m = random_csr(rows, cols, 0.4, rng);
      std::vector<double> ys(rows, -1.0), refs(rows, -2.0);
      kernels::csr_matmat(m.row_ptr().data(), rows, m.col_idx().data(),
                          m.values().data(), x.data(), 1, ys.data());
      kernels::csr_matvec(m.row_ptr().data(), rows, m.col_idx().data(),
                          m.values().data(), x.data(), refs.data());
      for (std::size_t r = 0; r < rows; ++r) {
        EXPECT_EQ(ys[r], refs[r]) << "csr " << rows << "x" << cols;
      }
    }
  }
}

TEST(KernelEquivalence, MatrixWrappersUseTheSameChains) {
  // Matrix::matvec/matmat and the _into forms must all emit the kernel
  // results — no wrapper may introduce its own arithmetic.
  util::Rng rng(0xF00);
  const Matrix a = Matrix::random_uniform(21, 14, rng);
  const std::vector<double> x = random_values(14 * 5, rng);
  const std::vector<double> ref =
      naive_dense_matmat(a.data().data(), 21, 14, x.data(), 5);

  Matrix panel(14, 5);
  for (std::size_t i = 0; i < x.size(); ++i) {
    panel(i / 5, i % 5) = x[i];
  }
  const Matrix y = a.matmat(panel);
  std::vector<double> y_into(21 * 5, -1.0);
  a.matmat_into(x, 5, y_into);
  for (std::size_t r = 0; r < 21; ++r) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(y(r, j), ref[r * 5 + j]);
      EXPECT_EQ(y_into[r * 5 + j], ref[r * 5 + j]);
    }
  }

  std::vector<double> x0(14);
  for (std::size_t c = 0; c < 14; ++c) x0[c] = x[c * 5];
  const Vector yv = a.matvec(x0);
  std::vector<double> yv_into(21, -1.0);
  a.matvec_into(x0, yv_into);
  const std::vector<double> vref =
      naive_dense_matvec(a.data().data(), 21, 14, x0.data());
  for (std::size_t r = 0; r < 21; ++r) {
    EXPECT_EQ(yv[r], vref[r]);
    EXPECT_EQ(yv_into[r], vref[r]);
  }
}

class KernelThreadedTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelThreadedTest, ConcurrentInvocationsAreBitIdentical) {
  // The kernels are pure functions of their inputs; hammering one shared
  // operator from `jobs` threads at once must reproduce the serial result
  // bit for bit in every slot — the determinism contract the harness
  // relies on at any --jobs. The parallel pass runs first, so in a fresh
  // process several threads reach dense_matmat's one-time CPU check at
  // once; width 16 and 33 rows run the 8-column tiles on 4-row blocks.
  const std::size_t jobs = GetParam();
  util::Rng rng(0xBEEF);
  const std::size_t rows = 33, cols = 27, width = 16;
  const std::vector<double> a = random_values(rows * cols, rng);
  std::vector<std::vector<double>> inputs;
  for (int i = 0; i < 24; ++i) {
    inputs.push_back(random_values(cols * width, rng));
  }
  std::vector<std::vector<double>> parallel(inputs.size());
  util::parallel_for(inputs.size(), jobs, [&](std::size_t i) {
    parallel[i].assign(rows * width, 0.0);
    kernels::dense_matmat(a.data(), rows, cols, inputs[i].data(), width,
                          parallel[i].data());
  });
  std::vector<std::vector<double>> serial(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    serial[i].assign(rows * width, 0.0);
    kernels::dense_matmat(a.data(), rows, cols, inputs[i].data(), width,
                          serial[i].data());
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "input " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Jobs, KernelThreadedTest,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace s2c2::linalg
