// Blocked, SIMD-friendly dense and CSR kernels — the worker-side hot
// path behind Matrix::matvec_into / matmat_into, CsrMatrix, and
// EncodedPartition::{matvec,matmat}_rows.
//
// The contract that makes these drop-in under the fingerprint goldens:
// every kernel preserves the naive loops' PER-OUTPUT-ELEMENT accumulation
// order. Each output element is still one scalar chain
//   acc = 0; for c ascending: acc += a[r,c] * x[c,j]
// (CSR rows accumulate in CSR storage order). Tiling only interleaves
// *different* elements' chains — 4 output rows at once for matvec
// (independent accumulators break the add-latency dependence chain the
// naive kernel serializes on), 2 rows x 8 RHS columns for matmat (one
// pass over the row pair instead of `width`). The matmat tile is written
// with GCC/Clang vector types: 8 named 2-lane accumulators, one per
// (row, column pair), which the compiler keeps in registers. Plain
// fixed-length loops over `double acc[8]` arrays do not stay there: gcc 12
// -O3 vectorizes them across the row pair, keeps all 16 accumulators on
// the stack, and runs no faster than `width` matvecs.
//
// Run-time dispatch: the library builds for baseline x86-64, where the
// 2-lane tile is SSE2. On a CPU with AVX2, dense_matmat runs row blocks
// of 4 on a 4 x 8 tile of 8 named 4-lane (ymm) accumulators instead; the
// rows % 4 rows and the width % 8 columns stay on the portable tiles.
// The CPU is checked once per process (dispatched_matmat_tile), and only
// that tile's functions are compiled for AVX2, so the binary still runs
// on any x86-64 host and on other architectures.
//
// No FMA, anywhere: each lane is a separate multiply then add, and the
// AVX2 functions are compiled with target("avx2"), never "fma", so no
// compiler can contract the pair. gcc does not reassociate FP sums
// without -ffast-math. So both tiles are bitwise identical to the naive
// reference and to each other — tests/kernel_equivalence_test.cpp holds
// every kernel, and each tile, to it, special values included.
//
// The kernels are serial and pure, so concurrent calls on shared inputs
// are safe and bit-identical. Intra-round parallelism lives one level up,
// in the engine's chunk fan-out (src/core/engine.h). Tiling parameters
// and their measured effect: docs/PERFORMANCE.md.
#pragma once

#include <cstddef>

// GCC and Clang only (kernels.cpp uses their vector types too).
#define S2C2_RESTRICT __restrict__

namespace s2c2::linalg::kernels {

/// Row tile for dense matvec: independent accumulator chains per tile.
inline constexpr std::size_t kMatvecRowTile = 4;
/// RHS-column tile for matmat: contiguous in the row-major panel.
inline constexpr std::size_t kMatmatColTile = 8;
/// Row tile for dense matmat (paired with kMatmatColTile accumulators).
inline constexpr std::size_t kMatmatRowTile = 2;
/// Row tile of the AVX2 matmat tile (also kMatmatColTile columns).
inline constexpr std::size_t kMatmatAvx2RowTile = 4;

/// The register tiles dense_matmat can run its row blocks on.
enum class MatmatTile {
  kPortable,  // 2 x 8 on 2-lane vectors: every host
  kAvx2,      // 4 x 8 on 4-lane vectors: x86-64 CPUs with AVX2
};

/// The tile dense_matmat runs on this CPU: kAvx2 where the CPU supports
/// AVX2, else kPortable. Checked on the first call, then cached.
[[nodiscard]] MatmatTile dispatched_matmat_tile();

/// A tile's name for labels and messages: "avx2 4x8" or "portable 2x8".
[[nodiscard]] const char* matmat_tile_name(MatmatTile tile);

/// y[0..rows) = A * x for row-major A (rows x cols). y must not alias A/x.
void dense_matvec(const double* S2C2_RESTRICT a, std::size_t rows,
                  std::size_t cols, const double* S2C2_RESTRICT x,
                  double* S2C2_RESTRICT y);

/// Y = A * X for row-major A (rows x cols) and row-major panel X
/// (cols x width); Y is rows x width. Column j of Y is bitwise the
/// dense_matvec of column j of X; width 1 runs dense_matvec itself.
void dense_matmat(const double* S2C2_RESTRICT a, std::size_t rows,
                  std::size_t cols, const double* S2C2_RESTRICT x,
                  std::size_t width, double* S2C2_RESTRICT y);

/// Internal entry for tests and benches: dense_matmat's row-block loop on
/// a named tile instead of the dispatched one, with the same bits. Width 1
/// runs the scalar column tail here, not dense_matvec. Throws
/// std::invalid_argument for kAvx2 on a CPU without AVX2.
void dense_matmat_on(MatmatTile tile, const double* S2C2_RESTRICT a,
                     std::size_t rows, std::size_t cols,
                     const double* S2C2_RESTRICT x, std::size_t width,
                     double* S2C2_RESTRICT y);

/// y[0..rows) = A * x for `rows` CSR rows. `row_ptr` points at the first
/// row's entry and holds rows+1 offsets into the *absolute* col_idx /
/// values arrays — pass `row_ptr() + r0` to run a row sub-range.
void csr_matvec(const std::size_t* S2C2_RESTRICT row_ptr, std::size_t rows,
                const std::size_t* S2C2_RESTRICT col_idx,
                const double* S2C2_RESTRICT values,
                const double* S2C2_RESTRICT x, double* S2C2_RESTRICT y);

/// Tiled CSR panel product: Y (rows x width) = A * X (cols x width),
/// one pass over each row's nonzeros per column tile instead of one pass
/// per RHS column. Same row sub-range convention as csr_matvec; width 1
/// runs csr_matvec itself.
void csr_matmat(const std::size_t* S2C2_RESTRICT row_ptr, std::size_t rows,
                const std::size_t* S2C2_RESTRICT col_idx,
                const double* S2C2_RESTRICT values,
                const double* S2C2_RESTRICT x, std::size_t width,
                double* S2C2_RESTRICT y);

}  // namespace s2c2::linalg::kernels
