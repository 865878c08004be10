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
// 2-lane tile is SSE2. dense_matmat runs its row blocks on the widest of
// three tiles the CPU supports, checked once per process
// (dispatched_matmat_tile), in this order:
//   - avx512 (AVX-512F): 4 rows x 16 columns in 8 zmm (8-lane)
//     accumulators. A ragged strip of 9-15 columns masks the upper lanes;
//     one of 1-8 columns runs on an 8 x 8 tile instead, masked too; the
//     rows % 4 and rows % 8 rows run on the same tiles with fewer rows.
//     No element takes a scalar path.
//   - avx2: 4 rows x 8 columns in 8 named 4-lane (ymm) accumulators; a
//     ragged remainder of 4-7 columns takes a 4 x 4 step first. The
//     rows % 4 rows and the width % 4 columns stay on the portable tiles.
//   - portable: the 2 x 8 tile on 2-lane vectors, every host.
// Only the SIMD tiles' functions are compiled for their ISA, so the binary
// still runs on any x86-64 host and on other architectures.
// dense_matmat_on runs a named tile, for tests and benches.
//
// No FMA, anywhere: each lane is a separate multiply then add. The AVX2
// functions are compiled with target("avx2"), never "fma". AVX-512F does
// include FMA, and gcc contracts a multiply and an add into one fused
// multiply-add even across statements. So the build turns contraction off
// for the library and everything that links it (-ffp-contract=off in
// CMakeLists.txt), and scripts/check_no_fma.sh fails on any fused
// multiply-add in the built libs2c2.a. gcc does not reassociate FP sums
// without -ffast-math. So all tiles are bitwise identical to the naive
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
/// Row tile of the AVX-512 matmat tile (2 * kMatmatColTile columns).
inline constexpr std::size_t kMatmatAvx512RowTile = 4;

/// The register tiles dense_matmat can run its row blocks on.
enum class MatmatTile {
  kPortable,  // 2 x 8 on 2-lane vectors: every host
  kAvx2,      // 4 x 8 on 4-lane vectors: x86-64 CPUs with AVX2
  kAvx512,    // 4 x 16 (8 x 8 for narrow strips) on 8-lane vectors: AVX-512F
};

/// Whether this CPU can run `tile`. Checked on the first call, then cached.
[[nodiscard]] bool cpu_can_run(MatmatTile tile);

/// The tile dense_matmat runs on this CPU: the first of kAvx512, kAvx2 and
/// kPortable that cpu_can_run.
[[nodiscard]] MatmatTile dispatched_matmat_tile();

/// A tile's name for labels and messages: "avx512 4x16", "avx2 4x8" or
/// "portable 2x8".
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
/// runs the tile's column remainder here, not dense_matvec. Throws
/// std::invalid_argument for a tile the CPU cannot run (cpu_can_run).
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
