#include "src/linalg/kernels.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "src/util/require.h"

namespace s2c2::linalg::kernels {

namespace {

// One dense matvec row tile: kMatvecRowTile independent accumulator
// chains share each x[c] load; every chain is the naive ascending-c sum.
inline void matvec_rows4(const double* S2C2_RESTRICT a, std::size_t cols,
                         const double* S2C2_RESTRICT x,
                         double* S2C2_RESTRICT y) {
  const double* S2C2_RESTRICT a0 = a;
  const double* S2C2_RESTRICT a1 = a + cols;
  const double* S2C2_RESTRICT a2 = a + 2 * cols;
  const double* S2C2_RESTRICT a3 = a + 3 * cols;
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  for (std::size_t c = 0; c < cols; ++c) {
    const double xc = x[c];
    acc0 += a0[c] * xc;
    acc1 += a1[c] * xc;
    acc2 += a2[c] * xc;
    acc3 += a3[c] * xc;
  }
  y[0] = acc0;
  y[1] = acc1;
  y[2] = acc2;
  y[3] = acc3;
}

inline void matvec_rows_tail(const double* S2C2_RESTRICT a, std::size_t rows,
                             std::size_t cols, const double* S2C2_RESTRICT x,
                             double* S2C2_RESTRICT y) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* S2C2_RESTRICT row = a + r * cols;
    double acc = 0.0;
    for (std::size_t c = 0; c < cols; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}


// Two adjacent panel columns in one 16-byte vector register (GCC/Clang
// vector extension; SSE2 on x86-64). Lane-wise `*` and `+` lower to one
// mulpd and one addpd, so each lane rounds exactly like the scalar chain
// it replaces.
typedef double V2 __attribute__((vector_size(16)));

inline V2 load2(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof v);  // panel rows start at any double offset
  return v;
}

inline void store2(double* p, V2 v) { std::memcpy(p, &v, sizeof v); }

inline V2 splat(double s) { return V2{s, s}; }

// acc + b * x as a rounded multiply, then a rounded add: the product is
// its own statement, so no compiler contracts the pair into an FMA.
inline V2 madd(V2 acc, V2 b, V2 x) {
  const V2 prod = b * x;
  return acc + prod;
}

static_assert(kMatmatColTile == 8, "the matmat tiles hold 4 lane pairs");

// One (row pair) x (8 RHS columns) matmat tile: a single ascending-c pass
// over both rows. The 16 accumulators are 8 named lane pairs, so they stay
// in registers; each step broadcasts a0[c] and a1[c] and loads the 8-column
// panel slice once for both rows. Each lane is the naive ascending-c sum
// for its output element.
inline void matmat_rows2_tile(const double* S2C2_RESTRICT a0,
                              const double* S2C2_RESTRICT a1,
                              std::size_t cols, const double* S2C2_RESTRICT x,
                              std::size_t width, double* S2C2_RESTRICT y0,
                              double* S2C2_RESTRICT y1) {
  V2 r0j0 = {}, r0j2 = {}, r0j4 = {}, r0j6 = {};
  V2 r1j0 = {}, r1j2 = {}, r1j4 = {}, r1j6 = {};
  for (std::size_t c = 0; c < cols; ++c) {
    const double* S2C2_RESTRICT xc = x + c * width;
    const V2 x0 = load2(xc), x2 = load2(xc + 2);
    const V2 x4 = load2(xc + 4), x6 = load2(xc + 6);
    const V2 b0 = splat(a0[c]);
    r0j0 = madd(r0j0, b0, x0);
    r0j2 = madd(r0j2, b0, x2);
    r0j4 = madd(r0j4, b0, x4);
    r0j6 = madd(r0j6, b0, x6);
    const V2 b1 = splat(a1[c]);
    r1j0 = madd(r1j0, b1, x0);
    r1j2 = madd(r1j2, b1, x2);
    r1j4 = madd(r1j4, b1, x4);
    r1j6 = madd(r1j6, b1, x6);
  }
  store2(y0, r0j0);
  store2(y0 + 2, r0j2);
  store2(y0 + 4, r0j4);
  store2(y0 + 6, r0j6);
  store2(y1, r1j0);
  store2(y1 + 2, r1j2);
  store2(y1 + 4, r1j4);
  store2(y1 + 6, r1j6);
}

// The odd last row of a matmat: the same tile with 4 lane pairs.
inline void matmat_row1_tile(const double* S2C2_RESTRICT a0, std::size_t cols,
                             const double* S2C2_RESTRICT x, std::size_t width,
                             double* S2C2_RESTRICT y0) {
  V2 j0 = {}, j2 = {}, j4 = {}, j6 = {};
  for (std::size_t c = 0; c < cols; ++c) {
    const double* S2C2_RESTRICT xc = x + c * width;
    const V2 b0 = splat(a0[c]);
    j0 = madd(j0, b0, load2(xc));
    j2 = madd(j2, b0, load2(xc + 2));
    j4 = madd(j4, b0, load2(xc + 4));
    j6 = madd(j6, b0, load2(xc + 6));
  }
  store2(y0, j0);
  store2(y0 + 2, j2);
  store2(y0 + 4, j4);
  store2(y0 + 6, j6);
}

#if defined(__x86_64__)
// Four adjacent panel columns in one 32-byte ymm register. Every function
// that takes, returns or holds a V4 is compiled for AVX2 and never for
// FMA, so `*` and `+` lower to one vmulpd and one vaddpd: the same two
// roundings per lane as the 2-lane tile and the scalar chain.
typedef double V4 __attribute__((vector_size(32)));

__attribute__((target("avx2"))) inline V4 load4(const double* p) {
  V4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

__attribute__((target("avx2"))) inline void store4(double* p, V4 v) {
  std::memcpy(p, &v, sizeof v);
}

__attribute__((target("avx2"))) inline V4 splat4(double s) {
  return V4{s, s, s, s};
}

__attribute__((target("avx2"))) inline V4 madd4(V4 acc, V4 b, V4 x) {
  const V4 prod = b * x;
  return acc + prod;
}

// One (4 rows) x (8 RHS columns) matmat tile on AVX2: the 2 x 8 tile's
// scheme with twice the rows and twice the lanes. 8 named accumulators,
// one broadcast of a_r[c] per row and two panel loads per step, shared by
// the four rows. Each lane is the naive ascending-c sum for its element.
__attribute__((target("avx2"))) void matmat_rows4_tile_avx2(
    const double* S2C2_RESTRICT a, std::size_t cols,
    const double* S2C2_RESTRICT x, std::size_t width,
    double* S2C2_RESTRICT y) {
  const double* S2C2_RESTRICT a0 = a;
  const double* S2C2_RESTRICT a1 = a + cols;
  const double* S2C2_RESTRICT a2 = a + 2 * cols;
  const double* S2C2_RESTRICT a3 = a + 3 * cols;
  V4 r0j0 = {}, r0j4 = {}, r1j0 = {}, r1j4 = {};
  V4 r2j0 = {}, r2j4 = {}, r3j0 = {}, r3j4 = {};
  for (std::size_t c = 0; c < cols; ++c) {
    const double* S2C2_RESTRICT xc = x + c * width;
    const V4 x0 = load4(xc), x4 = load4(xc + 4);
    const V4 b0 = splat4(a0[c]);
    r0j0 = madd4(r0j0, b0, x0);
    r0j4 = madd4(r0j4, b0, x4);
    const V4 b1 = splat4(a1[c]);
    r1j0 = madd4(r1j0, b1, x0);
    r1j4 = madd4(r1j4, b1, x4);
    const V4 b2 = splat4(a2[c]);
    r2j0 = madd4(r2j0, b2, x0);
    r2j4 = madd4(r2j4, b2, x4);
    const V4 b3 = splat4(a3[c]);
    r3j0 = madd4(r3j0, b3, x0);
    r3j4 = madd4(r3j4, b3, x4);
  }
  store4(y, r0j0);
  store4(y + 4, r0j4);
  store4(y + width, r1j0);
  store4(y + width + 4, r1j4);
  store4(y + 2 * width, r2j0);
  store4(y + 2 * width + 4, r2j4);
  store4(y + 3 * width, r3j0);
  store4(y + 3 * width + 4, r3j4);
}

// The 4 x 8 tile's half: (4 rows) x (`lanes` <= 4 RHS columns), for a 1-7
// column remainder: 4 columns, then the last 1-3. One accumulator per row
// and one panel load per step, shared by the four rows. The load and the
// store take only the first `lanes` lanes: masked lanes load 0 (never
// touching memory past the panel row) and are never stored.
__attribute__((target("avx2"))) void matmat_rows4_half_tile_avx2(
    const double* S2C2_RESTRICT a, std::size_t cols,
    const double* S2C2_RESTRICT x, std::size_t width, std::size_t lanes,
    double* S2C2_RESTRICT y) {
  const double* S2C2_RESTRICT a0 = a;
  const double* S2C2_RESTRICT a1 = a + cols;
  const double* S2C2_RESTRICT a2 = a + 2 * cols;
  const double* S2C2_RESTRICT a3 = a + 3 * cols;
  const __m256i mask =
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(lanes)),
                         _mm256_setr_epi64x(0, 1, 2, 3));
  V4 r0 = {}, r1 = {}, r2 = {}, r3 = {};
  for (std::size_t c = 0; c < cols; ++c) {
    const V4 xv = _mm256_maskload_pd(x + c * width, mask);
    r0 = madd4(r0, splat4(a0[c]), xv);
    r1 = madd4(r1, splat4(a1[c]), xv);
    r2 = madd4(r2, splat4(a2[c]), xv);
    r3 = madd4(r3, splat4(a3[c]), xv);
  }
  _mm256_maskstore_pd(y, mask, r0);
  _mm256_maskstore_pd(y + width, mask, r1);
  _mm256_maskstore_pd(y + 2 * width, mask, r2);
  _mm256_maskstore_pd(y + 3 * width, mask, r3);
}

// Eight adjacent panel columns in one 64-byte zmm register. Every function
// that takes, returns or holds a V8 is compiled for AVX-512F. That ISA
// includes FMA, so only the library-wide -ffp-contract=off keeps `*` and
// `+` one vmulpd and one vaddpd: the same two roundings per lane as the
// other tiles.
typedef double V8 __attribute__((vector_size(64)));

__attribute__((target("avx512f"))) inline V8 splat8(double s) {
  return V8{s, s, s, s, s, s, s, s};
}

__attribute__((target("avx512f"))) inline V8 madd8(V8 acc, V8 b, V8 x) {
  const V8 prod = b * x;
  return acc + prod;
}

// One (R rows) x (8 * V RHS columns) matmat tile on AVX-512: R * V
// accumulators, one broadcast of a_r[c] per row and V panel loads per
// step, shared by the R rows. The last zmm of each row loads and stores
// only the lanes in `last`, so a ragged strip needs no scalar tail: masked
// lanes load 0 and are never stored. Each stored lane is the naive
// ascending-c sum for its element. The pragmas unroll the fixed-trip
// loops early enough that `acc` lives in registers only; without them gcc
// 12 also stores all 8 accumulators to the stack on every step.
template <std::size_t R, std::size_t V>
__attribute__((target("avx512f"))) void matmat_tile_avx512(
    const double* S2C2_RESTRICT a, std::size_t cols,
    const double* S2C2_RESTRICT x, std::size_t width, __mmask8 last,
    double* S2C2_RESTRICT y) {
  V8 acc[R][V] = {};
  for (std::size_t c = 0; c < cols; ++c) {
    const double* S2C2_RESTRICT xc = x + c * width;
    V8 xv[V] = {};
#pragma GCC unroll 8
    for (std::size_t v = 0; v < V; ++v) {
      xv[v] = _mm512_maskz_loadu_pd(v + 1 == V ? last : 0xFF, xc + 8 * v);
    }
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const V8 b = splat8(a[r * cols + c]);
#pragma GCC unroll 8
      for (std::size_t v = 0; v < V; ++v) acc[r][v] = madd8(acc[r][v], b, xv[v]);
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (std::size_t v = 0; v < V; ++v) {
      _mm512_mask_storeu_pd(y + r * width + 8 * v, v + 1 == V ? last : 0xFF,
                            acc[r][v]);
    }
  }
}

using Avx512Tile = void (*)(const double*, std::size_t, const double*,
                            std::size_t, __mmask8, double*);

// tiles[i] runs i + 1 rows of V zmm per row: the full row block and each
// rows % block remainder.
template <std::size_t V, std::size_t... I>
constexpr std::array<Avx512Tile, sizeof...(I)> avx512_tiles(
    std::index_sequence<I...>) {
  return {&matmat_tile_avx512<I + 1, V>...};
}

// Columns [j0, j1) in strips of `strip` (16 or 8) columns on row blocks of
// tiles.size() rows; the last strip and the last row block may be short.
template <std::size_t N>
void matmat_strips_avx512(const std::array<Avx512Tile, N>& tiles,
                          const double* a, std::size_t rows, std::size_t cols,
                          const double* x, std::size_t width, std::size_t j0,
                          std::size_t j1, std::size_t strip, double* y) {
  for (std::size_t r = 0; r < rows; r += N) {
    const Avx512Tile tile = tiles[std::min(N, rows - r) - 1];
    for (std::size_t j = j0; j < j1; j += strip) {
      const std::size_t lanes = std::min(strip, j1 - j) - (strip - 8);
      tile(a + r * cols, cols, x + j, width,
           static_cast<__mmask8>((1u << lanes) - 1), y + r * width + j);
    }
  }
}

// The AVX-512 row-block loop. Strips of 16 columns run on 4 x 16 tiles,
// and so does a 9-15 column remainder, masked. A remainder of 1-8 columns
// runs on 8 x 8 tiles instead: a half-masked 4 x 16 tile would idle half
// its multiplies there and run slower than the AVX2 tile.
void matmat_avx512(const double* a, std::size_t rows, std::size_t cols,
                   const double* x, std::size_t width, double* y) {
  static constexpr auto wide = avx512_tiles<2>(
      std::make_index_sequence<kMatmatAvx512RowTile>{});
  static constexpr auto narrow = avx512_tiles<1>(
      std::make_index_sequence<2 * kMatmatAvx512RowTile>{});
  const std::size_t rem = width % (2 * kMatmatColTile);
  const std::size_t split = rem <= kMatmatColTile ? width - rem : width;
  matmat_strips_avx512(wide, a, rows, cols, x, width, 0, split,
                       2 * kMatmatColTile, y);
  matmat_strips_avx512(narrow, a, rows, cols, x, width, split, width,
                       kMatmatColTile, y);
}
#endif

// Ragged column tail (width % kMatmatColTile): variable-length inner
// loop, same chains.
inline void matmat_row1_tail(const double* S2C2_RESTRICT a0, std::size_t cols,
                             const double* S2C2_RESTRICT x, std::size_t width,
                             std::size_t jw, double* S2C2_RESTRICT y0) {
  double acc[kMatmatColTile] = {};
  for (std::size_t c = 0; c < cols; ++c) {
    const double* S2C2_RESTRICT xc = x + c * width;
    const double a0c = a0[c];
    for (std::size_t j = 0; j < jw; ++j) acc[j] += a0c * xc[j];
  }
  for (std::size_t j = 0; j < jw; ++j) y0[j] = acc[j];
}

// Tiled CSR panel rows: one pass over the row's nonzeros per column tile
// of 8 (instead of one pass per RHS column), gathers amortized across
// the tile; per-element chains stay in CSR storage order.
template <std::size_t W>
inline void csr_row_tile(std::size_t p0, std::size_t p1,
                         const std::size_t* S2C2_RESTRICT col_idx,
                         const double* S2C2_RESTRICT values,
                         const double* S2C2_RESTRICT x, std::size_t width,
                         double* S2C2_RESTRICT y) {
  double acc[W] = {};
  for (std::size_t p = p0; p < p1; ++p) {
    const double v = values[p];
    const double* S2C2_RESTRICT xc = x + col_idx[p] * width;
    for (std::size_t j = 0; j < W; ++j) acc[j] += v * xc[j];
  }
  for (std::size_t j = 0; j < W; ++j) y[j] = acc[j];
}

inline void csr_row_tail(std::size_t p0, std::size_t p1,
                         const std::size_t* S2C2_RESTRICT col_idx,
                         const double* S2C2_RESTRICT values,
                         const double* S2C2_RESTRICT x, std::size_t width,
                         std::size_t jw, double* S2C2_RESTRICT y) {
  double acc[kMatmatColTile] = {};
  for (std::size_t p = p0; p < p1; ++p) {
    const double v = values[p];
    const double* S2C2_RESTRICT xc = x + col_idx[p] * width;
    for (std::size_t j = 0; j < jw; ++j) acc[j] += v * xc[j];
  }
  for (std::size_t j = 0; j < jw; ++j) y[j] = acc[j];
}

}  // namespace

void dense_matvec(const double* S2C2_RESTRICT a, std::size_t rows,
                  std::size_t cols, const double* S2C2_RESTRICT x,
                  double* S2C2_RESTRICT y) {
  std::size_t r = 0;
  for (; r + kMatvecRowTile <= rows; r += kMatvecRowTile) {
    matvec_rows4(a + r * cols, cols, x, y + r);
  }
  matvec_rows_tail(a + r * cols, rows - r, cols, x, y + r);
}

bool cpu_can_run(MatmatTile tile) {
#if defined(__x86_64__)
  // Function-local static: one CPU check per process, thread-safe.
  static const std::array<bool, 2> simd = [] {
    __builtin_cpu_init();
    return std::array<bool, 2>{__builtin_cpu_supports("avx2") != 0,
                               __builtin_cpu_supports("avx512f") != 0};
  }();
  switch (tile) {
    case MatmatTile::kAvx2:
      return simd[0];
    case MatmatTile::kAvx512:
      return simd[1];
    case MatmatTile::kPortable:
      break;
  }
  return true;
#else
  return tile == MatmatTile::kPortable;
#endif
}

MatmatTile dispatched_matmat_tile() {
  static const MatmatTile tile =
      cpu_can_run(MatmatTile::kAvx512) ? MatmatTile::kAvx512
      : cpu_can_run(MatmatTile::kAvx2) ? MatmatTile::kAvx2
                                        : MatmatTile::kPortable;
  return tile;
}

const char* matmat_tile_name(MatmatTile tile) {
  switch (tile) {
    case MatmatTile::kAvx512:
      return "avx512 4x16";
    case MatmatTile::kAvx2:
      return "avx2 4x8";
    case MatmatTile::kPortable:
      break;
  }
  return "portable 2x8";
}

void dense_matmat(const double* S2C2_RESTRICT a, std::size_t rows,
                  std::size_t cols, const double* S2C2_RESTRICT x,
                  std::size_t width, double* S2C2_RESTRICT y) {
  if (width == 1) {
    // A one-column panel is a vector with unit stride: the matvec row tile
    // runs the same per-element chains as the matmat tail it replaces.
    dense_matvec(a, rows, cols, x, y);
    return;
  }
  dense_matmat_on(dispatched_matmat_tile(), a, rows, cols, x, width, y);
}

void dense_matmat_on(MatmatTile tile, const double* S2C2_RESTRICT a,
                     std::size_t rows, std::size_t cols,
                     const double* S2C2_RESTRICT x, std::size_t width,
                     double* S2C2_RESTRICT y) {
  S2C2_REQUIRE(cpu_can_run(tile),
               "dense_matmat_on: this CPU cannot run the requested tile");
#if defined(__x86_64__)
  // The AVX-512 tiles cover every row and column, ragged ones masked.
  if (tile == MatmatTile::kAvx512) {
    matmat_avx512(a, rows, cols, x, width, y);
    return;
  }
#endif
  // Row blocks of 4 on the AVX2 tiles when `tile` says so (8 columns at a
  // time, then 4, then the masked last 1-3), then row pairs and the odd row
  // on the portable tiles, each with the scalar tail for the width % 8
  // columns.
  std::size_t r = 0;
#if defined(__x86_64__)
  if (tile == MatmatTile::kAvx2) {
    constexpr std::size_t kHalf = kMatmatColTile / 2;
    for (; r + kMatmatAvx2RowTile <= rows; r += kMatmatAvx2RowTile) {
      const double* S2C2_RESTRICT a0 = a + r * cols;
      double* S2C2_RESTRICT y0 = y + r * width;
      std::size_t j = 0;
      for (; j + kMatmatColTile <= width; j += kMatmatColTile) {
        matmat_rows4_tile_avx2(a0, cols, x + j, width, y0 + j);
      }
      while (j < width) {
        const std::size_t lanes = std::min(kHalf, width - j);
        matmat_rows4_half_tile_avx2(a0, cols, x + j, width, lanes, y0 + j);
        j += lanes;
      }
    }
  }
#endif
  for (; r + kMatmatRowTile <= rows; r += kMatmatRowTile) {
    const double* S2C2_RESTRICT a0 = a + r * cols;
    const double* S2C2_RESTRICT a1 = a0 + cols;
    double* S2C2_RESTRICT y0 = y + r * width;
    double* S2C2_RESTRICT y1 = y0 + width;
    std::size_t j = 0;
    for (; j + kMatmatColTile <= width; j += kMatmatColTile) {
      matmat_rows2_tile(a0, a1, cols, x + j, width, y0 + j, y1 + j);
    }
    if (j < width) {
      matmat_row1_tail(a0, cols, x + j, width, width - j, y0 + j);
      matmat_row1_tail(a1, cols, x + j, width, width - j, y1 + j);
    }
  }
  for (; r < rows; ++r) {
    const double* S2C2_RESTRICT a0 = a + r * cols;
    double* S2C2_RESTRICT y0 = y + r * width;
    std::size_t j = 0;
    for (; j + kMatmatColTile <= width; j += kMatmatColTile) {
      matmat_row1_tile(a0, cols, x + j, width, y0 + j);
    }
    if (j < width) matmat_row1_tail(a0, cols, x + j, width, width - j, y0 + j);
  }
}

void csr_matvec(const std::size_t* S2C2_RESTRICT row_ptr, std::size_t rows,
                const std::size_t* S2C2_RESTRICT col_idx,
                const double* S2C2_RESTRICT values,
                const double* S2C2_RESTRICT x, double* S2C2_RESTRICT y) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t p0 = row_ptr[r];
    const std::size_t p1 = row_ptr[r + 1];
    double acc = 0.0;
    for (std::size_t p = p0; p < p1; ++p) acc += values[p] * x[col_idx[p]];
    y[r] = acc;
  }
}

void csr_matmat(const std::size_t* S2C2_RESTRICT row_ptr, std::size_t rows,
                const std::size_t* S2C2_RESTRICT col_idx,
                const double* S2C2_RESTRICT values,
                const double* S2C2_RESTRICT x, std::size_t width,
                double* S2C2_RESTRICT y) {
  if (width == 1) {
    csr_matvec(row_ptr, rows, col_idx, values, x, y);
    return;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t p0 = row_ptr[r];
    const std::size_t p1 = row_ptr[r + 1];
    double* S2C2_RESTRICT yr = y + r * width;
    std::size_t j = 0;
    for (; j + kMatmatColTile <= width; j += kMatmatColTile) {
      csr_row_tile<kMatmatColTile>(p0, p1, col_idx, values, x + j, width,
                                   yr + j);
    }
    if (j < width) {
      csr_row_tail(p0, p1, col_idx, values, x + j, width, width - j, yr + j);
    }
  }
}

}  // namespace s2c2::linalg::kernels
