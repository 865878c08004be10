#include "src/linalg/kernels.h"

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


// One (row pair) x (8 RHS columns) matmat tile: a single ascending-c
// pass over both rows, 16 accumulators. The column tile is contiguous in
// the row-major panel, so the inner fixed-length loops vectorize across
// RHS columns; each accumulator chain is still the naive ascending-c sum
// for its output element.
template <std::size_t W>
inline void matmat_rows2_tile(const double* S2C2_RESTRICT a0,
                              const double* S2C2_RESTRICT a1,
                              std::size_t cols, const double* S2C2_RESTRICT x,
                              std::size_t width, double* S2C2_RESTRICT y0,
                              double* S2C2_RESTRICT y1) {
  double acc0[W] = {};
  double acc1[W] = {};
  for (std::size_t c = 0; c < cols; ++c) {
    const double* S2C2_RESTRICT xc = x + c * width;
    const double a0c = a0[c];
    const double a1c = a1[c];
    for (std::size_t j = 0; j < W; ++j) acc0[j] += a0c * xc[j];
    for (std::size_t j = 0; j < W; ++j) acc1[j] += a1c * xc[j];
  }
  for (std::size_t j = 0; j < W; ++j) y0[j] = acc0[j];
  for (std::size_t j = 0; j < W; ++j) y1[j] = acc1[j];
}

template <std::size_t W>
inline void matmat_row1_tile(const double* S2C2_RESTRICT a0, std::size_t cols,
                             const double* S2C2_RESTRICT x, std::size_t width,
                             double* S2C2_RESTRICT y0) {
  double acc0[W] = {};
  for (std::size_t c = 0; c < cols; ++c) {
    const double* S2C2_RESTRICT xc = x + c * width;
    const double a0c = a0[c];
    for (std::size_t j = 0; j < W; ++j) acc0[j] += a0c * xc[j];
  }
  for (std::size_t j = 0; j < W; ++j) y0[j] = acc0[j];
}

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

void dense_matmat(const double* S2C2_RESTRICT a, std::size_t rows,
                  std::size_t cols, const double* S2C2_RESTRICT x,
                  std::size_t width, double* S2C2_RESTRICT y) {
  if (width == 1) {
    // A one-column panel is a vector with unit stride: the matvec row tile
    // runs the same per-element chains as the matmat tail it replaces.
    dense_matvec(a, rows, cols, x, y);
    return;
  }
  std::size_t r = 0;
  for (; r + kMatmatRowTile <= rows; r += kMatmatRowTile) {
    const double* S2C2_RESTRICT a0 = a + r * cols;
    const double* S2C2_RESTRICT a1 = a0 + cols;
    double* S2C2_RESTRICT y0 = y + r * width;
    double* S2C2_RESTRICT y1 = y0 + width;
    std::size_t j = 0;
    for (; j + kMatmatColTile <= width; j += kMatmatColTile) {
      matmat_rows2_tile<kMatmatColTile>(a0, a1, cols, x + j, width, y0 + j,
                                        y1 + j);
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
      matmat_row1_tile<kMatmatColTile>(a0, cols, x + j, width, y0 + j);
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
