#include "src/core/coded_job.h"

#include <algorithm>

#include "src/util/require.h"

namespace s2c2::core {

namespace {

/// Partition rows padded so they divide evenly into chunks.
std::size_t padded_partition_rows(std::size_t data_rows, std::size_t k,
                                  std::size_t chunks) {
  S2C2_REQUIRE(chunks >= 1, "chunks_per_partition must be >= 1");
  const std::size_t pr = (data_rows + k - 1) / k;
  return (pr + chunks - 1) / chunks * chunks;
}

}  // namespace

CodedMatVecJob::CodedMatVecJob(std::size_t data_rows, std::size_t data_cols,
                               std::size_t n, std::size_t k,
                               std::size_t chunks)
    : code_(std::make_shared<const coding::MdsCode>(n, k)),
      data_rows_(data_rows),
      data_cols_(data_cols),
      partition_rows_(padded_partition_rows(data_rows, k, chunks)),
      chunks_(chunks) {}

CodedMatVecJob::CodedMatVecJob(const linalg::Matrix& a, std::size_t n,
                               std::size_t k, std::size_t chunks_per_partition,
                               coding::ParityKind parity)
    : code_(std::make_shared<const coding::MdsCode>(n, k, parity)),
      data_rows_(a.rows()),
      data_cols_(a.cols()),
      partition_rows_(padded_partition_rows(a.rows(), k, chunks_per_partition)),
      chunks_(chunks_per_partition) {
  partitions_ = std::make_shared<const std::vector<coding::EncodedPartition>>(
      code_->encode(a, partition_rows_));
}

CodedMatVecJob::CodedMatVecJob(const linalg::CsrMatrix& a, std::size_t n,
                               std::size_t k, std::size_t chunks_per_partition,
                               coding::ParityKind parity)
    : code_(std::make_shared<const coding::MdsCode>(n, k, parity)),
      data_rows_(a.rows()),
      data_cols_(a.cols()),
      partition_rows_(padded_partition_rows(a.rows(), k, chunks_per_partition)),
      chunks_(chunks_per_partition) {
  partitions_ = std::make_shared<const std::vector<coding::EncodedPartition>>(
      code_->encode(a, partition_rows_));
}

CodedMatVecJob CodedMatVecJob::cost_only(std::size_t data_rows,
                                         std::size_t data_cols, std::size_t n,
                                         std::size_t k,
                                         std::size_t chunks_per_partition) {
  return CodedMatVecJob(data_rows, data_cols, n, k, chunks_per_partition);
}

void CodedMatVecJob::compute_chunk_into(std::size_t worker, std::size_t chunk,
                                        std::span<const double> x_panel,
                                        std::size_t width,
                                        std::span<double> out) const {
  compute_chunks_into(worker, chunk, 1, x_panel, width, out);
}

void CodedMatVecJob::compute_chunks_into(std::size_t worker, std::size_t first,
                                         std::size_t count,
                                         std::span<const double> x_panel,
                                         std::size_t width,
                                         std::span<double> out) const {
  S2C2_REQUIRE(functional(), "compute_chunks_into on a cost-only job");
  S2C2_REQUIRE(worker < n(), "worker out of range");
  S2C2_REQUIRE(count >= 1 && first < chunks_ && count <= chunks_ - first,
               "chunk run out of range");
  S2C2_REQUIRE(width >= 1 && x_panel.size() == data_cols_ * width,
               "x panel shape mismatch");
  const std::size_t rpc = rows_per_chunk();
  S2C2_REQUIRE(out.size() == count * rpc * width,
               "chunk output span size mismatch");
  const std::size_t r0 = first * rpc;
  const std::size_t r1 = r0 + count * rpc;
  const std::size_t live = std::clamp(live_rows(worker), r0, r1);
  if (live > r0) {
    const std::span<double> y = out.first((live - r0) * width);
    if (width == 1) {
      (*partitions_)[worker].matvec_rows(r0, live, x_panel, y);
    } else {
      (*partitions_)[worker].matmat_rows(r0, live, x_panel, width, y);
    }
  }
  // Padding rows: the kernel's result for a zero row and a finite panel.
  std::fill(out.begin() + static_cast<std::ptrdiff_t>((live - r0) * width),
            out.end(), 0.0);
}

std::size_t CodedMatVecJob::live_rows(std::size_t worker) const {
  if (!generator().is_systematic_row(worker)) return partition_rows_;
  const std::size_t first_row = worker * partition_rows_;
  return data_rows_ > first_row
             ? std::min(partition_rows_, data_rows_ - first_row)
             : 0;
}

coding::ChunkedDecoder CodedMatVecJob::make_decoder(
    coding::DecodeContext* context, std::size_t width) const {
  return coding::ChunkedDecoder(code_->generator(), partition_rows_, chunks_,
                                width, context);
}

void CodedMatVecJob::trim_into(const linalg::Matrix& decoded,
                               linalg::Vector& y) const {
  S2C2_REQUIRE(decoded.rows() >= data_rows_ && decoded.cols() == 1,
               "decoded result shape mismatch");
  y.resize(data_rows_);
  for (std::size_t r = 0; r < data_rows_; ++r) y[r] = decoded(r, 0);
}

void CodedMatVecJob::trim_block_into(const linalg::Matrix& decoded,
                                     linalg::Matrix& y_block) const {
  S2C2_REQUIRE(decoded.rows() >= data_rows_ && decoded.cols() >= 1,
               "decoded block shape mismatch");
  y_block.resize(data_rows_, decoded.cols());
  const std::size_t cols = decoded.cols();
  std::copy(decoded.data().begin(),
            decoded.data().begin() +
                static_cast<std::ptrdiff_t>(data_rows_ * cols),
            y_block.mutable_data().begin());
}

double CodedMatVecJob::chunk_flops(std::size_t width) const {
  return matvec_flops(rows_per_chunk(), data_cols_) *
         static_cast<double>(width);
}

std::size_t CodedMatVecJob::partition_bytes(std::size_t worker) const {
  if (functional()) return partitions_->at(worker).storage_bytes();
  return partition_rows_ * data_cols_ * 8;
}

}  // namespace s2c2::core
