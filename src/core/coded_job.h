// A coded matrix-vector job: the encoded operator plus its chunk geometry.
//
// Construction encodes once (the paper's one-time setup cost, excluded from
// per-iteration latencies) and the job is then reused across iterations —
// the whole point of S2C2 is that re-balancing work needs **no data
// movement** because every worker already stores an encoded partition.
//
// Two modes:
//  * functional — real operator encoded; compute_chunk_into() runs the
//    actual kernels so decode correctness is verifiable end to end;
//  * cost-only  — dimensions only; engines simulate latency shapes at
//    scales where running the real kernels would be pointless.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/coding/chunked_decoder.h"
#include "src/coding/mds_code.h"
#include "src/core/strategy_config.h"

namespace s2c2::core {

class CodedMatVecJob {
 public:
  /// Functional job over a dense operator.
  CodedMatVecJob(const linalg::Matrix& a, std::size_t n, std::size_t k,
                 std::size_t chunks_per_partition,
                 coding::ParityKind parity = coding::ParityKind::kGaussian);

  /// Functional job over a sparse operator.
  CodedMatVecJob(const linalg::CsrMatrix& a, std::size_t n, std::size_t k,
                 std::size_t chunks_per_partition,
                 coding::ParityKind parity = coding::ParityKind::kGaussian);

  /// Cost-only job: no data, latency simulation only.
  static CodedMatVecJob cost_only(std::size_t data_rows, std::size_t data_cols,
                                  std::size_t n, std::size_t k,
                                  std::size_t chunks_per_partition);

  [[nodiscard]] std::size_t n() const { return code_->n(); }
  [[nodiscard]] std::size_t k() const { return code_->k(); }
  [[nodiscard]] std::size_t data_rows() const { return data_rows_; }
  [[nodiscard]] std::size_t data_cols() const { return data_cols_; }
  [[nodiscard]] std::size_t partition_rows() const { return partition_rows_; }
  [[nodiscard]] std::size_t chunks_per_partition() const { return chunks_; }
  [[nodiscard]] std::size_t rows_per_chunk() const {
    return partition_rows_ / chunks_;
  }
  [[nodiscard]] bool functional() const { return partitions_ != nullptr; }
  [[nodiscard]] const coding::GeneratorMatrix& generator() const {
    return code_->generator();
  }

  /// Worker-side kernel: writes chunk `chunk` of partition `worker` times
  /// the data_cols x width panel `x_panel` (row-major) as rows_per_chunk x
  /// width row-major values straight into `out` (e.g. a decoder's
  /// stage_chunk span) — zero-copy and zero-allocation. Column j is
  /// bitwise the width-1 product on column j of the panel.
  void compute_chunk_into(std::size_t worker, std::size_t chunk,
                          std::span<const double> x_panel, std::size_t width,
                          std::span<double> out) const;

  /// Run form of compute_chunk_into: chunks [first, first + count) of
  /// partition `worker` (no wrap) in one kernel call, count x
  /// rows_per_chunk x width row-major values into `out` — bitwise the
  /// concatenation of the per-chunk products. Rows that are structurally
  /// zero (a systematic partition's padding past data_rows) are not
  /// computed: they get +0.0, the kernel's value for a zero row and a
  /// finite panel.
  void compute_chunks_into(std::size_t worker, std::size_t first,
                           std::size_t count, std::span<const double> x_panel,
                           std::size_t width, std::span<double> out) const;

  /// Fresh decoder wired to this job's geometry, carrying `width` RHS
  /// values per computed row (width = b of the round's panel). Pass a
  /// DecodeContext built over generator() to reuse cached responder-set
  /// factorizations across rounds (engines do); null gives the decoder a
  /// private context.
  [[nodiscard]] coding::ChunkedDecoder make_decoder(
      coding::DecodeContext* context = nullptr, std::size_t width = 1) const;

  /// Trims a decoded (k * partition_rows) x b result to its data_rows
  /// original rows, into caller-owned storage whose capacity survives
  /// across rounds (zero-allocation steady state).
  void trim_into(const linalg::Matrix& decoded, linalg::Vector& y) const;
  void trim_block_into(const linalg::Matrix& decoded,
                       linalg::Matrix& y_block) const;

  // ---- cost model ----
  // All per-round charges scale linearly in the RHS block width b: the
  // master ships b columns down, every chunk response carries b values per
  // row, and each worker runs b dot products per row. width = 1 is the
  // classic single-RHS round.
  [[nodiscard]] std::size_t x_bytes(std::size_t width = 1) const {
    return data_cols_ * width * 8;
  }
  [[nodiscard]] std::size_t chunk_result_bytes(std::size_t width = 1) const {
    return rows_per_chunk() * width * 8;
  }
  [[nodiscard]] double chunk_flops(std::size_t width = 1) const;
  /// Storage a worker needs for its partition, in bytes (Fig 3).
  [[nodiscard]] std::size_t partition_bytes(std::size_t worker) const;

 private:
  CodedMatVecJob(std::size_t data_rows, std::size_t data_cols, std::size_t n,
                 std::size_t k, std::size_t chunks);

  /// Leading rows of partition `worker` that can be nonzero: a systematic
  /// partition holds data rows [worker·pr, (worker+1)·pr), so the rows at
  /// or past data_rows − worker·pr are padding; a parity partition mixes
  /// every block and counts all pr rows.
  [[nodiscard]] std::size_t live_rows(std::size_t worker) const;

  // The code and the encoded partitions never change after construction,
  // so copies of a job (each engine takes one) share them instead of
  // duplicating the n x k generator and the n partitions.
  std::shared_ptr<const coding::MdsCode> code_;
  std::size_t data_rows_ = 0;
  std::size_t data_cols_ = 0;
  std::size_t partition_rows_ = 0;  // padded to a multiple of chunks_
  std::size_t chunks_ = 0;
  std::shared_ptr<const std::vector<coding::EncodedPartition>>
      partitions_;  // null in cost-only
};

}  // namespace s2c2::core
