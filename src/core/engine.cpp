#include "src/core/engine.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "src/coding/chunked_decoder.h"
#include "src/util/hash.h"
#include "src/util/require.h"

namespace s2c2::core {

namespace {

StrategyKind validated_kind(const EngineConfig& config) {
  S2C2_REQUIRE(config.strategy == StrategyKind::kS2C2 ||
                   config.strategy == StrategyKind::kS2C2Basic ||
                   config.strategy == StrategyKind::kMds ||
                   config.strategy == StrategyKind::kAgc,
               "CodedComputeEngine runs the MDS-coded strategies only "
               "(s2c2, s2c2-basic, mds, agc via AdaptiveGradientEngine)");
  return config.strategy;
}

// Decode-residual acceptance threshold for the Byzantine verification
// pass. Clean chunks sit at the solver's rounding floor (< 1e-9 relative,
// tests/byzantine_test.cpp); corrupted chunks land corruption_scale/|v|
// above it — the gap spans many orders of magnitude, so the constant is
// uncritical (docs/DESIGN.md §7).
constexpr double kVerifyTolerance = 1e-7;

// Deterministic corruption a declared-Byzantine worker applies to its
// chunk values: an additive offset of 1-2x corruption_scale whose exact
// size is a mix64 hash of (seed, worker, chunk, index) — reproducible at
// any --jobs, unlike anything drawn from a shared RNG stream.
void corrupt_values(std::span<double> values, const ByzantineSpec& byz,
                    std::size_t worker, std::size_t chunk) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::uint64_t h =
        util::mix64(byz.seed ^ (static_cast<std::uint64_t>(worker) << 40) ^
                    (static_cast<std::uint64_t>(chunk) << 20) ^
                    static_cast<std::uint64_t>(i));
    values[i] += byz.corruption_scale *
                 (1.0 + static_cast<double>(h & 0x3ff) / 1024.0);
  }
}

}  // namespace

CodedComputeEngine::CodedComputeEngine(
    CodedMatVecJob job, ClusterSpec spec, EngineConfig config,
    std::unique_ptr<predict::SpeedPredictor> predictor)
    : RoundExecutor(validated_kind(config), std::move(spec),
                    std::move(predictor), config.oracle_speeds,
                    config.timeout_factor, config.straggler_threshold,
                    config.chunks_per_partition, config.health_informed),
      job_(std::move(job)),
      decode_ctx_(job_.generator()),
      decoder_(job_.make_decoder(&decode_ctx_, 1)) {
  S2C2_REQUIRE(spec_.num_workers() == job_.n(),
               "cluster must provide one trace per code partition");
  S2C2_REQUIRE(config.chunks_per_partition == job_.chunks_per_partition(),
               "engine and job chunk granularity must agree");
}

void CodedComputeEngine::decode_subsets(
    const RoundLedger& ledger,
    std::vector<std::vector<std::size_t>>& out) const {
  // The k smallest responding worker ids per chunk — final_chunk_workers
  // is sorted, matching the functional decoder's arrival order, so
  // cost-model cache keys and numeric cache keys are the same.
  const std::size_t k = job_.k();
  out.resize(ledger.final_chunk_workers.size());
  for (std::size_t c = 0; c < out.size(); ++c) {
    out[c].assign(ledger.final_chunk_workers[c].begin(),
                  ledger.final_chunk_workers[c].begin() +
                      static_cast<std::ptrdiff_t>(k));
  }
}

const linalg::Matrix& CodedComputeEngine::run_verified_decode(
    const RoundLedger& ledger, std::size_t width,
    std::span<const double> x_panel) {
  // Worker compute lands directly in arena-staged decoder slots: no
  // per-chunk vector, no copy into the decoder. Insertion order matches
  // the historical path — per worker ascending, assigned range before
  // recovery extras, Byzantine re-adds appended last — so decode subsets
  // and cache keys are unchanged.
  //
  // Two phases: staging mutates the decoder (and the arrival order it
  // records is fingerprinted behavior), so it runs serially first, chunk
  // by chunk; the products themselves are pure writes into the staged
  // spans — arena-backed and stable until the next reset(). A worker's
  // consecutive assigned chunks whose slots the arena laid out back to
  // back merge into one run, computed by one kernel call over the run's
  // rows (the paper's one dgemv per worker); a wrapped range, an arena
  // block boundary and every recovery extra start a new run. Runs fan out
  // over the inner pool when each chunk is big enough to pay for it. Each
  // task owns its span exclusively, and every row is computed by the
  // serial kernel's chain, so the decoded bits are identical at any
  // inner_jobs and any run split.
  decoder_.reset(width);
  const std::size_t chunks = ledger.alloc.chunks_per_partition;
  chunk_tasks_.clear();
  for (std::size_t w = 0; w < spec_.num_workers(); ++w) {
    if (ledger.used[w]) {
      const sched::ChunkRange& r = ledger.alloc.per_worker[w];
      for (std::size_t i = 0; i < r.count; ++i) {
        const std::size_t c = (r.begin + i) % chunks;
        const std::span<double> slot = decoder_.stage_chunk(w, c);
        if (!chunk_tasks_.empty()) {
          ChunkTask& run = chunk_tasks_.back();
          if (run.worker == w && run.first + run.count == c &&
              run.out.data() + run.out.size() == slot.data()) {
            ++run.count;
            run.out = {run.out.data(), run.out.size() + slot.size()};
            continue;
          }
        }
        chunk_tasks_.push_back({w, c, 1, slot});
      }
      for (std::size_t c : ledger.extra_chunks[w]) {
        const std::span<double> slot = decoder_.stage_chunk(w, c);
        if (!slot.empty()) {  // reassigned work can duplicate the original
          chunk_tasks_.push_back({w, c, 1, slot});
        }
      }
    }
  }
  const auto compute = [&](const ChunkTask& t) {
    job_.compute_chunks_into(t.worker, t.first, t.count, x_panel, width,
                             t.out);
  };
  util::ThreadPool* const pool = inner_pool();
  if (pool == nullptr || chunk_tasks_.size() < 2 ||
      job_.chunk_flops(width) < kMinParallelChunkFlops) {
    for (const ChunkTask& t : chunk_tasks_) compute(t);
  } else {
    pool->parallel_for(chunk_tasks_.size(),
                       [&](std::size_t i) { compute(chunk_tasks_[i]); });
  }
  if (spec_.byzantine.active()) {
    // Re-add the corrupted responses the executor stripped, appended
    // *after* the clean ones: the verification pass prunes them again, so
    // the surviving arrival order — and with it the decode subsets and
    // cache keys — matches the honest decode exactly.
    std::vector<std::size_t> expected;
    for (std::size_t c = 0; c < ledger.byzantine_chunk_workers.size(); ++c) {
      for (std::size_t w : ledger.byzantine_chunk_workers[c]) {
        const std::span<double> slot = decoder_.stage_chunk(w, c);
        job_.compute_chunk_into(w, c, x_panel, width, slot);
        corrupt_values(slot, spec_.byzantine, w, c);
        expected.push_back(w);
      }
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    const coding::ChunkVerification verification =
        decoder_.verify_chunks(kVerifyTolerance);
    // The residual check must convict exactly the responders whose values
    // were perturbed — no misses, no honest casualties.
    S2C2_CHECK(verification.corrupt_workers == expected,
               "byzantine verification convicted the wrong responder set");
  }
  decoder_.decode_into(decoded_scratch_);
  return decoded_scratch_;
}

void CodedComputeEngine::decode_product(RoundResult& result,
                                        const RoundLedger& ledger,
                                        std::span<const double> x) {
  S2C2_REQUIRE(x.size() == job_.data_cols(), "input vector size mismatch");
  result.y_block.reset();
  result.hessian.reset();
  if (!result.y) result.y.emplace();
  job_.trim_into(run_verified_decode(ledger, 1, x), *result.y);
}

void CodedComputeEngine::decode_product_block(RoundResult& result,
                                              const RoundLedger& ledger,
                                              const linalg::Matrix& x_block) {
  S2C2_REQUIRE(x_block.rows() == job_.data_cols(),
               "input panel row count mismatch");
  result.y.reset();
  result.hessian.reset();
  if (!result.y_block) result.y_block.emplace();
  const linalg::Matrix& decoded =
      run_verified_decode(ledger, x_block.cols(), x_block.data());
  job_.trim_block_into(decoded, *result.y_block);
}

}  // namespace s2c2::core
