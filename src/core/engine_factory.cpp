#include "src/core/engine_factory.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace s2c2::core {

namespace {

/// Borrowing multiply closure over the params' operator (empty when the
/// engine is cost-only). The closure takes a cols x b panel and returns
/// the exact block product in one matmat — baselines forward batched
/// rounds without degrading to column-at-a-time loops.
DirectMultiply direct_multiply(const EngineParams& p) {
  if (p.dense != nullptr) {
    return [a = p.dense](const linalg::Matrix& x) { return a->matmat(x); };
  }
  if (p.sparse != nullptr) {
    return [a = p.sparse](const linalg::Matrix& x) { return a->matmat(x); };
  }
  return {};
}

EngineConfig mds_config(StrategyKind kind, const EngineParams& p) {
  EngineConfig cfg;
  cfg.strategy = kind;
  cfg.chunks_per_partition = p.chunks_per_partition;
  cfg.timeout_factor = p.timeout_factor;
  cfg.straggler_threshold = p.straggler_threshold;
  cfg.oracle_speeds = p.oracle_speeds;
  cfg.health_informed = p.health_informed;
  return cfg;
}

CodedMatVecJob mds_job(const EngineParams& p) {
  const std::size_t n = p.cluster.num_workers();
  return p.dense != nullptr
             ? CodedMatVecJob(*p.dense, n, p.k, p.chunks_per_partition)
             : (p.sparse != nullptr
                    ? CodedMatVecJob(*p.sparse, n, p.k,
                                     p.chunks_per_partition)
                    : CodedMatVecJob::cost_only(p.rows, p.cols, n, p.k,
                                                p.chunks_per_partition));
}

std::unique_ptr<StrategyEngine> make_mds_coded(StrategyKind kind,
                                               EngineParams p) {
  return std::make_unique<CodedComputeEngine>(mds_job(p), std::move(p.cluster),
                                              mds_config(kind, p),
                                              std::move(p.predictor));
}

std::unique_ptr<StrategyEngine> make_agc(EngineParams p) {
  // Identical job geometry and lifecycle to the MDS family; only the
  // allocation rule differs (agc_engine.h).
  return std::make_unique<AdaptiveGradientEngine>(
      mds_job(p), std::move(p.cluster), mds_config(StrategyKind::kAgc, p),
      std::move(p.predictor));
}

std::unique_ptr<StrategyEngine> make_lt_coded(EngineParams p) {
  LtEngineConfig cfg;
  cfg.k = p.k;
  cfg.chunks_per_partition = p.chunks_per_partition;
  cfg.oracle_speeds = p.oracle_speeds;
  cfg.health_informed = p.health_informed;
  cfg.code_seed = p.code_seed;
  cfg.soliton = p.soliton;
  const std::size_t rows = p.op_rows();
  const std::size_t cols = p.op_cols();
  return std::make_unique<LtCodedEngine>(p.dense, p.sparse, rows, cols,
                                         std::move(p.cluster), cfg,
                                         std::move(p.predictor));
}

std::unique_ptr<StrategyEngine> make_poly_coded(StrategyKind kind,
                                                EngineParams p) {
  PolyEngineConfig cfg;
  cfg.strategy = kind;
  cfg.chunks_per_partition = p.chunks_per_partition;
  cfg.timeout_factor = p.timeout_factor;
  cfg.oracle_speeds = p.oracle_speeds;
  cfg.health_informed = p.health_informed;
  std::optional<linalg::Matrix> operand;
  if (p.dense != nullptr) operand = *p.dense;  // the engine encodes a copy
  const std::size_t rows = p.op_rows();
  const std::size_t cols = p.op_cols();
  return std::make_unique<PolyCodedEngine>(std::move(operand), rows, cols,
                                           p.a_blocks, std::move(p.cluster),
                                           cfg, std::move(p.predictor));
}

std::unique_ptr<StrategyEngine> make_replication(EngineParams p) {
  return std::make_unique<ReplicationEngine>(p.op_rows(), p.op_cols(),
                                             std::move(p.cluster),
                                             p.replication,
                                             direct_multiply(p));
}

std::unique_ptr<StrategyEngine> make_overdecomp(EngineParams p) {
  OverDecompConfig cfg = p.overdecomp;
  cfg.oracle_speeds = p.oracle_speeds;
  return std::make_unique<OverDecompositionEngine>(
      p.op_rows(), p.op_cols(), std::move(p.cluster), cfg,
      std::move(p.predictor), direct_multiply(p));
}

std::unique_ptr<StrategyEngine> construct(StrategyKind kind, EngineParams p) {
  switch (kind) {
    case StrategyKind::kS2C2:
    case StrategyKind::kS2C2Basic:
    case StrategyKind::kMds:
      return make_mds_coded(kind, std::move(p));
    case StrategyKind::kPoly:
    case StrategyKind::kPolyConventional:
      return make_poly_coded(kind, std::move(p));
    case StrategyKind::kReplication:
      return make_replication(std::move(p));
    case StrategyKind::kOverDecomp:
      return make_overdecomp(std::move(p));
    case StrategyKind::kLt:
      return make_lt_coded(std::move(p));
    case StrategyKind::kAgc:
      return make_agc(std::move(p));
  }
  throw std::invalid_argument("unknown strategy kind " +
                              std::to_string(static_cast<int>(kind)));
}

}  // namespace

std::unique_ptr<StrategyEngine> make_engine(StrategyKind kind,
                                            EngineParams params) {
  const std::size_t inner_jobs = params.inner_jobs;
  std::unique_ptr<StrategyEngine> engine = construct(kind, std::move(params));
  if (inner_jobs != 1) engine->set_inner_jobs(inner_jobs);
  return engine;
}

}  // namespace s2c2::core
