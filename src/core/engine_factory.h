// Strategy-engine construction — the one way every consumer (harness
// cells, job driver, report, examples, benches, CLIs) builds an engine from
// a StrategyKind.
//
//   EngineParams p;
//   p.cluster = spec; p.k = k; p.dense = &a; ...
//   std::unique_ptr<StrategyEngine> e = make_engine(StrategyKind::kS2C2,
//                                                   std::move(p));
//
// EngineParams is the superset of what the built-in strategies need; each
// engine family reads its slice and ignores the rest (the generated
// strategy table in docs/REPRODUCTION.md documents capabilities per kind).
// StrategyKind is a closed enum and make_engine switches over it with no
// default, so -Wswitch (on in every preset, an error under `strict`) flags a
// new kind until it gets a constructor here. Every kind is proven against
// the cross-engine invariants in tests/engine_conformance_test.cpp.
#pragma once

#include <memory>

#include "src/core/agc_engine.h"
#include "src/core/engine.h"
#include "src/core/lt_engine.h"
#include "src/core/overdecomp_engine.h"
#include "src/core/poly_engine.h"
#include "src/core/replication_engine.h"
#include "src/core/strategy_engine.h"
#include "src/linalg/sparse.h"

namespace s2c2::core {

/// Construction inputs for any strategy. Operator pointers are borrowed:
/// the matrix must outlive the engine (the coded engines copy what they
/// encode; the uncoded baselines keep a direct-multiply closure over it).
struct EngineParams {
  ClusterSpec cluster;

  /// Functional operator — at most one of dense/sparse. When both are
  /// null the engine runs cost-only from `rows` x `cols`.
  const linalg::Matrix* dense = nullptr;
  const linalg::CsrMatrix* sparse = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;

  /// Coded-strategy knobs (MDS parameter k, chunk granularity, §4.3
  /// timeout, basic-S2C2 straggler threshold, poly block split).
  std::size_t k = 0;
  std::size_t chunks_per_partition = 24;
  double timeout_factor = 1.15;
  double straggler_threshold = 0.5;
  std::size_t a_blocks = 3;

  /// Speed source for prediction-capable strategies: a trained predictor,
  /// or oracle_speeds to read the true trace speed at round start.
  bool oracle_speeds = false;
  std::unique_ptr<predict::SpeedPredictor> predictor;

  /// Scale predictions by health-monitor degradation factors (coded
  /// engines only; see EngineConfig::health_informed).
  bool health_informed = false;

  /// Baseline-specific knobs.
  ReplicationConfig replication;
  OverDecompConfig overdecomp;

  /// Rateless-LT knobs (kLt): deterministic symbol-graph seed plus the
  /// robust-soliton / decode-overhead parameters. The harness derives
  /// code_seed from the cell/job salt the same way it salts replication
  /// placement.
  std::uint64_t code_seed = 0x5eedc0deULL;
  coding::RobustSolitonConfig soliton;

  /// Intra-round parallelism width, applied to every constructed engine
  /// via StrategyEngine::set_inner_jobs (bitwise-identical results at any
  /// setting; see that method). 1 = serial rounds (default, preserves the
  /// allocation-free steady state); 0 = hardware threads.
  std::size_t inner_jobs = 1;

  [[nodiscard]] std::size_t op_rows() const {
    return dense != nullptr ? dense->rows()
                            : (sparse != nullptr ? sparse->rows() : rows);
  }
  [[nodiscard]] std::size_t op_cols() const {
    return dense != nullptr ? dense->cols()
                            : (sparse != nullptr ? sparse->cols() : cols);
  }
};

/// Builds an engine for `kind`. Throws std::invalid_argument for a value
/// outside the StrategyKind enum.
[[nodiscard]] std::unique_ptr<StrategyEngine> make_engine(StrategyKind kind,
                                                          EngineParams params);

}  // namespace s2c2::core
