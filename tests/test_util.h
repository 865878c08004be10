// Shared fixtures for the test suites: seeded RNG factories, cluster-spec
// and trace builders, small functional jobs with known ground truth, and
// tolerance helpers. Every suite that spins up an engine used to re-declare
// these ad hoc; keep additions here so setup stays consistent.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/coding/poly_code.h"
#include "src/core/coded_job.h"
#include "src/core/strategy_config.h"
#include "src/linalg/matrix.h"
#include "src/predict/predictors.h"
#include "src/sim/speed_trace.h"
#include "src/util/require.h"
#include "src/util/rng.h"

namespace s2c2::test {

/// Default chunk granularity: fine enough that integer rounding of a
/// straggler's quota stays well under the 15% timeout margin (the same
/// reason the paper's Algorithm 1 over-decomposes with C = Σu_i).
inline constexpr std::size_t kChunks = 24;

/// Cluster spec over explicit traces, calibrated so compute dominates
/// communication at test-sized operators (worker_flops = 1e7).
inline core::ClusterSpec make_spec(std::vector<sim::SpeedTrace> traces,
                                   double worker_flops = 1e7) {
  core::ClusterSpec spec;
  spec.traces = std::move(traces);
  spec.worker_flops = worker_flops;
  spec.master_flops = 1e9;
  return spec;
}

/// n constant-speed traces (speed 1.0 unless overridden).
inline std::vector<sim::SpeedTrace> uniform_traces(std::size_t n,
                                                   double speed = 1.0) {
  return std::vector<sim::SpeedTrace>(n, sim::SpeedTrace::constant(speed));
}

/// n traces where the last `dead` workers die at `t_death` (speed -> 0).
inline std::vector<sim::SpeedTrace> dying_traces(std::size_t n,
                                                 std::size_t dead,
                                                 sim::Time t_death = 1e-4) {
  auto traces = uniform_traces(n);
  for (std::size_t w = n - dead; w < n; ++w) {
    traces[w] = sim::SpeedTrace::step(t_death, 1.0, 0.0);
  }
  return traces;
}

/// Small functional coded mat-vec job with ground truth: a seeded random
/// 240 x 30 operator encoded as an (n, k) MDS code.
struct FunctionalMatVec {
  FunctionalMatVec(std::size_t n, std::size_t k, std::uint64_t seed = 7,
                   std::size_t chunks = kChunks)
      : rng(seed),
        a(linalg::Matrix::random_uniform(240, 30, rng)),
        job(a, n, k, chunks) {
    x.resize(30);
    for (auto& v : x) v = rng.normal();
    truth = a.matvec(x);
  }

  util::Rng rng;
  linalg::Matrix a;
  core::CodedMatVecJob job;
  linalg::Vector x;
  linalg::Vector truth;
};

/// Small functional polynomial-coded Hessian setup with ground truth.
struct FunctionalHessian {
  explicit FunctionalHessian(std::uint64_t seed = 3)
      : rng(seed), a(linalg::Matrix::random_uniform(40, 24, rng)) {
    x.resize(40);
    for (auto& v : x) v = rng.uniform(0.1, 1.0);
    truth = coding::PolyCode::hessian_direct(a, x);
  }

  util::Rng rng;
  linalg::Matrix a;
  linalg::Vector x;
  linalg::Matrix truth;
};

/// Element-wise closeness of two vectors (absolute tolerance).
inline void expect_close(const linalg::Vector& got,
                         const linalg::Vector& want, double tol = 1e-6) {
  ASSERT_EQ(got.size(), want.size());
  double max_err = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    max_err = std::max(max_err, std::abs(got[i] - want[i]));
  }
  EXPECT_LT(max_err, tol);
}

/// Matrix closeness relative to the target's Frobenius norm.
inline void expect_matrix_close(const linalg::Matrix& got,
                                const linalg::Matrix& want,
                                double rel_tol = 1e-6) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  const double scale = want.frobenius_norm() + 1.0;
  EXPECT_LT(got.max_abs_diff(want) / scale, rel_tol);
}

/// Wraps another predictor and corrupts a fraction of predictions with
/// multiplicative error — dials in a mis-prediction rate for the
/// fault-injection sweeps. It keeps the per-worker calls only, so the
/// batched ones draw from the RNG in ascending worker order.
class NoisyPredictor final : public predict::SpeedPredictor {
 public:
  NoisyPredictor(std::unique_ptr<predict::SpeedPredictor> inner,
                 double corrupt_prob, double rel_error, std::uint64_t seed)
      : inner_(std::move(inner)),
        corrupt_prob_(corrupt_prob),
        rel_error_(rel_error),
        rng_(seed) {
    S2C2_REQUIRE(inner_ != nullptr, "inner predictor required");
    S2C2_REQUIRE(corrupt_prob >= 0.0 && corrupt_prob <= 1.0,
                 "corrupt_prob in [0,1]");
    S2C2_REQUIRE(rel_error >= 0.0, "rel_error must be >= 0");
  }

  void observe(std::size_t worker, double speed) override {
    inner_->observe(worker, speed);
  }

  double predict(std::size_t worker) override {
    double p = inner_->predict(worker);
    if (rng_.bernoulli(corrupt_prob_)) {
      const double sign = rng_.bernoulli(0.5) ? 1.0 : -1.0;
      p *= 1.0 + sign * rel_error_;
    }
    return p > 0.0 ? p : 0.0;
  }

  std::string name() const override { return "noisy(" + inner_->name() + ")"; }

 private:
  std::unique_ptr<predict::SpeedPredictor> inner_;
  double corrupt_prob_;
  double rel_error_;
  util::Rng rng_;
};

}  // namespace s2c2::test
