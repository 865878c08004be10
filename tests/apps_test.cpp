// Tests for the application layer: the application math (gradients,
// residuals, PageRank update, coded Hessian) against independent
// references, and each app's coded iteration run as an s2c2 job through
// harness::run_job, whose lockstep uncoded reference bounds the decode
// error (job_driver_test covers the other strategies under the slow label).
#include <gtest/gtest.h>

#include <algorithm>

#include "src/apps/hessian.h"
#include "src/apps/logistic_regression.h"
#include "src/apps/pagerank.h"
#include "src/apps/svm.h"
#include "src/harness/job_driver.h"
#include "src/util/rng.h"
#include "src/workload/graphs.h"
#include "src/workload/trace_gen.h"

namespace s2c2::apps {
namespace {

using harness::JobApp;
using harness::JobResult;
using harness::TraceProfile;

core::ClusterSpec straggler_spec(std::size_t n, std::size_t stragglers,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  core::ClusterSpec spec;
  spec.traces = workload::controlled_cluster_traces(n, stragglers, 0.2, rng);
  spec.worker_flops = 1e7;
  return spec;
}

/// One s2c2 job of `app` (12 workers, k = 10, 3 stragglers) run for
/// exactly `iterations`: tolerance 0 disables the early exit.
JobResult s2c2_job(JobApp app, TraceProfile trace, std::size_t iterations = 8) {
  harness::JobConfig cfg;
  cfg.app = app;
  cfg.trace = trace;
  cfg.max_iterations = iterations;
  cfg.tolerance = 0.0;
  return harness::run_job(cfg);
}

/// The coded trajectory ran to the cap and tracked the uncoded reference to
/// decode noise.
void expect_tracks_reference(const JobResult& job, std::size_t iterations) {
  ASSERT_FALSE(job.failed) << job.error;
  EXPECT_EQ(job.iterations, iterations);
  EXPECT_LT(job.solution_error, 1e-8);
}

TEST(LogisticRegression, LossDecreasesOverIterations) {
  const JobResult job =
      s2c2_job(JobApp::kLogReg, TraceProfile::kControlledStragglers);
  ASSERT_FALSE(job.failed) << job.error;
  ASSERT_EQ(job.convergence.size(), 8u);
  for (std::size_t it = 1; it < job.convergence.size(); ++it) {
    EXPECT_LT(job.convergence[it], job.convergence[it - 1]) << "it " << it;
  }
  EXPECT_GT(job.completion_time, 0.0);
}

TEST(LogisticRegression, CodedTrajectoryMatchesDirectGradientDescent) {
  // Decode is exact up to fp error, so the coded GD iterates must equal
  // uncoded GD.
  expect_tracks_reference(
      s2c2_job(JobApp::kLogReg, TraceProfile::kControlledStragglers), 8);
}

TEST(LogisticRegression, GradientMatchesFiniteDifference) {
  util::Rng rng(5);
  const auto data = workload::make_classification(40, 6, rng);
  linalg::Vector w(6);
  for (auto& v : w) v = rng.normal(0.0, 0.1);
  const auto grad = logistic_gradient(data, w, 1e-3);
  const double eps = 1e-6;
  for (std::size_t j = 0; j < 6; ++j) {
    linalg::Vector wp = w, wm = w;
    wp[j] += eps;
    wm[j] -= eps;
    const double num =
        (logistic_loss(data, wp, 1e-3) - logistic_loss(data, wm, 1e-3)) /
        (2 * eps);
    EXPECT_NEAR(grad[j], num, 1e-5);
  }
}

TEST(Svm, ObjectiveDecreases) {
  const JobResult job =
      s2c2_job(JobApp::kSvm, TraceProfile::kControlledStragglers);
  expect_tracks_reference(job, 8);
  EXPECT_LT(job.convergence.back(), job.convergence.front());
}

TEST(Svm, SeparableDataReachesLowHinge) {
  // Uncoded subgradient descent: the hinge math itself must optimize.
  util::Rng rng(9);
  const auto data = workload::make_classification(200, 10, rng, 6.0, 0.3);
  const double lambda = 1e-3;
  linalg::Vector w(10, 0.0);
  for (int it = 0; it < 40; ++it) {
    linalg::axpy(-0.5, hinge_subgradient(data, w, lambda), w);
  }
  EXPECT_LT(hinge_objective(data, w, lambda), 0.3);
}

TEST(Svm, TrainsOnVolatileClusterWithRecoveries) {
  // Correct optimization despite timeouts and reassignments along the way.
  const JobResult job =
      s2c2_job(JobApp::kSvm, TraceProfile::kVolatileCloud, 12);
  expect_tracks_reference(job, 12);
  EXPECT_GT(job.timeout_rate, 0.0);
  EXPECT_GT(job.reassigned_chunks, 0u);
  EXPECT_LT(job.convergence.back(), job.convergence.front());
}

TEST(PageRank, CodedMatchesDirect) {
  expect_tracks_reference(
      s2c2_job(JobApp::kPageRank, TraceProfile::kControlledStragglers), 8);
}

TEST(PageRank, RanksSumToOneAndHubsRankHigh) {
  util::Rng rng(13);
  const auto adj = workload::power_law_digraph(300, 3, rng);
  const auto ranks = pagerank_direct(adj, 0.85, 40);
  double sum = 0.0;
  for (double r : ranks) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  // Node 0 (oldest, most attached) should out-rank the median node.
  std::vector<double> sorted(ranks.begin(), ranks.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_GT(ranks[0], sorted[150]);
}

TEST(PageRank, EarlyExitOnTolerance) {
  // The loop stops at the first iteration whose L1 change meets the
  // tolerance, well before the cap.
  harness::JobConfig cfg;
  cfg.app = JobApp::kPageRank;
  cfg.max_iterations = 100;
  cfg.tolerance = 1e-4;
  const JobResult job = harness::run_job(cfg);
  ASSERT_FALSE(job.failed) << job.error;
  EXPECT_TRUE(job.converged);
  EXPECT_LT(job.iterations, 100u);
  ASSERT_EQ(job.convergence.size(), job.iterations);
  EXPECT_LE(job.convergence.back(), cfg.tolerance);
  for (std::size_t it = 0; it + 1 < job.convergence.size(); ++it) {
    EXPECT_GT(job.convergence[it], cfg.tolerance) << "it " << it;
  }
}

TEST(GraphFilter, CodedMatchesDirect) {
  expect_tracks_reference(
      s2c2_job(JobApp::kGraphFilter, TraceProfile::kControlledStragglers), 8);
}

TEST(Hessian, CodedMatchesDirect) {
  util::Rng rng(21);
  const auto a = linalg::Matrix::random_uniform(60, 24, rng);
  linalg::Vector x(60);
  for (auto& v : x) v = rng.uniform(0.05, 0.25);  // σ(1-σ)-like weights
  HessianConfig cfg;
  cfg.a_blocks = 3;
  cfg.chunks_per_partition = 8;
  cfg.oracle_speeds = true;
  const auto result = coded_hessian(a, x, straggler_spec(12, 2, 22), cfg);
  const auto truth = coding::PolyCode::hessian_direct(a, x);
  const double scale = truth.frobenius_norm() + 1.0;
  EXPECT_LT(result.hessian.max_abs_diff(truth) / scale, 1e-6);
  EXPECT_GT(result.latency, 0.0);
}

}  // namespace
}  // namespace s2c2::apps
