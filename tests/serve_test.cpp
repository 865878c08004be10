// Tests for the coalesced serving harness (src/harness/serve.h): open-loop
// determinism at any thread count, coalescing behavior, deadline admission,
// functional correctness of batched products, and the decode-amortization
// property the serving layer exists to exploit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/harness/serve.h"
#include "src/util/thread_pool.h"

namespace s2c2::harness {
namespace {

ServeConfig small_config() {
  ServeConfig c;
  c.strategy = StrategyKind::kS2C2;
  c.trace = TraceProfile::kStableCloud;
  c.workers = 8;
  c.requests = 24;
  c.tenants = 3;
  c.load_factor = 6.0;  // queues build -> coalescing happens
  c.max_batch = 4;
  c.functional = true;
  c.seed = 11;
  return c;
}

TEST(Serve, FingerprintIdenticalAcrossRepeatRuns) {
  const ServeConfig c = small_config();
  const ServeResult a = run_serve(c);
  const ServeResult b = run_serve(c);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(Serve, SweepDeterministicAtAnyThreadCount) {
  // The --jobs contract: sharding serve cells across threads must not
  // change a single outcome bit. Cells differ in strategy and trace so
  // the schedule actually interleaves distinct work.
  std::vector<ServeConfig> cells;
  for (const StrategyKind s :
       {StrategyKind::kS2C2, StrategyKind::kMds, StrategyKind::kReplication}) {
    ServeConfig c = small_config();
    c.strategy = s;
    cells.push_back(c);
    c.trace = TraceProfile::kVolatileCloud;
    c.seed = 29;
    cells.push_back(c);
  }
  const std::vector<ServeResult> serial = run_serve_sweep(cells, 1);
  const std::vector<ServeResult> threaded = run_serve_sweep(cells, 4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].fingerprint(), threaded[i].fingerprint()) << i;
  }
}

TEST(Serve, CoalescingBatchesConcurrentRequests) {
  ServeConfig c = small_config();
  c.load_factor = 12.0;  // ~12 arrivals per round-duration, cap 4
  const ServeResult r = run_serve(c);
  EXPECT_EQ(r.completed, c.requests);
  EXPECT_LT(r.rounds, c.requests);  // strictly fewer rounds than requests
  std::size_t max_width = 0;
  for (const RequestOutcome& o : r.outcomes) {
    max_width = std::max(max_width, o.width);
    EXPECT_LE(o.width, c.max_batch);
    EXPECT_GE(o.dispatch, o.arrival);
    EXPECT_GT(o.completion, o.dispatch);
  }
  EXPECT_GT(max_width, 1u);
}

TEST(Serve, MaxBatchOneServesOneRoundPerRequest) {
  ServeConfig c = small_config();
  c.max_batch = 1;
  const ServeResult r = run_serve(c);
  EXPECT_EQ(r.completed, c.requests);
  EXPECT_EQ(r.rounds, c.requests);
  for (const RequestOutcome& o : r.outcomes) EXPECT_EQ(o.width, 1u);
}

TEST(Serve, BatchedProductsMatchDirectMatvec) {
  // Every served column — batched or solo — must equal the direct
  // product of that request's own vector (tenant isolation: coalescing
  // shares the round, never the answers).
  ServeConfig c = small_config();
  c.load_factor = 8.0;
  const ServeResult r = run_serve(c);
  EXPECT_EQ(r.products_verified, r.completed);
  EXPECT_LT(r.max_error, 1e-7);
}

TEST(Serve, UncodedBaselineForwardsExactProducts) {
  // The replication baseline forwards the exact block product through the
  // DirectMultiply matmat closure — bitwise, not approximately.
  ServeConfig c = small_config();
  c.strategy = StrategyKind::kReplication;
  const ServeResult r = run_serve(c);
  EXPECT_EQ(r.completed, c.requests);
  EXPECT_EQ(r.products_verified, r.completed);
  EXPECT_EQ(r.max_error, 0.0);
}

TEST(Serve, FullWidthBlocksVerifyEveryColumn) {
  // Width-16 rounds run the 2 x 8 matmat tile twice: in the engine's chunk
  // runs and in the one-product check of the round. Replication forwards
  // the same kernel's product, so its check must read exactly 0.
  for (const StrategyKind s :
       {StrategyKind::kS2C2, StrategyKind::kReplication}) {
    ServeConfig c = small_config();
    c.strategy = s;
    c.requests = 64;
    c.load_factor = 24.0;
    c.max_batch = 16;
    const ServeResult r = run_serve(c);
    std::size_t max_width = 0;
    for (const RequestOutcome& o : r.outcomes) {
      max_width = std::max(max_width, o.width);
    }
    EXPECT_EQ(max_width, 16u) << core::strategy_name(s);
    EXPECT_EQ(r.products_verified, c.requests) << core::strategy_name(s);
    if (s == StrategyKind::kReplication) {
      EXPECT_EQ(r.max_error, 0.0);
    } else {
      EXPECT_LT(r.max_error, 1e-7);
    }
  }
}

TEST(Serve, OverlappedCheckMatchesSerialCheck) {
  // At top level run_serve computes each round's exact check on a helper
  // thread beside the round; inside a fan-out body it runs round then
  // check on one thread. Both must verify the same bits, with the
  // engine's inner pool off and on.
  for (const std::size_t inner_jobs : {1u, 2u}) {
    ServeConfig c = small_config();
    c.requests = 64;
    c.load_factor = 24.0;
    c.max_batch = 16;
    c.inner_jobs = inner_jobs;
    ASSERT_FALSE(util::ThreadPool::in_worker());
    const ServeResult overlapped = run_serve(c);
    std::vector<ServeResult> serial(2);
    util::parallel_for(2, 2, [&](std::size_t i) {
      EXPECT_TRUE(util::ThreadPool::in_worker());
      serial[i] = run_serve(c);
    });
    EXPECT_EQ(overlapped.products_verified, c.requests) << inner_jobs;
    for (const ServeResult& s : serial) {
      EXPECT_EQ(s.fingerprint(), overlapped.fingerprint()) << inner_jobs;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s.max_error),
                std::bit_cast<std::uint64_t>(overlapped.max_error))
          << inner_jobs;
      EXPECT_EQ(s.product_digest, overlapped.product_digest) << inner_jobs;
      EXPECT_EQ(s.products_verified, overlapped.products_verified)
          << inner_jobs;
    }
  }
}

TEST(Serve, EngineFailurePropagatesThroughOverlappedCheck) {
  // The round throws while the helper computes its check: the error must
  // still reach the caller, after both finish, and run_serve must return.
  // A fixed arrival rate skips the probe round, so the throw comes from a
  // served round with the helper active.
  ServeConfig c = small_config();
  c.strategy = StrategyKind::kReplication;
  c.trace = TraceProfile::kByzantine;
  c.arrival_rate = 1.0;
  ASSERT_FALSE(util::ThreadPool::in_worker());
  try {
    (void)run_serve(c);
    ADD_FAILURE() << "replication served byzantine responses";
  } catch (const std::runtime_error& ex) {
    EXPECT_STREQ(ex.what(),
                 "cluster failure: replication cannot verify byzantine "
                 "responses");
  }
}

TEST(Serve, DeadlineRejectsStaleRequests) {
  ServeConfig c = small_config();
  c.load_factor = 40.0;  // far past saturation: queues outrun the server
  c.max_batch = 2;
  c.deadline = 1e-6;     // essentially "must dispatch on arrival"
  const ServeResult r = run_serve(c);
  EXPECT_GT(r.rejected, 0u);
  EXPECT_EQ(r.completed + r.rejected, c.requests);
  for (const RequestOutcome& o : r.outcomes) {
    if (o.rejected) {
      EXPECT_EQ(o.width, 0u);
      EXPECT_EQ(o.completion, o.dispatch);  // dropped, never served
    }
  }
}

TEST(Serve, StrategyWithoutBlockRoundsDegradesToWidthOne) {
  // The bilinear poly family cannot run b > 1 rounds; the server degrades
  // to width-1 dispatches instead of failing.
  ServeConfig c = small_config();
  c.strategy = StrategyKind::kPoly;
  c.workers = 12;  // poly needs n >= a² = 9
  c.functional = false;  // poly's functional product is a Hessian, not A·x
  c.op_rows = 240;
  c.op_cols = 36;  // divisible by the a = 3 block split
  const ServeResult r = run_serve(c);
  EXPECT_EQ(r.completed, c.requests);
  EXPECT_EQ(r.rounds, c.requests);
  for (const RequestOutcome& o : r.outcomes) EXPECT_EQ(o.width, 1u);
}

TEST(Serve, CoalescedRoundsHitDecodeCache) {
  // Iterative serving repeats responder sets: the engine's DecodeContext
  // must serve later rounds from cache (this is the telemetry the bench
  // bars on).
  ServeConfig c = small_config();
  c.trace = TraceProfile::kStableCloud;
  c.requests = 32;
  const ServeResult r = run_serve(c);
  EXPECT_GT(r.decode.hits + r.decode.misses, 0u);
  EXPECT_GT(r.decode.hits, 0u);
}

TEST(Serve, BatchingAmortizesDecodeCostPerRequest) {
  // The tentpole's economic claim, at test scale: the same request stream
  // served with coalescing charges fewer decode flops per request than
  // width-1 serving, because each cached factorization is shared by all b
  // columns of a batch (and each arrival-window's responder set is
  // factorized once instead of once per request). Geometry chosen so the
  // factorization is the dominant term: one row per partition (solve cost
  // per column stays tiny) and k well below n (deep parity subsets, so
  // the Schur factor is O(p³) with large p).
  ServeConfig batched = small_config();
  batched.trace = TraceProfile::kVolatileCloud;  // responder sets churn
  batched.workers = 24;
  batched.k = 8;
  batched.chunks_per_partition = 1;
  batched.op_rows = 8;
  batched.op_cols = 24;
  batched.requests = 48;
  batched.load_factor = 8.0;
  batched.max_batch = 8;
  ServeConfig single = batched;
  single.max_batch = 1;
  single.arrival_rate = run_serve(batched).realized_rate;  // same stream
  batched.arrival_rate = single.arrival_rate;

  const ServeResult rb = run_serve(batched);
  const ServeResult rs = run_serve(single);
  ASSERT_GT(rb.completed, 0u);
  ASSERT_GT(rs.completed, 0u);
  // Coalescing factorizes each arrival window's responder set once
  // instead of once per request...
  EXPECT_LT(rb.decode.factor_flops, rs.decode.factor_flops);
  // ...so the per-request total decode bill is strictly smaller.
  const double per_req_batched =
      (rb.decode.factor_flops + rb.decode.solve_flops) /
      static_cast<double>(rb.completed);
  const double per_req_single =
      (rs.decode.factor_flops + rs.decode.solve_flops) /
      static_cast<double>(rs.completed);
  EXPECT_LT(per_req_batched, per_req_single);
}

TEST(Serve, RejectsKAboveWorkers) {
  // Same up-front check as the scenario matrix and the job driver: the
  // uncoded baseline would otherwise serve with a k it never reads.
  for (const StrategyKind s :
       {StrategyKind::kS2C2, StrategyKind::kReplication}) {
    ServeConfig c = small_config();  // 8 workers
    c.strategy = s;
    c.k = 9;
    try {
      (void)run_serve(c);
      ADD_FAILURE() << core::strategy_name(s) << " served with k > workers";
    } catch (const std::invalid_argument& ex) {
      EXPECT_STREQ(ex.what(), "serve needs k <= workers (k = 9, workers = 8)")
          << core::strategy_name(s);
    }
    c.k = 8;  // k == workers is the largest legal code
    EXPECT_EQ(run_serve(c).completed, c.requests) << core::strategy_name(s);
  }
}

}  // namespace
}  // namespace s2c2::harness
