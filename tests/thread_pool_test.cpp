// Tests for the help-first fan-out pool behind the sweep sharding and the
// intra-round chunk fan-out: exactly-once parallel_for semantics (including
// under heavily skewed per-index costs and back-to-back small calls),
// bit-identical slot writes at any --jobs, the serial fallbacks for nested
// and re-entrant calls, no deadlock on nested/empty/exception paths, and
// exception propagation to the calling thread.
//
// The scheduling paths here are concurrency-sensitive; to re-check them
// under ThreadSanitizer use the dedicated preset (CI runs it on push):
//   cmake --preset tsan && cmake --build --preset tsan -j
//   ctest --test-dir build-tsan
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/util/thread_pool.h"

namespace s2c2::util {
namespace {

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  for (const std::size_t jobs : {1u, 2u, 5u, 16u}) {
    std::vector<std::atomic<int>> hits(257);
    parallel_for(hits.size(), jobs, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " index=" << i;
    }
  }
}

TEST(ParallelFor, SlotWritesAreDeterministicAcrossJobCounts) {
  // The matrix runner's contract in miniature: each task writes only its
  // own slot, so any job count yields identical output.
  auto run = [](std::size_t jobs) {
    std::vector<double> out(64);
    parallel_for(out.size(), jobs, [&](std::size_t i) {
      double acc = static_cast<double>(i) + 1.0;
      for (int it = 0; it < 100; ++it) acc = acc * 1.0000001 + 0.5;
      out[i] = acc;
    });
    return out;
  };
  const auto serial = run(1);
  const auto parallel = run(8);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << i;  // bit-exact
  }
}

TEST(ParallelFor, ExactlyOnceUnderSkewedCosts) {
  // Index costs spanning ~3 orders of magnitude: a static partition would
  // finish wildly unevenly, so this exercises the dynamic claim loop — and
  // the exactly-once contract must survive the resulting interleavings.
  for (const std::size_t jobs : {2u, 4u, 9u}) {
    std::vector<std::atomic<int>> hits(160);
    parallel_for(hits.size(), jobs, [&](std::size_t i) {
      volatile double sink = 0.0;
      const int spins = (i % 16 == 0) ? 200000 : 100;
      for (int s = 0; s < spins; ++s) sink = sink + 1.0;
      ++hits[i];
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " index=" << i;
    }
  }
}

TEST(ParallelFor, SkewedSlotWritesBitIdenticalAcrossJobCounts) {
  // Determinism under skew: per-slot results must be bit-identical no
  // matter which worker claims which index or in what order.
  auto run = [](std::size_t jobs) {
    std::vector<double> out(96);
    parallel_for(out.size(), jobs, [&](std::size_t i) {
      double acc = 1.0 / (static_cast<double>(i) + 2.0);
      const int iters = 50 + static_cast<int>(i % 7) * 400;
      for (int it = 0; it < iters; ++it) acc = acc * 0.999999 + 1e-9;
      out[i] = acc;
    });
    return out;
  };
  const auto serial = run(1);
  for (const std::size_t jobs : {2u, 3u, 8u}) {
    const auto parallel = run(jobs);
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], parallel[i]) << "jobs=" << jobs << " i=" << i;
    }
  }
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  // Each outer index runs an inner parallel_for. The nesting contract
  // (thread_pool.h): a free parallel_for issued from inside any fan-out
  // body falls back to SERIAL on the calling thread, so inner sweeps never
  // wait on — or multiply — the outer pool's workers.
  std::atomic<int> inner_total{0};
  parallel_for(6, 3, [&](std::size_t) {
    parallel_for(8, 2, [&](std::size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 48);
}

TEST(ParallelFor, NestedCallInsideWorkerRunsSerial) {
  // The serial fallback is observable: inside a fan-out body in_worker()
  // is true and a nested free parallel_for executes every index on the
  // calling thread itself.
  EXPECT_FALSE(ThreadPool::in_worker());
  std::atomic<int> outer_in_worker{0};
  std::atomic<int> inner_on_caller{0};
  parallel_for(4, 4, [&](std::size_t) {
    const std::thread::id outer_tid = std::this_thread::get_id();
    if (ThreadPool::in_worker()) ++outer_in_worker;
    parallel_for(16, 8, [&](std::size_t) {
      if (std::this_thread::get_id() == outer_tid) ++inner_on_caller;
    });
  });
  // Every outer index runs inside a fan-out body, on a worker of the
  // temporary pool or on the draining caller, so all four see in_worker().
  EXPECT_EQ(outer_in_worker.load(), 4);
  EXPECT_EQ(inner_on_caller.load(), 4 * 16);
  EXPECT_FALSE(ThreadPool::in_worker());
}

TEST(ThreadPool, MemberParallelForRunsEveryIndexOnce) {
  ThreadPool pool(3);
  for (const std::size_t count : {1u, 2u, 7u, 129u}) {
    std::vector<std::atomic<int>> hits(count);
    pool.parallel_for(count, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "count=" << count << " i=" << i;
    }
  }
}

TEST(ThreadPool, ReentrantMemberCallRunsSerial) {
  // A body that fans out on its own pool: the inner call finds the pool
  // busy and runs every index on the calling thread, so it completes even
  // on a 1-worker pool whose worker may be the caller.
  ThreadPool pool(1);
  std::vector<std::atomic<int>> inner_on_caller(4);
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::size_t i) {
    const std::thread::id outer_tid = std::this_thread::get_id();
    pool.parallel_for(32, [&](std::size_t) {
      ++total;
      if (std::this_thread::get_id() == outer_tid) ++inner_on_caller[i];
    });
  });
  EXPECT_EQ(total.load(), 4 * 32);
  for (std::size_t i = 0; i < inner_on_caller.size(); ++i) {
    EXPECT_EQ(inner_on_caller[i].load(), 32) << i;
  }
}

TEST(ThreadPool, BackToBackSmallFanOutsStayExact) {
  // Many count = 2 fan-outs on a 3-worker pool: the caller often drains
  // both indices before a worker wakes, so workers keep waking into calls
  // that are already closed or already replaced by the next one. Each call
  // must still run its own indices exactly once, and a late helper must
  // never run an old call's body.
  ThreadPool pool(3);
  constexpr std::size_t kCalls = 1000;
  std::vector<int> slots(2 * kCalls, 0);
  for (std::size_t c = 0; c < kCalls; ++c) {
    pool.parallel_for(2, [&, c](std::size_t i) { slots[2 * c + i] += 1; });
  }
  for (std::size_t s = 0; s < slots.size(); ++s) {
    EXPECT_EQ(slots[s], 1) << "slot " << s;
  }
}

TEST(ThreadPool, MemberParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      if (i == 5) throw std::runtime_error("inner boom");
      ++completed;
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "inner boom");
  }
  EXPECT_LT(completed.load(), 64);
  // The pool must stay usable after a failed fan-out.
  std::atomic<int> after{0};
  pool.parallel_for(8, [&](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 8);
}

TEST(ParallelFor, EmptyCountIsANoOp) {
  std::atomic<int> count{0};
  parallel_for(0, 4, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
}

TEST(ParallelFor, PropagatesFirstException) {
  std::atomic<int> completed{0};
  try {
    parallel_for(32, 4, [&](std::size_t i) {
      if (i == 7) throw std::runtime_error("boom");
      ++completed;
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // The sweep short-circuits after the failure (its results would be
  // discarded anyway), so not every remaining index runs — but the indices
  // claimed before the failure did.
  EXPECT_GT(completed.load(), 0);
  EXPECT_LT(completed.load(), 32);
}

TEST(ParallelFor, ShortCircuitsRemainingWorkAfterFailure) {
  // The very first claimed index fails, so the bulk of the 1000-index
  // sweep must be skipped once the stop flag is visible.
  std::atomic<int> completed{0};
  EXPECT_THROW(parallel_for(1000, 2, [&](std::size_t i) {
                 if (i == 0) throw std::runtime_error("early");
                 ++completed;
               }),
               std::runtime_error);
  EXPECT_LT(completed.load(), 1000);
}

TEST(ParallelFor, ZeroJobsMeansHardwareThreads) {
  std::atomic<int> count{0};
  parallel_for(10, 0, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

}  // namespace
}  // namespace s2c2::util
