// util::Arena unit tests + the allocation-count regression suite that
// locks down the PR's headline property: a warmed engine's steady-state
// run_round / run_round_block touches the heap ZERO times when the caller
// recycles results (StrategyEngine::recycle), for every
// strategy that reports supports_allocation_free_rounds().
//
// The regression works by replacing the global throwing operator new with
// a counting hook (malloc-backed, so it composes with the default
// operator delete semantics on glibc): count_allocations() zeroes the
// counter, runs the probe, and returns how many allocations it made. Any
// future change that sneaks a vector resize, a std::function capture, or
// a map rehash back into the hot path fails here with the exact count —
// not as a silent rounds/sec regression in BENCH_rounds.json.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/core/engine_factory.h"
#include "src/core/strategy_config.h"
#include "src/core/strategy_engine.h"
#include "src/linalg/matrix.h"
#include "src/predict/predictors.h"
#include "src/sched/reassignment.h"
#include "src/util/arena.h"
#include "src/util/rng.h"
#include "src/workload/trace_gen.h"
#include "tests/test_util.h"

namespace {
std::atomic<std::size_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

// Global replacements: throwing new/new[] count; deletes release through
// free (the malloc-backed layout these hooks and glibc's defaults share).
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace s2c2::core {
// Prints a parameter as its strategy name, so the ctest names of the
// StrategyKind-parameterized suite below carry no byte dump. Declared in
// StrategyKind's namespace for argument-dependent lookup.
void PrintTo(StrategyKind kind, std::ostream* os) {
  *os << strategy_name(kind);
}
}  // namespace s2c2::core

namespace s2c2 {
namespace {

using core::StrategyKind;
using core::strategy_name;

/// Allocations performed by `fn` (templated to avoid a std::function
/// whose own construction would be counted).
template <typename Fn>
std::size_t count_allocations(Fn&& fn) {
  g_alloc_count.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_alloc_count.load();
}

TEST(Arena, BumpsWithinOneBlockAndCountsUsage) {
  util::Arena arena(1024);
  EXPECT_EQ(arena.bytes_used(), 0u);
  void* a = arena.allocate(100);
  void* b = arena.allocate(100);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.block_count(), 1u);
  EXPECT_GE(arena.bytes_used(), 200u);
  EXPECT_EQ(arena.bytes_reserved(), 1024u);
  // Both live in the same 1 KiB block.
  const auto* base = static_cast<const std::byte*>(a);
  EXPECT_LT(static_cast<const std::byte*>(b) - base, 1024);
}

TEST(Arena, ResetRetainsBlocksAndReplaysTheSamePointers) {
  util::Arena arena(4096);
  std::vector<void*> first;
  for (int i = 0; i < 10; ++i) first.push_back(arena.allocate(256));
  const std::size_t blocks = arena.block_count();
  const std::size_t reserved = arena.bytes_reserved();

  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.block_count(), blocks) << "reset must retain blocks";
  EXPECT_EQ(arena.bytes_reserved(), reserved);

  // An identical allocation profile after reset replays the identical
  // pointer sequence from the retained blocks — the steady-state round
  // contract — and touches the heap zero times.
  const std::size_t allocs = count_allocations([&] {
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(arena.allocate(256), first[static_cast<std::size_t>(i)]);
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(Arena, ChainsNewBlocksWhenExhausted) {
  util::Arena arena(512);
  (void)arena.allocate(400);
  EXPECT_EQ(arena.block_count(), 1u);
  (void)arena.allocate(400);  // does not fit the 512-byte remainder
  EXPECT_EQ(arena.block_count(), 2u);
  EXPECT_EQ(arena.bytes_reserved(), 1024u);
}

TEST(Arena, OversizeRequestsGetADedicatedRetainedBlock) {
  util::Arena arena(256);
  void* big = arena.allocate(10000);  // > block_bytes: exact-fit block
  ASSERT_NE(big, nullptr);
  EXPECT_GE(arena.bytes_reserved(), 10000u);
  const std::size_t blocks = arena.block_count();

  // The oversize block is retained like any other: the same profile after
  // reset is allocation-free and lands on the same storage.
  arena.reset();
  const std::size_t allocs =
      count_allocations([&] { EXPECT_EQ(arena.allocate(10000), big); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(arena.block_count(), blocks);
}

TEST(Arena, RespectsAlignment) {
  util::Arena arena(1024);
  for (const std::size_t align : {1u, 2u, 4u, 8u, 16u}) {
    (void)arena.allocate(1);  // odd offset pressure
    void* p = arena.allocate(32, align);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
        << "align " << align;
  }
  const std::span<double> d = arena.alloc_span<double>(7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % alignof(double), 0u);
  EXPECT_EQ(d.size(), 7u);
}

TEST(Arena, ZeroByteAllocationYieldsDistinctValidPointer) {
  util::Arena arena;
  void* a = arena.allocate(0);
  void* b = arena.allocate(0);
  ASSERT_NE(a, nullptr);
  EXPECT_NE(a, b);
}

/// Steady-state heap-freedom, per strategy: warm the engine (decode-cache
/// fill, scratch growth, result-pool seeding via recycle), then assert a
/// further round allocates nothing. Constant speeds + oracle predictions
/// keep every round on the timeout-free hot path — the recovery wave and
/// Byzantine sub-paths intentionally still allocate (they run on
/// exceptional rounds only; see round_executor.cpp).
class AllocationFreeRoundsTest
    : public ::testing::TestWithParam<StrategyKind> {};

/// Engine under the regression's standard shape. Poly kinds reject the
/// dense 240x30 / 12-chunk combination at construction (functional-mode
/// divisibility), so they get cost-only params — they skip right after
/// construction anyway (no allocation-free claim).
std::unique_ptr<core::StrategyEngine> make_probe_engine(
    StrategyKind kind, const linalg::Matrix& a) {
  core::EngineParams p;
  p.cluster = test::make_spec(test::uniform_traces(12));
  p.dense = &a;
  p.k = 10;
  p.chunks_per_partition = 12;
  p.oracle_speeds = true;
  if (kind == StrategyKind::kPoly ||
      kind == StrategyKind::kPolyConventional) {
    p.dense = nullptr;
    p.rows = 240;
    p.cols = 24;
    p.chunks_per_partition = 8;
    p.a_blocks = 3;
  }
  return core::make_engine(kind, std::move(p));
}

TEST_P(AllocationFreeRoundsTest, SteadyStateRunRoundIsHeapFree) {
  const StrategyKind kind = GetParam();
  util::Rng rng(19);
  const linalg::Matrix a = linalg::Matrix::random_uniform(240, 30, rng);
  const auto engine = make_probe_engine(kind, a);
  if (!engine->supports_allocation_free_rounds()) {
    GTEST_SKIP() << strategy_name(kind)
                 << " does not claim allocation-free rounds";
  }

  linalg::Vector x(a.cols());
  for (auto& v : x) v = rng.normal();
  for (int warm = 0; warm < 4; ++warm) {
    engine->recycle(engine->run_round(x));
  }
  const std::size_t allocs = count_allocations(
      [&] { engine->recycle(engine->run_round(x)); });
  EXPECT_EQ(allocs, 0u)
      << strategy_name(kind)
      << ": steady-state run_round touched the heap " << allocs << " times";
}

TEST_P(AllocationFreeRoundsTest, SteadyStateBlockRoundIsHeapFree) {
  const StrategyKind kind = GetParam();
  util::Rng rng(23);
  const linalg::Matrix a = linalg::Matrix::random_uniform(240, 30, rng);
  const auto engine = make_probe_engine(kind, a);
  if (!engine->supports_allocation_free_rounds() ||
      !engine->supports_block_rounds()) {
    GTEST_SKIP() << strategy_name(kind) << " outside the contract";
  }

  const std::size_t width = 8;
  linalg::Matrix x_block(a.cols(), width);
  for (auto& v : x_block.mutable_data()) v = rng.normal();
  for (int warm = 0; warm < 4; ++warm) {
    engine->recycle(engine->run_round_block(x_block, width));
  }
  const std::size_t allocs = count_allocations(
      [&] { engine->recycle(engine->run_round_block(x_block, width)); });
  EXPECT_EQ(allocs, 0u)
      << strategy_name(kind) << ": steady-state run_round_block(b=" << width
      << ") touched the heap " << allocs << " times";
}

TEST(AllocationFreeRounds, ClaimMatchesTheMdsFamily) {
  // The capability flag itself is wire-ish: the coded MDS family claims
  // it, everything else must not (their round loops still allocate by
  // design — poly's per-round Decoder, lt's symbol buffers, the uncoded
  // baselines' closures).
  util::Rng rng(29);
  const linalg::Matrix a = linalg::Matrix::random_uniform(240, 30, rng);
  for (const StrategyKind kind : core::all_strategy_kinds()) {
    core::EngineParams p;
    p.cluster = test::make_spec(test::uniform_traces(12));
    p.dense = &a;
    p.k = 10;
    p.chunks_per_partition = kind == StrategyKind::kPoly ||
                                     kind == StrategyKind::kPolyConventional
                                 ? 8
                                 : 12;
    p.a_blocks = 3;
    p.oracle_speeds = true;
    if (kind == StrategyKind::kPoly ||
        kind == StrategyKind::kPolyConventional) {
      p.dense = nullptr;
      p.rows = 240;
      p.cols = 24;
    }
    const auto engine = core::make_engine(kind, std::move(p));
    const bool mds_family =
        kind == StrategyKind::kMds || kind == StrategyKind::kS2C2 ||
        kind == StrategyKind::kS2C2Basic || kind == StrategyKind::kAgc;
    EXPECT_EQ(engine->supports_allocation_free_rounds(), mds_family)
        << strategy_name(kind);
  }
}

// ---- §4.3 recovery rounds ------------------------------------------------

/// Heap allocations one decode-cache miss may cost: the key copy, the map
/// node, the entry, its missing-block list, and the LU factors' matrix and
/// pivots (six), plus headroom for the decode scratch growing to a larger
/// parity count than any earlier round needed.
constexpr std::size_t kAllocsPerDecodeMiss = 8;

TEST(RecoveryRounds, WarmPlannerIsHeapFree) {
  const std::vector<std::size_t> deficient{2, 5, 5, 7};
  const std::vector<std::size_t> holders{0, 3, 4};
  const std::vector<std::span<const std::size_t>> have(4, holders);
  const std::vector<std::size_t> needed{2, 1, 1, 3};
  const std::vector<double> speeds{1.0, 2.0, 0.0, 1.5, 0.7, 1.1, 0.9, 1.3};
  sched::ReassignmentScratch scratch;
  sched::ReassignmentPlan plan;
  sched::plan_reassignment_into(deficient, have, needed, speeds, scratch,
                                plan);
  const std::size_t allocs = count_allocations([&] {
    sched::plan_reassignment_into(deficient, have, needed, speeds, scratch,
                                  plan);
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(plan.total_chunks(), 7u);
}

TEST(RecoveryRounds, RepeatedRecoveryRoundIsHeapFree) {
  // Equal-speed predictions over a cluster whose last two workers run five
  // times slower: every round misses the same two workers, fires the §4.3
  // timeout and re-plans the same deficient chunks onto the same
  // responders. The decode cache therefore hits, and a warmed round must
  // not touch the heap at all — the wave loop and the planner included.
  test::FunctionalMatVec f(12, 8);
  std::vector<sim::SpeedTrace> traces = test::uniform_traces(12);
  traces[10] = traces[11] = sim::SpeedTrace::constant(0.2);
  core::EngineConfig cfg;
  cfg.strategy = StrategyKind::kS2C2;
  cfg.chunks_per_partition = test::kChunks;
  core::CodedComputeEngine engine(f.job, test::make_spec(std::move(traces)),
                                  cfg,
                                  std::make_unique<predict::EqualSpeedPredictor>());
  for (int warm = 0; warm < 4; ++warm) engine.recycle(engine.run_round(f.x));

  const std::size_t misses = engine.decode_stats().misses;
  std::optional<core::RoundResult> round;
  const std::size_t allocs =
      count_allocations([&] { round.emplace(engine.run_round(f.x)); });
  ASSERT_TRUE(round->stats.timeout_fired);
  EXPECT_GT(round->stats.reassigned_chunks, 0u);
  EXPECT_EQ(engine.decode_stats().misses, misses);
  EXPECT_EQ(allocs, 0u) << "a cache-hit recovery round touched the heap "
                        << allocs << " times";
  ASSERT_TRUE(round->y.has_value());
  test::expect_close(*round->y, f.truth, 1e-8);
}

TEST(RecoveryRounds, VolatileRecoveryRoundsAllocateOnlyOnDecodeMisses) {
  // A last-value predictor on volatile cloud traces: the timeout fires on
  // most rounds and fresh responder sets keep missing the decode cache.
  // Past warm-up, a recovery round may allocate only for its misses.
  constexpr std::size_t n = 40, k = 32, chunks = 8, warmup = 20, rounds = 60;
  util::Rng rng(0x4ec0);
  const linalg::Matrix a = linalg::Matrix::random_uniform(16 * k, 24, rng);
  linalg::Vector x(a.cols());
  for (double& v : x) v = rng.normal();
  const linalg::Vector truth = a.matvec(x);
  const core::CodedMatVecJob job(a, n, k, chunks);
  core::EngineConfig cfg;
  cfg.strategy = StrategyKind::kS2C2;
  cfg.chunks_per_partition = chunks;
  // One trace sample per round of a unit-speed cluster.
  core::EngineConfig probe = cfg;
  probe.oracle_speeds = true;
  const double dt = core::CodedComputeEngine(
                        job, test::make_spec(test::uniform_traces(n)), probe)
                        .run_round()
                        .stats.latency();
  core::CodedComputeEngine engine(
      job,
      test::make_spec(workload::traces_from_series(
          workload::cloud_speed_corpus(n, 4 * (warmup + rounds),
                                       workload::volatile_cloud_config(), rng),
          dt)),
      cfg);
  for (std::size_t r = 0; r < warmup; ++r) {
    engine.recycle(engine.run_round(x));
  }

  std::size_t recovery_rounds = 0, misses_seen = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t misses0 = engine.decode_stats().misses;
    std::optional<core::RoundResult> round;
    const std::size_t allocs =
        count_allocations([&] { round.emplace(engine.run_round(x)); });
    const std::size_t misses = engine.decode_stats().misses - misses0;
    ASSERT_TRUE(round->y.has_value());
    test::expect_close(*round->y, truth, 1e-8);
    if (round->stats.timeout_fired) {
      ++recovery_rounds;
      misses_seen += misses;
      EXPECT_LE(allocs, kAllocsPerDecodeMiss * misses)
          << "round " << r << ": " << allocs << " allocations for " << misses
          << " decode misses";
    }
    engine.recycle(std::move(*round));
  }
  EXPECT_GE(recovery_rounds, 10u);
  EXPECT_GT(misses_seen, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, AllocationFreeRoundsTest,
    ::testing::ValuesIn(core::all_strategy_kinds()),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      std::string name = strategy_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace s2c2
