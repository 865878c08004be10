#include "src/harness/serve.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>

#include "src/core/engine_factory.h"
#include "src/linalg/matrix.h"
#include "src/util/hash.h"
#include "src/util/require.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace s2c2::harness {

using util::fnv1a;
using util::hex64;
using util::mix64;

namespace {

/// Serve-layer seed salt — deliberately distinct from the scenario
/// matrix's trace_salt/cell_seed streams, so adding the serving layer
/// cannot perturb a single bit of the pinned sweep goldens.
std::uint64_t serve_salt(std::uint64_t seed) {
  return mix64(seed ^ 0x5e12e1a7c0a1e5ceull);
}

struct Request {
  double arrival = 0.0;
  std::size_t tenant = 0;
  linalg::Vector x;  // empty in cost-only mode
};

/// Builds a fresh engine for the config (probe and serve runs must not
/// share one: engines mutate their clock/caches). `dense` is borrowed and
/// must outlive the engine; null runs cost-only from rows x cols.
std::unique_ptr<core::StrategyEngine> make_serve_engine(
    const ServeConfig& config, const core::ClusterSpec& spec,
    std::uint64_t salt, const linalg::Matrix* dense, std::size_t rows,
    std::size_t cols) {
  core::EngineParams p;
  p.cluster = spec;
  p.k = config.effective_k();
  p.chunks_per_partition = config.chunks_per_partition;
  // Serving reads true trace speeds at dispatch (oracle): the layer under
  // test is batching/coalescing, not prediction quality.
  p.oracle_speeds = true;
  p.replication.placement_seed = mix64(salt ^ 0x91ace3e9ull);
  p.inner_jobs = config.inner_jobs;
  if (dense != nullptr) {
    p.dense = dense;
  } else {
    p.rows = rows;
    p.cols = cols;
  }
  return core::make_engine(config.strategy, std::move(p));
}

/// Digest of one served block, word by word: each double's bit pattern
/// takes one multiply-xorshift step (the round shape of mix64) in lane
/// i % 4, and mix64 joins the lanes. Four lanes keep the multiplies off
/// one serial chain, so a 1600 x 16 block folds in ~15 us.
std::uint64_t block_digest(std::span<const double> block) {
  const auto step = [](std::uint64_t h, double v) {
    h = (h ^ std::bit_cast<std::uint64_t>(v)) * 0x9e3779b97f4a7c15ull;
    return h ^ (h >> 32);
  };
  std::uint64_t h0 = 1, h1 = 2, h2 = 3, h3 = 4;
  std::size_t i = 0;
  for (; i + 4 <= block.size(); i += 4) {
    h0 = step(h0, block[i]);
    h1 = step(h1, block[i + 1]);
    h2 = step(h2, block[i + 2]);
    h3 = step(h3, block[i + 3]);
  }
  for (; i < block.size(); ++i) h0 = step(h0, block[i]);
  return mix64(mix64(mix64(mix64(h0) ^ h1) ^ h2) ^ h3);
}

}  // namespace

double percentile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double rank = q * static_cast<double>(sample.size());
  const std::size_t idx =
      rank <= 1.0 ? 0
                  : std::min(sample.size() - 1,
                             static_cast<std::size_t>(std::ceil(rank)) - 1);
  return sample[idx];
}

std::string ServeResult::fingerprint() const {
  std::uint64_t h = util::kFnvOffset;
  for (const RequestOutcome& o : outcomes) {
    h = fnv1a(h, static_cast<std::uint64_t>(o.id));
    h = fnv1a(h, static_cast<std::uint64_t>(o.tenant));
    h = fnv1a(h, o.arrival);
    h = fnv1a(h, o.dispatch);
    h = fnv1a(h, o.completion);
    h = fnv1a(h, static_cast<std::uint64_t>(o.round));
    h = fnv1a(h, static_cast<std::uint64_t>(o.width));
    h = fnv1a(h, static_cast<std::uint64_t>(o.rejected ? 1 : 0));
  }
  h = fnv1a(h, static_cast<std::uint64_t>(rounds));
  h = fnv1a(h, static_cast<std::uint64_t>(decode.entries));
  h = fnv1a(h, static_cast<std::uint64_t>(decode.hits));
  h = fnv1a(h, static_cast<std::uint64_t>(decode.misses));
  h = fnv1a(h, decode.factor_flops);
  h = fnv1a(h, decode.solve_flops);
  h = fnv1a(h, max_error);
  // Cost-only runs serve no products; their fingerprints stop here.
  if (products_verified > 0) h = fnv1a(h, product_digest);
  return hex64(h);
}

ServeResult run_serve(const ServeConfig& config) {
  S2C2_REQUIRE(config.workers >= 2, "serve needs >= 2 workers");
  S2C2_REQUIRE(config.tenants >= 1, "serve needs >= 1 tenant");
  require_k_within_workers("serve", config.workers, config.k);
  const std::uint64_t salt = serve_salt(config.seed);

  // Reuse the scenario matrix's trace/cluster machinery (same calibration
  // rules: functional fleets run proportionally slower so network latency
  // does not swamp small operators).
  ScenarioConfig sc;
  sc.workers = config.workers;
  sc.k = config.k;
  sc.stragglers = config.stragglers;
  sc.chunks_per_partition = config.chunks_per_partition;
  sc.rounds = std::max<std::size_t>(config.requests, 16);  // trace length
  sc.seed = config.seed;
  sc.functional = config.functional;
  const core::ClusterSpec spec = make_cluster(config.trace, sc, salt);

  const std::size_t rows =
      config.op_rows != 0
          ? config.op_rows
          : std::max<std::size_t>(240, 2 * config.workers);
  const std::size_t cols = config.op_cols != 0 ? config.op_cols : 36;

  linalg::Matrix dense;
  if (config.functional) {
    util::Rng op_rng(mix64(salt ^ 0x0be7a70ull));
    dense = linalg::Matrix::random_uniform(rows, cols, op_rng);
  }
  const linalg::Matrix* op = config.functional ? &dense : nullptr;

  // Arrival-rate auto-calibration: one latency-only probe round on a
  // throwaway engine (the serving engine must not see the probe — its
  // clock and decode cache belong to real rounds only). The probe is
  // cost-only even in functional mode: its latency comes from the trace
  // and the rows x cols cost, so encoding the operator would buy nothing.
  double rate = config.arrival_rate;
  if (rate <= 0.0) {
    const std::unique_ptr<core::StrategyEngine> probe =
        make_serve_engine(config, spec, salt, nullptr, rows, cols);
    const double probe_latency = probe->run_round().stats.latency();
    S2C2_CHECK(probe_latency > 0.0, "probe round latency must be positive");
    rate = config.load_factor / probe_latency;
  }

  // The full open-loop request stream, generated up front from one seeded
  // stream — arrivals, tenants, and request vectors are independent of
  // how the server later batches them.
  std::vector<Request> reqs(config.requests);
  util::Rng rng(mix64(salt ^ 0xa112ece55ull));
  double t = 0.0;
  for (Request& r : reqs) {
    t += rng.exponential(rate);
    r.arrival = t;
    r.tenant = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(config.tenants) - 1));
    if (config.functional) {
      r.x.resize(cols);
      for (double& v : r.x) v = rng.normal();
    }
  }

  ServeResult result;
  result.config = config;
  result.realized_rate = rate;
  result.outcomes.resize(config.requests);
  for (std::size_t i = 0; i < config.requests; ++i) {
    result.outcomes[i].id = i;
    result.outcomes[i].tenant = reqs[i].tenant;
    result.outcomes[i].arrival = reqs[i].arrival;
  }

  const std::unique_ptr<core::StrategyEngine> engine =
      make_serve_engine(config, spec, salt, op, rows, cols);
  // Strategies without block rounds (the bilinear polynomial family)
  // degrade to width-1 dispatches instead of failing.
  const std::size_t cap = engine->supports_block_rounds()
                              ? std::max<std::size_t>(1, config.max_batch)
                              : 1;

  // The serve loop's own wall clock. The engine's private clock advances
  // only by round latencies — idle gaps waiting for arrivals do not age
  // the speed traces (see the header's clock-semantics note).
  std::deque<std::size_t> queue;
  std::size_t next = 0;
  double clock = 0.0;
  std::vector<double> latencies;
  latencies.reserve(config.requests);
  linalg::Vector truth;  // the round's direct product, rows x width
  // The exact check reads only `dense` and the round's panel, both fixed
  // before the round starts, so one helper thread computes it while this
  // thread runs the round. Cost-only runs have nothing to check, and a
  // call inside a fan-out body (run_serve_sweep at --jobs N) must not add
  // threads: both get a 0-worker pool, which runs round then check here.
  util::ThreadPool overlap(
      config.functional && !util::ThreadPool::in_worker() ? 1 : 0);

  while (next < reqs.size() || !queue.empty()) {
    if (queue.empty()) clock = std::max(clock, reqs[next].arrival);
    while (next < reqs.size() && reqs[next].arrival <= clock) {
      queue.push_back(next++);
    }
    // Deadline admission: a request whose deadline already passed while
    // queued is dropped at dispatch time, never batched.
    while (!queue.empty() && config.deadline > 0.0 &&
           clock - reqs[queue.front()].arrival > config.deadline) {
      RequestOutcome& o = result.outcomes[queue.front()];
      o.rejected = true;
      o.dispatch = clock;
      o.completion = clock;
      ++result.rejected;
      queue.pop_front();
    }
    if (queue.empty()) continue;

    // Coalesce the head of the queue into one block round.
    const std::size_t width = std::min(cap, queue.size());
    std::vector<std::size_t> batch(queue.begin(), queue.begin() +
                                                      static_cast<std::ptrdiff_t>(width));
    queue.erase(queue.begin(),
                queue.begin() + static_cast<std::ptrdiff_t>(width));

    linalg::Matrix panel;
    if (config.functional) {
      panel = linalg::Matrix(cols, width);
      for (std::size_t j = 0; j < width; ++j) {
        const linalg::Vector& x = reqs[batch[j]].x;
        for (std::size_t r = 0; r < cols; ++r) panel(r, j) = x[r];
      }
    }
    if (config.functional) truth.resize(rows * width);
    core::RoundResult res;
    overlap.parallel_for(config.functional ? 2 : 1, [&](std::size_t i) {
      if (i == 0) {
        res = engine->run_round_block(panel, width);
      } else {
        dense.matmat_into(panel.data(), width, truth);
      }
    });
    const double completion = clock + res.stats.latency();

    for (std::size_t j = 0; j < width; ++j) {
      RequestOutcome& o = result.outcomes[batch[j]];
      o.dispatch = clock;
      o.completion = completion;
      o.round = result.rounds;
      o.width = width;
      latencies.push_back(o.latency());
    }
    result.completed += width;
    result.makespan = std::max(result.makespan, completion);

    if (config.functional) {
      // Column j of the served product must match the direct matvec of
      // request j's vector; one panel product (`truth`, computed beside the
      // round) holds all of them, column j bitwise the matvec (the block
      // kernels make the served product bitwise at b=1; at b>1 the decode
      // chain is column-independent, so the tolerance only absorbs the
      // coded round's encode/decode arithmetic).
      std::span<const double> got;
      if (width == 1 && res.y.has_value()) {
        got = *res.y;
      } else if (res.y_block.has_value()) {
        got = res.y_block->data();
      }
      if (!got.empty()) {
        result.product_digest =
            mix64(result.product_digest ^ block_digest(got));
        result.max_error =
            std::max(result.max_error, linalg::max_abs_diff(got, truth));
        result.products_verified += width;
      }
    }

    ++result.rounds;
    clock = completion;
  }

  if (!latencies.empty()) {
    double sum = 0.0;
    for (const double l : latencies) sum += l;
    result.mean_latency = sum / static_cast<double>(latencies.size());
    result.p50_latency = percentile(latencies, 0.50);
    result.p99_latency = percentile(latencies, 0.99);
  }
  if (result.makespan > 0.0) {
    result.jobs_per_sec =
        static_cast<double>(result.completed) / result.makespan;
  }
  result.decode = engine->decode_stats();
  return result;
}

std::vector<ServeResult> run_serve_sweep(std::span<const ServeConfig> cells,
                                         std::size_t jobs) {
  std::vector<ServeResult> results(cells.size());
  util::parallel_for(cells.size(), jobs, [&](std::size_t i) {
    results[i] = run_serve(cells[i]);
  });
  return results;
}

}  // namespace s2c2::harness
