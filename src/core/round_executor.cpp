#include "src/core/round_executor.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <stdexcept>

#include "src/sched/coverage.h"
#include "src/sched/reassignment.h"
#include "src/util/require.h"
#include "src/util/stats.h"

namespace s2c2::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Finite stand-in for "until forever" when integrating a trace that ends at
// zero speed (a dead worker's progress before its death).
constexpr double kFarHorizon = 1e300;

// Reshapes a nested scratch vector to `n` cleared inner vectors. Surviving
// inner vectors keep their capacity — the point of round-scoped scratch.
void resize_cleared(std::vector<std::vector<std::size_t>>& v, std::size_t n) {
  v.resize(n);
  for (auto& inner : v) inner.clear();
}
}  // namespace

RoundExecutor::RoundExecutor(StrategyKind kind, ClusterSpec spec,
                             std::unique_ptr<predict::SpeedPredictor>
                                 predictor,
                             bool oracle_speeds, double timeout_factor,
                             double straggler_threshold,
                             std::size_t chunks_per_partition,
                             bool health_informed)
    : StrategyEngine(kind, std::move(spec), std::move(predictor)),
      oracle_speeds_(oracle_speeds),
      timeout_factor_(timeout_factor),
      straggler_threshold_(straggler_threshold),
      chunks_per_partition_(chunks_per_partition),
      health_informed_(health_informed),
      health_(spec_.num_workers()) {
  ensure_predictor(oracle_speeds_);
  if (health_informed_ && !oracle_speeds_ && predictor_) {
    // Health-informed prediction: scale the inner predictor's estimate by
    // the monitor's degradation factor. Opt-in (harness robustness
    // profiles) — the wrap changes predicted speeds and therefore
    // allocations, so the pinned honest-cluster fingerprints never see it.
    predictor_ = std::make_unique<predict::HealthInformedPredictor>(
        std::move(predictor_),
        [this](std::size_t w) { return health_.prediction_scale(w); });
  }
}

std::size_t RoundExecutor::collection_quorum() const {
  const std::size_t q = quorum();
  if (!spec_.byzantine.active()) return q;
  const std::size_t n = spec_.num_workers();
  const std::size_t e = spec_.byzantine.corrupt_workers.size();
  const std::size_t margin = std::min(n - q, std::max(e + 1, 2 * e));
  return q + margin;
}

void RoundExecutor::predict_speeds(sim::Time t0, std::vector<double>& out) {
  const std::size_t n = spec_.num_workers();
  out.assign(n, 1.0);
  if (oracle_speeds_) {
    for (std::size_t w = 0; w < n; ++w) {
      out[w] = spec_.traces[w].speed_at(t0);
    }
  } else {
    predictor_->predict_all(out);
  }
}

void RoundExecutor::allocate_into(std::span<const double> speeds,
                                  sched::Allocation& out) {
  const std::size_t n = spec_.num_workers();
  const std::size_t q = collection_quorum();
  const std::size_t c = chunks_per_partition_;
  switch (kind()) {
    case StrategyKind::kMds:
    case StrategyKind::kPolyConventional:
      sched::full_allocation_into(n, c, out);
      return;
    case StrategyKind::kS2C2Basic: {
      // Flag stragglers below threshold x median predicted speed; keep at
      // least quorum live workers by un-flagging the fastest flagged ones.
      const double med = util::median_scratch(speeds, median_scratch_);
      straggler_scratch_.assign(n, false);
      std::vector<bool>& straggler = straggler_scratch_;
      std::size_t live = 0;
      for (std::size_t w = 0; w < n; ++w) {
        straggler[w] = speeds[w] < straggler_threshold_ * med;
        if (!straggler[w]) ++live;
      }
      if (live < q) {
        flagged_scratch_.clear();
        std::vector<std::size_t>& flagged = flagged_scratch_;
        for (std::size_t w = 0; w < n; ++w) {
          if (straggler[w]) flagged.push_back(w);
        }
        std::sort(flagged.begin(), flagged.end(),
                  [&](std::size_t a, std::size_t b) {
                    return speeds[a] > speeds[b];
                  });
        for (std::size_t i = 0; live < q && i < flagged.size(); ++i) {
          straggler[flagged[i]] = false;
          ++live;
        }
      }
      sched::basic_s2c2_allocation_into(straggler, q, c, alloc_scratch_, out);
      return;
    }
    case StrategyKind::kS2C2:
    case StrategyKind::kPoly: {
      speed_scratch_.assign(speeds.begin(), speeds.end());
      std::vector<double>& s = speed_scratch_;
      std::size_t positive = 0;
      for (double v : s) {
        if (v > 0.0) ++positive;
      }
      if (positive < q) {
        // Predictor wrote off too many workers: fall back to treating all
        // of them as slow-but-alive so the allocation stays feasible; the
        // timeout path recovers if they really are dead.
        for (double& v : s) v = std::max(v, 0.05);
      }
      sched::proportional_allocation_into(s, q, c, alloc_scratch_, out);
      return;
    }
    case StrategyKind::kReplication:
    case StrategyKind::kOverDecomp:
      break;  // uncoded strategies never reach the coded executor
    case StrategyKind::kLt:
    case StrategyKind::kAgc:
      break;  // their engines override allocate_into(); no kind() default
  }
  throw std::logic_error("unreachable strategy");
}

void RoundExecutor::decode_product_block(RoundResult&, const RoundState&,
                                         const linalg::Matrix&) {
  throw std::logic_error(std::string(strategy_name(kind())) +
                         " has no block decode");
}

double RoundExecutor::dispatch_work(std::size_t chunks) const {
  return round_.fixed +
         static_cast<double>(chunks) * round_.flops / spec_.worker_flops;
}

double RoundExecutor::accounted_work(std::size_t chunks) const {
  return round_.fixed + static_cast<double>(chunks) * round_.chunk_work;
}

RoundExecutor::WorkerWork RoundExecutor::worker_work(std::size_t w) const {
  const double bw = static_cast<double>(round_.width);
  return {accounted_work(round_.timing[w].assigned_chunks) * bw,
          static_cast<double>(round_.extra_chunks[w].size()) *
              round_.chunk_work * bw};
}

RoundResult RoundExecutor::run_round_impl(std::span<const double> x,
                                          const linalg::Matrix* x_block,
                                          std::size_t width) {
  const bool functional =
      x_block ? functional_block_round(*x_block) : functional_round(x);
  begin_round(width);
  // A recycled result keeps its payloads' capacity; stats are re-written
  // wholesale and every payload is either filled or reset by decode().
  RoundResult result = acquire_result();
  result.stats = sim::RoundStats{};
  result.stats.start = round_.t0;
  predict_speeds(round_.t0, result.predicted_speeds);
  allocate_into(result.predicted_speeds, round_.alloc);
  dispatch();
  if (strategy_uses_recovery(kind())) {
    collect_by_deadline(result.stats);
    if (result.stats.timeout_fired) recover(result);
  } else {
    collect_fastest();
  }
  verify(result.stats);
  charge(result.stats);
  account();
  observe(result);
  record_health(result);
  learn_and_decode(result, functional, x, x_block);
  return result;
}

void RoundExecutor::begin_round(std::size_t width) {
  RoundState& s = round_;
  s.t0 = now();
  s.q = collection_quorum();
  s.width = width;
  s.fixed = fixed_work();
  s.flops = chunk_flops();
  s.chunk_work = s.flops / spec_.worker_flops;
}

void RoundExecutor::dispatch() {
  RoundState& s = round_;
  const std::size_t n = spec_.num_workers();
  s.timing.resize(n);
  s.assigned.clear();
  for (std::size_t w = 0; w < n; ++w) {
    WorkerTiming& t = s.timing[w];
    t = WorkerTiming{.assigned_chunks = s.alloc.per_worker[w].count};
    if (t.assigned_chunks == 0) continue;
    s.assigned.push_back(w);
    t.x_arrival = s.t0 + spec_.net.transfer_time(s.width * x_bytes());
    t.compute_done = spec_.traces[w].time_to_complete(
        t.x_arrival,
        dispatch_work(t.assigned_chunks) * static_cast<double>(s.width));
    const sim::Time send = spec_.net.transfer_time(
        t.assigned_chunks * s.width * chunk_result_bytes());
    t.response = t.compute_done == kInf ? kInf : t.compute_done + send;
  }
  s.by_response.assign(s.assigned.begin(), s.assigned.end());
  std::sort(s.by_response.begin(), s.by_response.end(),
            [&s](std::size_t a, std::size_t b) {
              return s.timing[a].response < s.timing[b].response;
            });
  s.finite = 0;
  for (std::size_t w : s.by_response) {
    if (s.timing[w].response < kInf) ++s.finite;
  }
  if (s.finite < s.q) {
    throw std::runtime_error(quorum_failure_error());
  }
  const std::size_t chunks = s.alloc.chunks_per_partition;
  resize_cleared(s.final_chunk_workers, chunks);
  resize_cleared(s.extra_chunks, n);
  resize_cleared(s.byzantine_chunk_workers, chunks);
  s.recovery_busy.assign(n, 0.0);
  s.recovery_waste.assign(n, 0.0);
  s.used.assign(n, false);
}

void RoundExecutor::collect_fastest() {
  // The fastest responders win; everyone else is cancelled when the last
  // collected response arrives. The count is the fixed collection quorum
  // for the classic strategies; threshold strategies (LT) grow it through
  // the collection_count hook until their decode closes.
  RoundState& s = round_;
  const std::size_t collect = collection_count(s.by_response, s.finite);
  S2C2_CHECK(collect >= 1 && collect <= s.finite,
             "collection_count outside the responder range");
  const auto first = s.by_response.begin();
  const auto last = first + static_cast<std::ptrdiff_t>(collect);
  s.coverage = s.timing[*(last - 1)].response;
  s.cancel = s.coverage;
  for (auto it = first; it != last; ++it) s.used[*it] = true;
  for (std::vector<std::size_t>& responders : s.final_chunk_workers) {
    responders.assign(first, last);
    std::sort(responders.begin(), responders.end());
  }
}

void RoundExecutor::collect_by_deadline(sim::RoundStats& stats) {
  // The §4.3 timeout's reference point is the quorum-th fastest response —
  // the last one a minimal decode needs. (The paper words this as the
  // *average* of the first k; when responses are balanced, as in its
  // experiments, the two coincide. Under strong speed spread the fastest
  // workers hit the partition cap and finish early, which drags the
  // average below the balanced finish time of the uncapped workers and
  // would fire the timeout every round — see docs/DESIGN.md §5 and the
  // `abl.timeout-*` claims in docs/REPRODUCTION.md.)
  RoundState& s = round_;
  const std::size_t n = spec_.num_workers();
  const std::vector<std::size_t>& by = s.by_response;
  const sim::Time qth = s.timing[by[s.q - 1]].response;
  s.deadline = s.t0 + timeout_factor_ * (qth - s.t0);
  // Responders within the deadline, counted on from `from`.
  const auto scan = [&s, &by](std::size_t from) {
    while (from < by.size() && s.timing[by[from]].response <= s.deadline) {
      ++from;
    }
    return from;
  };
  std::size_t r_count = scan(0);
  if (r_count < s.q) {
    // Fewer than quorum beat the deadline (reachable when
    // timeout_factor < 1): the master must wait for the quorum-th fastest
    // response anyway, so the effective deadline moves there — and the
    // responder set has to be re-scanned against it, or workers tied at
    // the extended deadline stay spuriously cancelled with their finished
    // work booked as waste.
    s.deadline = qth;
    r_count = scan(s.q);
  }
  s.responded.assign(n, false);
  for (std::size_t i = 0; i < r_count; ++i) s.responded[by[i]] = true;
  stats.timeout_fired = r_count != s.assigned.size();

  // Base coverage from responders.
  sched::chunk_workers_into(s.alloc, s.alloc_chunk_workers);
  for (std::size_t c = 0; c < s.alloc.chunks_per_partition; ++c) {
    for (std::size_t w : s.alloc_chunk_workers[c]) {
      if (s.responded[w]) s.final_chunk_workers[c].push_back(w);
    }
  }
  for (std::size_t w : s.assigned) {
    if (s.responded[w]) s.used[w] = true;
  }
  s.coverage = s.timing[by[r_count - 1]].response;
  s.cancel = s.deadline;
}

void RoundExecutor::recover(RoundResult& result) {
  // §4.3 recovery, generalized to cascading failures: deficient chunks are
  // planned among live responders; a recovery worker that itself dies
  // mid-reassignment is detected when the wave's timeout deadline passes,
  // its partial progress is booked as waste, and its unfinished chunks are
  // re-planned among the workers still alive (strategies with
  // recovery_survives_death() == false instead treat that death as an
  // unrecoverable cluster failure). At most n waves run (every extra wave
  // removes at least one dead worker).
  RoundState& s = round_;
  const std::size_t n = spec_.num_workers();
  const double bw = static_cast<double>(s.width);
  s.recovery_live.assign(s.responded.begin(), s.responded.end());
  // A worker is free for (more) recovery work once it sent its latest
  // response — original or a previous wave's extras.
  s.free_at.assign(n, 0.0);
  for (std::size_t w : s.assigned) s.free_at[w] = s.timing[w].response;
  // Every list the waves grow is reserved at its bound — a worker takes
  // each chunk at most once, a chunk gains each worker at most once — so
  // after the first recovery round no wave touches the heap.
  const std::size_t chunks = s.alloc.chunks_per_partition;
  s.plan.chunks_per_worker.resize(n);
  for (std::size_t w = 0; w < n; ++w) {
    s.plan.chunks_per_worker[w].reserve(chunks);
    s.extra_chunks[w].reserve(chunks);
  }
  for (auto& ws : s.final_chunk_workers) ws.reserve(n);
  sim::Time wave_issue = s.deadline;
  for (std::size_t wave = 0; wave < n; ++wave) {
    if (!plan_wave(result.predicted_speeds)) break;
    result.stats.reassigned_chunks += s.plan.total_chunks();
    sim::Time wave_deadline = wave_issue;
    bool any_death = false;
    for (std::size_t w = 0; w < n; ++w) {
      const auto& extras = s.plan.chunks_per_worker[w];
      if (extras.empty()) continue;
      // The master's reassignment message costs one network latency.
      const sim::Time start =
          std::max(wave_issue, s.free_at[w]) + spec_.net.latency_s;
      const double work =
          static_cast<double>(extras.size()) * s.chunk_work * bw;
      const sim::Time done = spec_.traces[w].time_to_complete(start, work);
      const sim::Time send = spec_.net.transfer_time(
          extras.size() * s.width * chunk_result_bytes());
      if (done == kInf) {
        if (!recovery_survives_death()) {
          throw std::runtime_error(recovery_death_error());
        }
        any_death = true;
        s.recovery_live[w] = false;
        s.recovery_waste[w] +=
            spec_.traces[w].work_between(start, kFarHorizon);
        // The master discovers the death when the worker's expected
        // response (at its predicted speed) times out.
        const sim::Time expected = start + work / s.rspeeds[w] + send;
        wave_deadline = std::max(
            wave_deadline, start + timeout_factor_ * (expected - start));
        continue;
      }
      s.recovery_busy[w] += done - start;
      s.free_at[w] = done + send;
      for (std::size_t c : extras) s.final_chunk_workers[c].push_back(w);
      s.extra_chunks[w].insert(s.extra_chunks[w].end(), extras.begin(),
                               extras.end());
      s.coverage = std::max(s.coverage, done + send);
    }
    if (!any_death) break;
    // No earlier wave can be issued: the master only learns about the
    // death once the wave deadline passes.
    s.coverage = std::max(s.coverage, wave_deadline);
    wave_issue = wave_deadline;
  }
  for (auto& ws : s.final_chunk_workers) std::sort(ws.begin(), ws.end());
}

bool RoundExecutor::plan_wave(std::span<const double> predicted) {
  // The planner reads each deficient chunk's coverage in place.
  RoundState& s = round_;
  const std::size_t n = spec_.num_workers();
  s.deficient.clear();
  s.have.clear();
  s.needed.clear();
  for (std::size_t c = 0; c < s.alloc.chunks_per_partition; ++c) {
    const std::vector<std::size_t>& ws = s.final_chunk_workers[c];
    if (ws.size() < s.q) {
      s.deficient.push_back(c);
      s.have.emplace_back(ws);
      s.needed.push_back(s.q - ws.size());
    }
  }
  if (s.deficient.empty()) return false;
  s.rspeeds.assign(n, 0.0);
  for (std::size_t w = 0; w < n; ++w) {
    if (s.recovery_live[w]) s.rspeeds[w] = std::max(predicted[w], 1e-3);
  }
  try {
    sched::plan_reassignment_into(s.deficient, s.have, s.needed, s.rspeeds,
                                  s.reassign_scratch, s.plan);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(recovery_infeasible_error(e.what()));
  }
  return true;
}

void RoundExecutor::verify(sim::RoundStats& stats) {
  // Corrupted responders fail the master's decode-residual check
  // (coding/chunked_decoder.h verify_chunks; docs/DESIGN.md §7). The
  // executor books the *outcome* deterministically: every response from a
  // declared-corrupt worker is stripped from chunk coverage, the worker's
  // whole assignment is re-booked as waste through account()'s cancelled-
  // worker branch, and the over-provisioned collection quorum guarantees
  // >= quorum() clean responders per chunk survive. Functional rounds
  // additionally run the numeric identification on the corrupted values
  // via RoundState::byzantine_chunk_workers.
  if (!spec_.byzantine.active()) return;
  RoundState& s = round_;
  const std::size_t n = spec_.num_workers();
  std::vector<bool> corrupt(n, false);
  for (std::size_t w : spec_.byzantine.corrupt_workers) {
    if (w < n) corrupt[w] = true;
  }
  for (std::size_t ch = 0; ch < s.alloc.chunks_per_partition; ++ch) {
    auto& ws = s.final_chunk_workers[ch];
    auto& stripped = s.byzantine_chunk_workers[ch];
    for (std::size_t w : ws) {
      if (corrupt[w]) stripped.push_back(w);
    }
    if (stripped.empty()) continue;
    ws.erase(std::remove_if(ws.begin(), ws.end(),
                            [&corrupt](std::size_t w) { return corrupt[w]; }),
             ws.end());
    ++stats.corrupted_chunks;
    if (ws.size() < quorum()) {
      throw std::runtime_error(
          "cluster failure: byzantine stripping left a chunk below the "
          "decode quorum");
    }
  }
  for (std::size_t w = 0; w < n; ++w) {
    if (corrupt[w] && s.used[w]) {
      s.used[w] = false;  // whole assignment lands in the waste branch
      ++stats.byzantine_detected;
    }
  }
}

void RoundExecutor::charge(sim::RoundStats& stats) {
  // One recovery system per maximal run of consecutive chunks sharing a
  // decode subset. The strategy's context charges the structured
  // factorization only on cache misses; repeated responder sets across
  // rounds pay solve cost alone (docs/PERFORMANCE.md). A miss's numeric
  // LU is not run here: the context queues it for learn_and_decode.
  RoundState& s = round_;
  decode_subsets(s, s.subsets);
  coding::DecodeContext& ctx = decode_context();
  ctx.begin_round();
  const std::size_t chunks = s.alloc.chunks_per_partition;
  double dec_flops = 0.0;
  for (std::size_t c = 0; c < chunks;) {
    std::size_t e = c + 1;
    while (e < chunks && s.subsets[e] == s.subsets[c]) ++e;
    dec_flops +=
        ctx.charge(s.subsets[c], (e - c) * decode_values_per_chunk() * s.width)
            .flops;
    c = e;
  }
  stats.coverage = s.coverage;
  stats.end = s.coverage + dec_flops / spec_.master_flops;
}

void RoundExecutor::account() {
  const RoundState& s = round_;
  for (std::size_t w : s.assigned) {
    const WorkerTiming& t = s.timing[w];
    const WorkerWork work = worker_work(w);
    if (s.used[w]) {
      accounting_.add_useful(w, work.base);
      accounting_.add_useful(w, work.extra);
      // Busy time covers both the original window and the recovery
      // window spent on reassigned extras; otherwise utilization is
      // under-reported exactly in the rounds where the timeout fires.
      accounting_.add_busy(
          w, t.compute_done - t.x_arrival + s.recovery_busy[w]);
      if (s.recovery_waste[w] > 0.0) {
        accounting_.add_wasted(w, s.recovery_waste[w]);
      }
    } else {
      const double done = std::min(
          work.base, spec_.traces[w].work_between(
                         t.x_arrival, std::max(s.cancel, t.x_arrival)));
      accounting_.add_wasted(w, done);
    }
    accounting_.add_traffic(
        w,
        static_cast<double>((t.assigned_chunks + s.extra_chunks[w].size()) *
                            s.width * chunk_result_bytes()),
        static_cast<double>(s.width * x_bytes()));
  }
}

void RoundExecutor::observe(RoundResult& result) {
  const RoundState& s = round_;
  const std::size_t n = spec_.num_workers();
  result.observed_speeds.assign(n, 0.0);
  for (std::size_t w = 0; w < n; ++w) {
    const WorkerTiming& t = s.timing[w];
    double obs;
    if (t.assigned_chunks == 0) {
      // Idle worker: the master probes its current speed (basic S2C2 needs
      // fresh straggler flags even for excluded workers). Probe at coverage
      // time — every busy worker's observation reflects the pre-decode
      // round window, and training the predictor on post-decode timestamps
      // for idle workers only would skew its inputs.
      obs = spec_.traces[w].speed_at(s.coverage);
    } else if (s.used[w]) {
      // Realized *execution* speed over the compute window. Transfers and
      // queueing must stay out of the denominator: predictions are trace
      // speeds, and folding the network share of the round into the
      // observation would bias every sample low — inflating the §6.1
      // misprediction rate (to 100% under an exact oracle once network
      // time is a sizable round fraction) and mis-training the predictor.
      obs = worker_work(w).base / (t.compute_done - t.x_arrival);
    } else {
      // Cancelled: the work the trace allowed up to the cancel, unclamped
      // by the assignment — a worker that finished computing but was
      // cancelled mid-transfer still observes its true speed.
      const sim::Time until = std::max(s.cancel, t.x_arrival + 1e-9);
      obs = spec_.traces[w].work_between(t.x_arrival, until) /
            (until - t.x_arrival);
    }
    result.observed_speeds[w] = obs;
  }
  count_prediction_round(result.predicted_speeds, result.observed_speeds);
}

void RoundExecutor::record_health(RoundResult& result) {
  // Liveness pulses for the worker-health monitor. Unlike the predictor
  // observation — whose window is bitwise-pinned behavior — a used
  // worker's pulse spans the *whole* window it was computing in: base plus
  // recovery work over the dispatch window plus the recovery busy time.
  // Without the recovery term the rounds where the §4.3 timeout fires
  // would inflate a recovering worker's baseline by extra/base and mask
  // real degradation (tests/health_monitor_test.cpp pins this).
  const RoundState& s = round_;
  for (std::size_t w = 0; w < spec_.num_workers(); ++w) {
    const WorkerTiming& t = s.timing[w];
    if (t.assigned_chunks == 0) {
      health_.record_pulse(w, result.observed_speeds[w]);
    } else if (s.used[w]) {
      const WorkerWork work = worker_work(w);
      const sim::Time window =
          t.compute_done - t.x_arrival + s.recovery_busy[w];
      health_.record_pulse(w, (work.base + work.extra) / window);
    } else if (result.observed_speeds[w] > 0.0) {
      health_.record_pulse(w, result.observed_speeds[w]);
    } else {
      health_.record_missed(w);
    }
  }
  result.stats.degrading_workers = health_.degrading_count();
}

void RoundExecutor::learn_and_decode(RoundResult& result, bool functional,
                                     std::span<const double> x,
                                     const linalg::Matrix* x_block) {
  coding::DecodeContext& ctx = decode_context();
  const bool factor = functional && ctx.has_queued();
  if (!functional || !(predictor_ || factor) ||
      util::ThreadPool::in_worker()) {
    if (predictor_) predictor_->observe_all(result.observed_speeds);
    decode(result, functional, x, x_block);
    return;
  }
  // One helper per calling thread, shared by every engine that thread
  // runs: a GD job builds two engines, and a helper per engine would
  // start and join two threads per job.
  thread_local util::ThreadPool helper(1);
  // The lambda captures two pointers, so std::function keeps it in its
  // small buffer: a by-reference capture of every argument would not fit
  // and would put one heap block on every round.
  struct Tail {
    RoundResult& result;
    std::span<const double> x;
    const linalg::Matrix* x_block;
    coding::DecodeContext* factor_queued;  // null: nothing queued
    std::exception_ptr decode_error;
  } tail{result, x, x_block, factor ? &ctx : nullptr, nullptr};
  helper.parallel_for(2, [this, &tail](std::size_t i) {
    if (i == 1) {
      // Factorizations first: the decode is about to need them. This
      // never throws; a failed LU surfaces in the decode's solve.
      if (tail.factor_queued) tail.factor_queued->factor_queued();
      if (predictor_) predictor_->observe_all(tail.result.observed_speeds);
      return;
    }
    // A failed decode must not stop the update from starting: the
    // predictor ends the round fed exactly as on the serial path.
    try {
      decode(tail.result, true, tail.x, tail.x_block);
    } catch (...) {
      tail.decode_error = std::current_exception();
    }
  });
  if (tail.decode_error) std::rethrow_exception(tail.decode_error);
}

void RoundExecutor::decode(RoundResult& result, bool functional,
                           std::span<const double> x,
                           const linalg::Matrix* x_block) {
  // Payloads a recycled result carried from an earlier round are either
  // overwritten by the decode hooks (which keep their capacity) or reset
  // here so a latency-only round never returns stale data.
  if (!functional) {
    result.y.reset();
    result.y_block.reset();
    result.hessian.reset();
  } else if (x_block) {
    decode_product_block(result, round_, *x_block);
  } else {
    decode_product(result, round_, x);
  }
}

}  // namespace s2c2::core
