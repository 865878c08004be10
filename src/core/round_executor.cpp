#include "src/core/round_executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
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
    for (std::size_t w = 0; w < n; ++w) {
      out[w] = predictor_->predict(w);
    }
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

std::size_t RoundExecutor::collection_count(
    std::span<const std::size_t> by_response, std::size_t finite) const {
  (void)by_response;
  (void)finite;
  return collection_quorum();
}

RoundExecutor::WorkerTiming RoundExecutor::simulate_worker(
    std::size_t w, sim::Time t0, std::size_t chunks, double work,
    std::size_t width) const {
  WorkerTiming t;
  t.assigned_chunks = chunks;
  if (chunks == 0) return t;
  t.x_arrival = t0 + spec_.net.transfer_time(width * x_bytes());
  t.compute_done = spec_.traces[w].time_to_complete(
      t.x_arrival, work * static_cast<double>(width));
  t.response =
      t.compute_done == kInf
          ? kInf
          : t.compute_done + spec_.net.transfer_time(
                                 chunks * width * chunk_result_bytes());
  return t;
}

bool RoundExecutor::functional_block_round(const linalg::Matrix&) const {
  return false;
}

void RoundExecutor::decode_product_block(RoundResult&, const RoundLedger&,
                                         const linalg::Matrix&) {
  throw std::logic_error(std::string(strategy_name(kind())) +
                         " has no block decode");
}

RoundResult RoundExecutor::run_round(std::span<const double> x) {
  return run_round_impl(x, nullptr, 1);
}

RoundResult RoundExecutor::run_wide_round(const linalg::Matrix& x_block,
                                          std::size_t width) {
  return run_round_impl({}, &x_block, width);
}

RoundResult RoundExecutor::run_round_impl(std::span<const double> x,
                                          const linalg::Matrix* x_block,
                                          std::size_t width) {
  const std::size_t n = spec_.num_workers();
  const double bw = static_cast<double>(width);
  // Every coverage target below — allocation, deadline reference, wave
  // deficiency — uses the (possibly over-provisioned) collection quorum,
  // so Byzantine rounds gather the redundancy the verification pass needs
  // through the existing §4.3 machinery. Honest clusters see quorum().
  const std::size_t q = collection_quorum();
  const sim::Time t0 = now_;
  const bool functional =
      x_block ? functional_block_round(*x_block) : functional_round(x);
  const bool timeout_collection = strategy_uses_recovery(kind());
  // The cost hooks, read once. Dispatch evaluates
  // fixed + (chunks · flops) / worker_flops while accounting, observation
  // and recovery use fixed + chunks · (flops / worker_flops). The two
  // orders differ in the last bit, and both stay: fingerprint_guard_test
  // pins the s2c2 bits, and so does the executor copy in
  // bench/e2e/replay.cpp.
  const double fixed = fixed_work();
  const double flops = chunk_flops();
  const double chunk_work = flops / spec_.worker_flops;
  const auto dispatch_work = [&](std::size_t chunks) {
    return fixed + static_cast<double>(chunks) * flops / spec_.worker_flops;
  };
  const auto accounted_work = [&](std::size_t chunks) {
    return fixed + static_cast<double>(chunks) * chunk_work;
  };

  // A recycled result keeps its payloads' capacity; stats are re-written
  // wholesale and every payload is either filled or reset below.
  RoundResult result = acquire_result();
  result.stats = sim::RoundStats{};
  result.stats.start = t0;
  predict_speeds(t0, result.predicted_speeds);
  allocate_into(result.predicted_speeds, round_alloc_);
  const sched::Allocation& alloc = round_alloc_;

  timing_.resize(n);
  std::vector<WorkerTiming>& timing = timing_;
  for (std::size_t w = 0; w < n; ++w) {
    const std::size_t chunks = alloc.per_worker[w].count;
    timing[w] = simulate_worker(w, t0, chunks, dispatch_work(chunks), width);
  }

  // Workers with assigned work, ordered by response time.
  assigned_.clear();
  std::vector<std::size_t>& assigned = assigned_;
  for (std::size_t w = 0; w < n; ++w) {
    if (timing[w].assigned_chunks > 0) assigned.push_back(w);
  }
  by_response_.assign(assigned.begin(), assigned.end());
  std::vector<std::size_t>& by_response = by_response_;
  std::sort(by_response.begin(), by_response.end(),
            [&](std::size_t a, std::size_t b) {
              return timing[a].response < timing[b].response;
            });
  std::size_t finite = 0;
  for (std::size_t w : by_response) {
    if (timing[w].response < kInf) ++finite;
  }
  if (finite < q) {
    throw std::runtime_error(quorum_failure_error());
  }

  // Final per-chunk responder sets (for decode-cost and functional decode),
  // per-worker reassigned chunks, and the round-completion bookkeeping.
  resize_cleared(final_chunk_workers_, alloc.chunks_per_partition);
  std::vector<std::vector<std::size_t>>& final_chunk_workers =
      final_chunk_workers_;
  resize_cleared(extra_chunks_, n);  // reassigned work
  std::vector<std::vector<std::size_t>>& extra_chunks = extra_chunks_;
  recovery_busy_.assign(n, 0.0);  // compute spent on extras
  std::vector<sim::Time>& recovery_busy = recovery_busy_;
  recovery_waste_.assign(n, 0.0);  // died mid-reassignment
  std::vector<double>& recovery_waste = recovery_waste_;
  used_.assign(n, false);
  std::vector<bool>& used = used_;
  sim::Time coverage_time = 0.0;
  sim::Time cancel_time = 0.0;  // when cancelled workers stop computing

  if (!timeout_collection) {
    // Conventional collection: the fastest responders win; everyone else
    // is cancelled when the last collected response arrives. The count is
    // the fixed collection quorum for the classic strategies; threshold
    // strategies (LT) grow it through the collection_count hook until
    // their decode closes — with the default hook this is bitwise the
    // historical fastest-quorum path.
    const std::size_t collect = collection_count(by_response, finite);
    S2C2_CHECK(collect >= 1 && collect <= finite,
               "collection_count outside the responder range");
    const std::size_t qth = by_response[collect - 1];
    coverage_time = timing[qth].response;
    cancel_time = coverage_time;
    for (std::size_t i = 0; i < collect; ++i) used[by_response[i]] = true;
    for (std::vector<std::size_t>& responders : final_chunk_workers) {
      responders.assign(by_response.begin(),
                        by_response.begin() +
                            static_cast<std::ptrdiff_t>(collect));
      std::sort(responders.begin(), responders.end());
    }
    result.stats.timeout_fired = false;
  } else {
    // S2C2 collection with the §4.3 timeout. The reference point is the
    // quorum-th fastest response — the last one a minimal decode needs.
    // (The paper words this as the *average* of the first k; when
    // responses are balanced, as in its experiments, the two coincide.
    // Under strong speed spread the fastest workers hit the partition cap
    // and finish early, which drags the average below the balanced finish
    // time of the uncapped workers and would fire the timeout every round
    // — see docs/DESIGN.md §5 and the `abl.timeout-*` claims in
    // docs/REPRODUCTION.md.)
    const double avg_q = timing[by_response[q - 1]].response - t0;
    sim::Time deadline = t0 + timeout_factor_ * avg_q;

    // Responders within the deadline; grow the set until it can cover
    // every chunk (needs at least quorum distinct workers).
    std::size_t r_count = 0;
    while (r_count < by_response.size() &&
           timing[by_response[r_count]].response <= deadline) {
      ++r_count;
    }
    if (r_count < q) {
      // Fewer than quorum beat the deadline (reachable when
      // timeout_factor < 1): the master must wait for the quorum-th
      // fastest response anyway, so the effective deadline moves there —
      // and the responder set has to be re-scanned against it, or workers
      // tied at the extended deadline stay spuriously cancelled with
      // their finished work booked as waste.
      deadline = timing[by_response[q - 1]].response;
      r_count = q;
      while (r_count < by_response.size() &&
             timing[by_response[r_count]].response <= deadline) {
        ++r_count;
      }
    }
    responded_.assign(n, false);
    std::vector<bool>& responded = responded_;
    for (std::size_t i = 0; i < r_count; ++i) {
      responded[by_response[i]] = true;
    }

    const bool all_responded = r_count == assigned.size();
    result.stats.timeout_fired = !all_responded;

    // Base coverage from responders.
    sched::chunk_workers_into(alloc, alloc_chunk_workers_);
    const std::vector<std::vector<std::size_t>>& alloc_chunk_workers =
        alloc_chunk_workers_;
    for (std::size_t c = 0; c < alloc.chunks_per_partition; ++c) {
      for (std::size_t w : alloc_chunk_workers[c]) {
        if (responded[w]) final_chunk_workers[c].push_back(w);
      }
    }
    for (std::size_t w : assigned) {
      if (responded[w]) used[w] = true;
    }
    coverage_time = timing[by_response[r_count - 1]].response;
    cancel_time = deadline;

    if (!all_responded) {
      // §4.3 recovery, generalized to cascading failures: deficient chunks
      // are planned among live responders; a recovery worker that itself
      // dies mid-reassignment is detected when the wave's timeout deadline
      // passes, its partial progress is booked as waste, and its
      // unfinished chunks are re-planned among the workers still alive
      // (strategies with recovery_survives_death() == false instead treat
      // that death as an unrecoverable cluster failure). At most n waves
      // run (every extra wave removes at least one dead worker).
      recovery_live_.assign(responded.begin(), responded.end());
      std::vector<bool>& recovery_live = recovery_live_;
      // A worker is free for (more) recovery work once it sent its latest
      // response — original or a previous wave's extras.
      free_at_.assign(n, 0.0);
      std::vector<sim::Time>& free_at = free_at_;
      for (std::size_t w : assigned) free_at[w] = timing[w].response;
      // Every list the waves grow is reserved at its bound — a worker takes
      // each chunk at most once, a chunk gains each worker at most once —
      // so after the first recovery round no wave touches the heap.
      const std::size_t chunks = alloc.chunks_per_partition;
      plan_.chunks_per_worker.resize(n);
      for (std::size_t w = 0; w < n; ++w) {
        plan_.chunks_per_worker[w].reserve(chunks);
        extra_chunks[w].reserve(chunks);
      }
      for (auto& ws : final_chunk_workers) ws.reserve(n);
      const sched::ReassignmentPlan& plan = plan_;
      sim::Time wave_issue = deadline;
      for (std::size_t wave = 0; wave < n; ++wave) {
        // The planner reads each deficient chunk's coverage in place.
        deficient_.clear();
        have_.clear();
        needed_.clear();
        for (std::size_t c = 0; c < chunks; ++c) {
          if (final_chunk_workers[c].size() < q) {
            deficient_.push_back(c);
            have_.emplace_back(final_chunk_workers[c]);
            needed_.push_back(q - final_chunk_workers[c].size());
          }
        }
        if (deficient_.empty()) break;
        rspeeds_.assign(n, 0.0);
        std::vector<double>& rspeeds = rspeeds_;
        for (std::size_t w = 0; w < n; ++w) {
          if (recovery_live[w]) {
            rspeeds[w] = std::max(result.predicted_speeds[w], 1e-3);
          }
        }
        try {
          sched::plan_reassignment_into(deficient_, have_, needed_, rspeeds,
                                        reassign_scratch_, plan_);
        } catch (const std::invalid_argument& e) {
          throw std::runtime_error(recovery_infeasible_error(e.what()));
        }
        result.stats.reassigned_chunks += plan.total_chunks();
        sim::Time wave_deadline = wave_issue;
        bool any_death = false;
        for (std::size_t w = 0; w < n; ++w) {
          const auto& extras = plan.chunks_per_worker[w];
          if (extras.empty()) continue;
          // The master's reassignment message costs one network latency.
          const sim::Time start =
              std::max(wave_issue, free_at[w]) + spec_.net.latency_s;
          const double work =
              static_cast<double>(extras.size()) * chunk_work * bw;
          const sim::Time done = spec_.traces[w].time_to_complete(start, work);
          const sim::Time send = spec_.net.transfer_time(
              extras.size() * width * chunk_result_bytes());
          if (done == kInf) {
            if (!recovery_survives_death()) {
              throw std::runtime_error(recovery_death_error());
            }
            any_death = true;
            recovery_live[w] = false;
            recovery_waste[w] +=
                spec_.traces[w].work_between(start, kFarHorizon);
            // The master discovers the death when the worker's expected
            // response (at its predicted speed) times out.
            const sim::Time expected = start + work / rspeeds[w] + send;
            wave_deadline =
                std::max(wave_deadline,
                         start + timeout_factor_ * (expected - start));
            continue;
          }
          recovery_busy[w] += done - start;
          free_at[w] = done + send;
          for (std::size_t c : extras) final_chunk_workers[c].push_back(w);
          extra_chunks[w].insert(extra_chunks[w].end(), extras.begin(),
                                 extras.end());
          coverage_time = std::max(coverage_time, done + send);
        }
        if (!any_death) break;
        // No earlier wave can be issued: the master only learns about the
        // death once the wave deadline passes.
        coverage_time = std::max(coverage_time, wave_deadline);
        wave_issue = wave_deadline;
      }
      for (auto& ws : final_chunk_workers) std::sort(ws.begin(), ws.end());
    }
  }

  // ---- Byzantine verification ----
  // Corrupted responders fail the master's decode-residual check
  // (coding/chunked_decoder.h verify_chunks; docs/DESIGN.md §7). The
  // executor books the *outcome* deterministically: every response from a
  // declared-corrupt worker is stripped from chunk coverage, the worker's
  // whole assignment is re-booked as waste through the standard cancelled-
  // worker branch below, and the over-provisioned collection quorum
  // guarantees >= quorum() clean responders per chunk survive. Functional
  // rounds additionally run the numeric identification on the corrupted
  // values via ledger.byzantine_chunk_workers.
  resize_cleared(byzantine_chunk_workers_, alloc.chunks_per_partition);
  std::vector<std::vector<std::size_t>>& byzantine_chunk_workers =
      byzantine_chunk_workers_;
  if (spec_.byzantine.active()) {
    std::vector<bool> corrupt(n, false);
    for (std::size_t w : spec_.byzantine.corrupt_workers) {
      if (w < n) corrupt[w] = true;
    }
    for (std::size_t ch = 0; ch < alloc.chunks_per_partition; ++ch) {
      auto& ws = final_chunk_workers[ch];
      auto& stripped = byzantine_chunk_workers[ch];
      for (std::size_t w : ws) {
        if (corrupt[w]) stripped.push_back(w);
      }
      if (stripped.empty()) continue;
      ws.erase(
          std::remove_if(ws.begin(), ws.end(),
                         [&corrupt](std::size_t w) { return corrupt[w]; }),
          ws.end());
      ++result.stats.corrupted_chunks;
      if (ws.size() < quorum()) {
        throw std::runtime_error(
            "cluster failure: byzantine stripping left a chunk below the "
            "decode quorum");
      }
    }
    for (std::size_t w = 0; w < n; ++w) {
      if (corrupt[w] && used[w]) {
        used[w] = false;  // whole assignment lands in the waste branch below
        ++result.stats.byzantine_detected;
      }
    }
  }

  // ---- decode cost ----
  // One recovery system per maximal run of consecutive chunks sharing a
  // decode subset. The strategy's context charges the structured
  // factorization only on cache misses; repeated responder sets across
  // rounds pay solve cost alone (docs/PERFORMANCE.md).
  const RoundLedger ledger{alloc,         timing,       used,
                           final_chunk_workers, extra_chunks,
                           byzantine_chunk_workers};
  decode_subsets(ledger, subsets_);
  const std::vector<std::vector<std::size_t>>& subsets = subsets_;
  double dec_flops = 0.0;
  for (std::size_t c = 0; c < alloc.chunks_per_partition;) {
    std::size_t e = c + 1;
    while (e < alloc.chunks_per_partition && subsets[e] == subsets[c]) {
      ++e;
    }
    dec_flops += decode_context()
                     .charge(subsets[c],
                             (e - c) * decode_values_per_chunk() * width)
                     .flops;
    c = e;
  }
  const sim::Time decode_time = dec_flops / spec_.master_flops;
  result.stats.coverage = coverage_time;
  result.stats.end = coverage_time + decode_time;

  // ---- accounting ----
  for (std::size_t w : assigned) {
    const double base_work = accounted_work(timing[w].assigned_chunks) * bw;
    const double extra_work =
        static_cast<double>(extra_chunks[w].size()) * chunk_work * bw;
    if (used[w]) {
      accounting_.add_useful(w, base_work);
      accounting_.add_useful(w, extra_work);
      // Busy time covers both the original window and the recovery
      // window spent on reassigned extras; otherwise utilization is
      // under-reported exactly in the rounds where the timeout fires.
      accounting_.add_busy(w, timing[w].compute_done - timing[w].x_arrival +
                                  recovery_busy[w]);
      if (recovery_waste[w] > 0.0) {
        accounting_.add_wasted(w, recovery_waste[w]);
      }
    } else {
      const double done = std::min(
          base_work,
          spec_.traces[w].work_between(timing[w].x_arrival,
                                       std::max(cancel_time,
                                                timing[w].x_arrival)));
      accounting_.add_wasted(w, done);
    }
    accounting_.add_traffic(
        w,
        static_cast<double>((timing[w].assigned_chunks +
                             extra_chunks[w].size()) *
                            width * chunk_result_bytes()),
        static_cast<double>(width * x_bytes()));
  }

  // ---- observed speeds -> predictor ----
  result.observed_speeds.assign(n, 0.0);
  bool sampled = false;
  bool mispredicted = false;
  for (std::size_t w = 0; w < n; ++w) {
    double obs;
    if (timing[w].assigned_chunks == 0) {
      // Idle worker: the master probes its current speed (basic S2C2 needs
      // fresh straggler flags even for excluded workers). Probe at coverage
      // time — every busy worker's observation reflects the pre-decode
      // round window, and training the predictor on post-decode timestamps
      // for idle workers only would skew its inputs.
      obs = spec_.traces[w].speed_at(coverage_time);
    } else if (used[w]) {
      // Realized *execution* speed over the compute window. Transfers and
      // queueing must stay out of the denominator: predictions are trace
      // speeds, and folding the network share of the round into the
      // observation would bias every sample low — inflating the §6.1
      // misprediction rate (to 100% under an exact oracle once network
      // time is a sizable round fraction) and mis-training the predictor.
      obs = accounted_work(timing[w].assigned_chunks) * bw /
            (timing[w].compute_done - timing[w].x_arrival);
    } else {
      // Cancelled: the work the trace allowed up to the cancel, unclamped
      // by the assignment — a worker that finished computing but was
      // cancelled mid-transfer still observes its true speed.
      const sim::Time until = std::max(cancel_time, timing[w].x_arrival + 1e-9);
      obs = spec_.traces[w].work_between(timing[w].x_arrival, until) /
            (until - timing[w].x_arrival);
    }
    result.observed_speeds[w] = obs;
    if (obs > 0.0) {
      sampled = true;
      mispredicted = mispredicted ||
                     std::abs(result.predicted_speeds[w] - obs) / obs > 0.15;
    }
    if (predictor_) predictor_->observe(w, obs);
  }
  predicted_rounds_ += sampled ? 1 : 0;
  mispredicted_rounds_ += mispredicted ? 1 : 0;

  // ---- health telemetry ----
  // Liveness pulses for the worker-health monitor. Unlike the predictor
  // observation above — whose window is bitwise-pinned behavior — a used
  // worker's pulse spans the *whole* window it was computing in: base plus
  // recovery work over the dispatch window plus the recovery busy time.
  // Without the recovery term the rounds where the §4.3 timeout fires
  // would inflate a recovering worker's baseline by extra/base and mask
  // real degradation (tests/health_monitor_test.cpp pins this).
  for (std::size_t w = 0; w < n; ++w) {
    if (timing[w].assigned_chunks == 0) {
      health_.record_pulse(w, result.observed_speeds[w]);
    } else if (used[w]) {
      const double extra_work =
          static_cast<double>(extra_chunks[w].size()) * chunk_work * bw;
      const sim::Time window = timing[w].compute_done - timing[w].x_arrival +
                               recovery_busy[w];
      health_.record_pulse(
          w, (accounted_work(timing[w].assigned_chunks) * bw + extra_work) /
                 window);
    } else if (result.observed_speeds[w] > 0.0) {
      health_.record_pulse(w, result.observed_speeds[w]);
    } else {
      health_.record_missed(w);
    }
  }
  result.stats.degrading_workers = health_.degrading_count();

  // ---- functional decode ----
  // Payloads a recycled result carried from an earlier round are either
  // overwritten by the decode hooks (which keep their capacity) or reset
  // here so a latency-only round never returns stale data.
  if (functional) {
    if (x_block) {
      decode_product_block(result, ledger, *x_block);
    } else {
      decode_product(result, ledger, x);
    }
  } else {
    result.y.reset();
    result.y_block.reset();
    result.hessian.reset();
  }

  now_ = result.stats.end;
  ++rounds_run_;
  if (result.stats.timeout_fired) ++timeouts_;
  return result;
}

}  // namespace s2c2::core
