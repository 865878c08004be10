#include "bench/e2e/replay.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "src/sched/coverage.h"
#include "src/sched/reassignment.h"

namespace s2c2::bench_e2e {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// The engine's finite stand-in for "until forever" when integrating a
// trace that ends at zero speed.
constexpr double kFarHorizon = 1e300;

void resize_cleared(std::vector<std::vector<std::size_t>>& v, std::size_t n) {
  v.resize(n);
  for (auto& inner : v) inner.clear();
}

long long nanos(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
      .count();
}

}  // namespace

// ---- SpanLog ---------------------------------------------------------------

std::size_t SpanLog::open(const char* name, std::size_t round,
                          std::size_t parent) {
  const Clock::time_point now = Clock::now();
  spans_.push_back({name, now, now, parent, round});
  return spans_.size() - 1;
}

double SpanLog::close(std::size_t id) {
  Span& s = spans_[id];
  s.end = Clock::now();
  return seconds_between(s.start, s.end);
}

void SpanLog::write_jsonl(std::ostream& out) const {
  std::vector<long long> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      child_ns[s.parent] += nanos(s.start, s.end);
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": "
        << nanos(epoch_, s.start) << ", \"end_ns\": " << nanos(epoch_, s.end)
        << ", \"parent\": "
        << (s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent))
        << ", \"round\": " << s.round
        << ", \"self_ns\": " << nanos(s.start, s.end) - child_ns[i] << "}\n";
  }
}

// ---- TimedPredictor --------------------------------------------------------

void TimedPredictor::observe(std::size_t worker, double speed) {
  const Clock::time_point t0 = Clock::now();
  inner_->observe(worker, speed);
  busy_s_ += seconds_between(t0, Clock::now());
  ++calls_;
}

double TimedPredictor::predict(std::size_t worker) {
  const Clock::time_point t0 = Clock::now();
  const double v = inner_->predict(worker);
  busy_s_ += seconds_between(t0, Clock::now());
  ++calls_;
  return v;
}

// ---- RoundReplayer ---------------------------------------------------------

const char* phase_name(Phase p) {
  switch (p) {
    case kAllocate: return "sched.allocate";
    case kDispatch: return "sim.dispatch";
    case kCollect: return "sched.collect";
    case kReassign: return "sched.reassign";
    case kCharge: return "coding.charge";
    case kAccount: return "sim.account";
    case kHealth: return "telemetry.health";
    case kStage: return "coding.stage";
    case kChunkCompute: return "linalg.chunk_compute";
    case kDecode: return "coding.decode";
    case kNumPhases: break;
  }
  return "?";
}

RoundReplayer::RoundReplayer(const core::CodedMatVecJob& job,
                             const core::ClusterSpec& spec,
                             double timeout_factor, SpanLog& spans)
    : job_(job),
      spec_(spec),
      timeout_factor_(timeout_factor),
      spans_(spans),
      context_(job.generator()),
      decoder_(job.make_decoder(&context_, 1)),
      accounting_(spec.num_workers()),
      health_(spec.num_workers()) {}

// `fn` must hold only calls into src/ (plus the loop feeding them their
// gathered arguments): everything it does counts as phase `p`.
template <typename Fn>
void RoundReplayer::timed(Phase p, Fn&& fn) {
  if (!recording_) {
    fn();
    return;
  }
  const std::size_t id = spans_.open(phase_name(p), round_id_, root_span_);
  fn();
  stats_.phase_s[p] += spans_.close(id);
}

bool RoundReplayer::mismatch(const std::string& why) {
  if (first_mismatch_.empty()) {
    first_mismatch_ = "round " + std::to_string(round_id_) + ": " + why;
  }
  return false;
}

void RoundReplayer::dispatch(sim::Time t0, std::size_t width) {
  const std::size_t n = spec_.num_workers();
  const std::size_t x_bytes = width * job_.x_bytes();
  timing_.assign(n, Timing{});
  dispatch_work_.resize(n);
  result_bytes_.resize(n);
  send_.resize(n);
  assigned_.clear();
  for (std::size_t w = 0; w < n; ++w) {
    const std::size_t chunks = alloc_.per_worker[w].count;
    timing_[w].assigned_chunks = chunks;
    if (chunks == 0) continue;
    assigned_.push_back(w);
    dispatch_work_[w] = static_cast<double>(chunks) * job_.chunk_flops() /
                        spec_.worker_flops * static_cast<double>(width);
    result_bytes_[w] = chunks * width * job_.chunk_result_bytes();
  }
  timed(kDispatch, [&] {
    for (std::size_t w : assigned_) {
      Timing& t = timing_[w];
      t.x_arrival = t0 + spec_.net.transfer_time(x_bytes);
      t.compute_done =
          spec_.traces[w].time_to_complete(t.x_arrival, dispatch_work_[w]);
      send_[w] = spec_.net.transfer_time(result_bytes_[w]);
    }
  });
  for (std::size_t w : assigned_) {
    Timing& t = timing_[w];
    t.response = t.compute_done == kInf ? kInf : t.compute_done + send_[w];
  }
}

bool RoundReplayer::collect(sim::Time t0, std::span<const double> predicted,
                            std::size_t width) {
  const std::size_t n = spec_.num_workers();
  const std::size_t q = job_.k();
  const std::size_t chunks = alloc_.chunks_per_partition;

  by_response_.assign(assigned_.begin(), assigned_.end());
  std::sort(by_response_.begin(), by_response_.end(),
            [&](std::size_t a, std::size_t b) {
              return timing_[a].response < timing_[b].response;
            });
  std::size_t finite = 0;
  for (std::size_t w : by_response_) {
    if (timing_[w].response < kInf) ++finite;
  }
  if (finite < q) return mismatch("fewer than k workers respond");
  resize_cleared(final_chunk_workers_, chunks);
  resize_cleared(extra_chunks_, n);
  recovery_busy_.assign(n, 0.0);
  recovery_waste_.assign(n, 0.0);
  used_.assign(n, false);

  const double avg_q = timing_[by_response_[q - 1]].response - t0;
  sim::Time deadline = t0 + timeout_factor_ * avg_q;
  std::size_t r_count = 0;
  while (r_count < by_response_.size() &&
         timing_[by_response_[r_count]].response <= deadline) {
    ++r_count;
  }
  if (r_count < q) {
    deadline = timing_[by_response_[q - 1]].response;
    r_count = q;
    while (r_count < by_response_.size() &&
           timing_[by_response_[r_count]].response <= deadline) {
      ++r_count;
    }
  }
  responded_.assign(n, false);
  for (std::size_t i = 0; i < r_count; ++i) {
    responded_[by_response_[i]] = true;
  }
  timeout_fired_ = r_count != assigned_.size();

  timed(kCollect, [&] { sched::chunk_workers_into(alloc_, alloc_chunk_workers_); });
  for (std::size_t c = 0; c < chunks; ++c) {
    for (std::size_t w : alloc_chunk_workers_[c]) {
      if (responded_[w]) final_chunk_workers_[c].push_back(w);
    }
  }
  for (std::size_t w : assigned_) {
    if (responded_[w]) used_[w] = true;
  }
  coverage_ = timing_[by_response_[r_count - 1]].response;
  cancel_ = deadline;

  reassigned_ = 0;
  if (!timeout_fired_) return true;
  if (!reassign(predicted, width)) return mismatch("recovery infeasible");
  return true;
}

bool RoundReplayer::reassign(std::span<const double> predicted,
                             std::size_t width) {
  // §4.3 waves, as the engine runs them: deficient chunks are planned
  // among live responders at their predicted speeds; a recovery worker
  // that dies is written off and its chunks re-planned.
  const std::size_t n = spec_.num_workers();
  const std::size_t q = job_.k();
  const std::size_t chunks = alloc_.chunks_per_partition;
  std::vector<bool> live = responded_;
  std::vector<sim::Time> free_at(n, 0.0);
  for (std::size_t w : assigned_) free_at[w] = timing_[w].response;
  sim::Time wave_issue = cancel_;
  const double bw = static_cast<double>(width);
  const double chunk_work = job_.chunk_flops() / spec_.worker_flops;
  for (std::size_t wave = 0; wave < n; ++wave) {
    std::vector<std::size_t> deficient;
    std::vector<std::vector<std::size_t>> have;
    std::vector<std::size_t> needed;
    for (std::size_t c = 0; c < chunks; ++c) {
      if (final_chunk_workers_[c].size() < q) {
        deficient.push_back(c);
        have.push_back(final_chunk_workers_[c]);
        needed.push_back(q - final_chunk_workers_[c].size());
      }
    }
    if (deficient.empty()) break;
    std::vector<double> rspeeds(n, 0.0);
    for (std::size_t w = 0; w < n; ++w) {
      if (live[w]) rspeeds[w] = std::max(predicted[w], 1e-3);
    }
    sched::ReassignmentPlan plan;
    bool feasible = true;
    timed(kReassign, [&] {
      try {
        plan = sched::plan_reassignment(deficient, have, needed, rspeeds);
      } catch (const std::invalid_argument&) {
        feasible = false;
      }
    });
    if (!feasible) return false;
    reassigned_ += plan.total_chunks();

    recovery_calls_.clear();
    for (std::size_t w = 0; w < n; ++w) {
      const auto& extras = plan.chunks_per_worker[w];
      if (extras.empty()) continue;
      recovery_calls_.push_back(
          {w, std::max(wave_issue, free_at[w]) + spec_.net.latency_s,
           static_cast<double>(extras.size()) * chunk_work * bw,
           extras.size() * width * job_.chunk_result_bytes()});
    }
    timed(kDispatch, [&] {
      for (RecoveryCall& r : recovery_calls_) {
        r.done = spec_.traces[r.worker].time_to_complete(r.start, r.work);
        r.send = spec_.net.transfer_time(r.result_bytes);
      }
    });

    sim::Time wave_deadline = wave_issue;
    bool any_death = false;
    for (const RecoveryCall& r : recovery_calls_) {
      const std::size_t w = r.worker;
      if (r.done == kInf) {
        any_death = true;
        live[w] = false;
        recovery_waste_[w] +=
            spec_.traces[w].work_between(r.start, kFarHorizon);
        const sim::Time expected = r.start + r.work / rspeeds[w] + r.send;
        wave_deadline = std::max(
            wave_deadline, r.start + timeout_factor_ * (expected - r.start));
        continue;
      }
      const auto& extras = plan.chunks_per_worker[w];
      recovery_busy_[w] += r.done - r.start;
      free_at[w] = r.done + r.send;
      for (std::size_t c : extras) final_chunk_workers_[c].push_back(w);
      extra_chunks_[w].insert(extra_chunks_[w].end(), extras.begin(),
                              extras.end());
      coverage_ = std::max(coverage_, r.done + r.send);
    }
    if (!any_death) break;
    coverage_ = std::max(coverage_, wave_deadline);
    wave_issue = wave_deadline;
  }
  for (auto& ws : final_chunk_workers_) std::sort(ws.begin(), ws.end());
  return true;
}

void RoundReplayer::account(std::size_t width, std::span<double> observed) {
  const std::size_t n = spec_.num_workers();
  const double bw = static_cast<double>(width);
  const double chunk_work = job_.chunk_flops() / spec_.worker_flops;
  auto accounted_work = [&](std::size_t chunks) {
    return static_cast<double>(chunks) * chunk_work;
  };
  bookings_.clear();
  for (std::size_t w : assigned_) {
    const Timing& t = timing_[w];
    const double base_work = accounted_work(t.assigned_chunks) * bw;
    const double extra_work =
        static_cast<double>(extra_chunks_[w].size()) * chunk_work * bw;
    if (used_[w]) {
      bookings_.push_back({Booking::kUseful, w, base_work});
      bookings_.push_back({Booking::kUseful, w, extra_work});
      bookings_.push_back({Booking::kBusy, w,
                           t.compute_done - t.x_arrival + recovery_busy_[w]});
      if (recovery_waste_[w] > 0.0) {
        bookings_.push_back({Booking::kWasted, w, recovery_waste_[w]});
      }
    } else {
      bookings_.push_back(
          {Booking::kWasted, w,
           std::min(base_work,
                    spec_.traces[w].work_between(
                        t.x_arrival, std::max(cancel_, t.x_arrival)))});
    }
    bookings_.push_back(
        {Booking::kTraffic, w,
         static_cast<double>((t.assigned_chunks + extra_chunks_[w].size()) *
                             width * job_.chunk_result_bytes()),
         static_cast<double>(width * job_.x_bytes())});
  }
  timed(kAccount, [&] {
    for (const Booking& b : bookings_) {
      switch (b.kind) {
        case Booking::kUseful: accounting_.add_useful(b.worker, b.a); break;
        case Booking::kBusy: accounting_.add_busy(b.worker, b.a); break;
        case Booking::kWasted: accounting_.add_wasted(b.worker, b.a); break;
        case Booking::kTraffic:
          accounting_.add_traffic(b.worker, b.a, b.b);
          break;
      }
    }
  });
  // Observed speeds: what the engine feeds its predictor and monitor.
  for (std::size_t w = 0; w < n; ++w) {
    const Timing& t = timing_[w];
    if (t.assigned_chunks == 0) {
      observed[w] = spec_.traces[w].speed_at(coverage_);
    } else if (used_[w]) {
      observed[w] = accounted_work(t.assigned_chunks) * bw /
                    (t.compute_done - t.x_arrival);
    } else {
      const sim::Time until = std::max(cancel_, t.x_arrival + 1e-9);
      observed[w] = spec_.traces[w].work_between(t.x_arrival, until) /
                    (until - t.x_arrival);
    }
  }
}

void RoundReplayer::health(std::size_t width,
                           std::span<const double> observed) {
  const std::size_t n = spec_.num_workers();
  const double bw = static_cast<double>(width);
  const double chunk_work = job_.chunk_flops() / spec_.worker_flops;
  pulses_.clear();
  for (std::size_t w = 0; w < n; ++w) {
    const Timing& t = timing_[w];
    if (t.assigned_chunks == 0) {
      pulses_.push_back({w, observed[w]});
    } else if (used_[w]) {
      const double extra_work =
          static_cast<double>(extra_chunks_[w].size()) * chunk_work * bw;
      const sim::Time window =
          t.compute_done - t.x_arrival + recovery_busy_[w];
      pulses_.push_back(
          {w, (static_cast<double>(t.assigned_chunks) * chunk_work * bw +
               extra_work) /
                  window});
    } else if (observed[w] > 0.0) {
      pulses_.push_back({w, observed[w]});
    } else {
      pulses_.push_back({w, -1.0});
    }
  }
  timed(kHealth, [&] {
    for (const Pulse& p : pulses_) {
      if (p.rate < 0.0) {
        health_.record_missed(p.worker);
      } else {
        health_.record_pulse(p.worker, p.rate);
      }
    }
    degrading_ = health_.degrading_count();
  });
}

void RoundReplayer::stage_and_compute(std::span<const double> x_panel,
                                      std::size_t width) {
  const std::size_t n = spec_.num_workers();
  const std::size_t chunks = alloc_.chunks_per_partition;
  stages_.clear();
  for (std::size_t w = 0; w < n; ++w) {
    if (!used_[w]) continue;
    const sched::ChunkRange& r = alloc_.per_worker[w];
    for (std::size_t i = 0; i < r.count; ++i) {
      stages_.push_back({w, (r.begin + i) % chunks, false});
    }
    for (std::size_t c : extra_chunks_[w]) stages_.push_back({w, c, true});
  }
  slots_.resize(stages_.size());
  timed(kStage, [&] {
    decoder_.reset(width);
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      slots_[i] = decoder_.stage_chunk(stages_[i].worker, stages_[i].chunk);
    }
  });
  tasks_.clear();
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (!stages_[i].extra || !slots_[i].empty()) {
      tasks_.push_back({stages_[i].worker, stages_[i].chunk, slots_[i]});
    }
  }
  timed(kChunkCompute, [&] {
    for (const ChunkTask& t : tasks_) {
      job_.compute_chunk_into(t.worker, t.chunk, x_panel, width, t.out);
    }
  });
  if (recording_) {
    stats_.chunk_flops +=
        static_cast<double>(tasks_.size()) * job_.chunk_flops(width);
  }
}

bool RoundReplayer::replay(const core::RoundResult& result,
                           std::span<const double> x_panel, std::size_t width,
                           std::size_t round_id, bool record) {
  const std::size_t n = spec_.num_workers();
  const std::size_t q = job_.k();
  const sim::Time t0 = result.stats.start;
  recording_ = record;
  round_id_ = round_id;
  root_span_ = record ? spans_.open("replay", round_id) : SpanLog::kNoParent;
  auto finish = [&](bool ok) {
    if (record) {
      spans_.close(root_span_);
      ++stats_.rounds;
      if (!ok) ++stats_.mismatch_rounds;
    } else if (!ok) {
      ++stats_.mismatch_rounds;
    }
    return ok;
  };
  if (result.predicted_speeds.size() != n) {
    return finish(mismatch("predicted speeds missing"));
  }

  speeds_.assign(result.predicted_speeds.begin(),
                 result.predicted_speeds.end());
  std::size_t positive = 0;
  for (double v : speeds_) {
    if (v > 0.0) ++positive;
  }
  if (positive < q) {
    for (double& v : speeds_) v = std::max(v, 0.05);
  }
  timed(kAllocate, [&] {
    sched::proportional_allocation_into(speeds_, q,
                                        job_.chunks_per_partition(),
                                        alloc_scratch_, alloc_);
  });

  dispatch(t0, width);
  if (!collect(t0, result.predicted_speeds, width)) return finish(false);

  // One charge per maximal run of chunks sharing a decode subset.
  const std::size_t chunks = alloc_.chunks_per_partition;
  subsets_.resize(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    subsets_[c].assign(final_chunk_workers_[c].begin(),
                       final_chunk_workers_[c].begin() +
                           static_cast<std::ptrdiff_t>(q));
  }
  charges_.clear();
  for (std::size_t c = 0; c < chunks;) {
    std::size_t e = c + 1;
    while (e < chunks && subsets_[e] == subsets_[c]) ++e;
    charges_.push_back({c, (e - c) * job_.rows_per_chunk() * width});
    c = e;
  }
  double dec_flops = 0.0;
  timed(kCharge, [&] {
    for (const ChargeCall& g : charges_) {
      dec_flops += context_.charge(subsets_[g.first_chunk], g.values).flops;
    }
  });
  if (recording_) stats_.groups += charges_.size();
  const double end = coverage_ + dec_flops / spec_.master_flops;
  bool ok = true;
  if (coverage_ != result.stats.coverage || end != result.stats.end) {
    ok = mismatch("coverage/end times differ");
  }
  if (timeout_fired_ != result.stats.timeout_fired ||
      reassigned_ != result.stats.reassigned_chunks) {
    ok = mismatch("timeout or reassigned-chunk count differs");
  }

  observed_.resize(n);
  account(width, observed_);
  if (observed_ != result.observed_speeds) {
    ok = mismatch("observed speeds differ");
  }
  health(width, observed_);
  if (degrading_ != result.stats.degrading_workers) {
    ok = mismatch("degrading-worker count differs");
  }

  stage_and_compute(x_panel, width);
  timed(kDecode, [&] {
    decoder_.decode_into(decoded_);
    if (width == 1) {
      job_.trim_into(decoded_, y_);
    } else {
      job_.trim_block_into(decoded_, y_block_);
    }
  });
  const bool same_product =
      width == 1
          ? result.y.has_value() && *result.y == y_
          : result.y_block.has_value() &&
                result.y_block->rows() == y_block_.rows() &&
                result.y_block->cols() == y_block_.cols() &&
                std::equal(y_block_.data().begin(), y_block_.data().end(),
                           result.y_block->data().begin());
  if (!same_product) ok = mismatch("decoded product differs");
  return finish(ok);
}

}  // namespace s2c2::bench_e2e
