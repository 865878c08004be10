// Out-of-engine instrumentation for bench_e2e's traced runs.
//
// Nothing here reaches into src/: every number comes from timing calls to
// the layers' public functions.
//
//  * SpanLog keeps (name, start, end, parent, round) spans in memory and
//    writes them as JSON lines, with self time = duration - children.
//  * TimedPredictor decorates the engine's speed predictor and times the
//    real in-engine predict/observe calls.
//  * RoundReplayer re-runs a finished s2c2 round's lifecycle from outside,
//    on the RoundResult's predicted speeds and the bench's own
//    DecodeContext, Accounting and HealthMonitor. The glue between layer
//    calls (response sort, deadline scan, wave bookkeeping, argument
//    arithmetic, trace queries for waste and observed speeds) is a copy of
//    core::RoundExecutor::run_round_impl and runs untimed; it first gathers
//    each phase's call arguments, then one span per phase batch times only
//    the calls into src/ (proportional_allocation_into, transfer_time and
//    time_to_complete, chunk_workers_into, plan_reassignment,
//    DecodeContext::charge, Accounting::add_*, HealthMonitor::record_*,
//    ChunkedDecoder::reset/stage_chunk, compute_chunk_into, decode_into and
//    trim). A replay counts only if it reproduces the engine exactly:
//    coverage and end times, timeout and reassigned chunks, observed
//    speeds, degrading workers, and the decoded product bit for bit.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/coding/chunked_decoder.h"
#include "src/coding/decode_context.h"
#include "src/core/coded_job.h"
#include "src/core/strategy_engine.h"
#include "src/predict/predictors.h"
#include "src/sched/allocation.h"
#include "src/sim/accounting.h"
#include "src/telemetry/health_monitor.h"

namespace s2c2::bench_e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class SpanLog {
 public:
  static constexpr std::size_t kNoParent =
      std::numeric_limits<std::size_t>::max();

  /// Opens a span and returns its id. `name` must be a string literal.
  std::size_t open(const char* name, std::size_t round,
                   std::size_t parent = kNoParent);
  /// Closes span `id` and returns its duration in seconds.
  double close(std::size_t id);

  /// One JSON object per line: name, start_ns, end_ns (from the log's
  /// epoch), parent (-1 for roots), round, self_ns.
  void write_jsonl(std::ostream& out) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    std::size_t parent;
    std::size_t round;
  };
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// Times every predict/observe call of the wrapped predictor.
class TimedPredictor final : public predict::SpeedPredictor {
 public:
  explicit TimedPredictor(std::unique_ptr<predict::SpeedPredictor> inner)
      : inner_(std::move(inner)) {}

  void observe(std::size_t worker, double speed) override;
  double predict(std::size_t worker) override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] double busy_s() const noexcept { return busy_s_; }
  [[nodiscard]] std::size_t calls() const noexcept { return calls_; }

 private:
  std::unique_ptr<predict::SpeedPredictor> inner_;
  double busy_s_ = 0.0;
  std::size_t calls_ = 0;
};

/// Replay phases in lifecycle order.
enum Phase : std::size_t {
  kAllocate,
  kDispatch,
  kCollect,
  kReassign,
  kCharge,
  kAccount,
  kHealth,
  kStage,
  kChunkCompute,
  kDecode,
  kNumPhases,
};

/// Span / metric name of a phase ("sched.allocate", ...).
[[nodiscard]] const char* phase_name(Phase p);

/// Totals over the recorded replays.
struct ReplayStats {
  std::array<double, kNumPhases> phase_s{};  // seconds per phase
  std::size_t rounds = 0;
  std::size_t mismatch_rounds = 0;
  std::size_t groups = 0;       // decode-charge groups
  double chunk_flops = 0.0;     // flops run in the chunk-compute phase
};

/// Replays the rounds of one s2c2 CodedComputeEngine on an honest cluster.
/// Must see every round the engine runs, from its first, so that its own
/// DecodeContext cache matches the engine's; `record` selects the rounds
/// whose spans and phase times count.
class RoundReplayer {
 public:
  /// `job` and `spec` are the engine's (borrowed; they must outlive the
  /// replayer); `timeout_factor` is the engine's §4.3 factor.
  RoundReplayer(const core::CodedMatVecJob& job, const core::ClusterSpec& spec,
                double timeout_factor, SpanLog& spans);
  RoundReplayer(const RoundReplayer&) = delete;
  RoundReplayer& operator=(const RoundReplayer&) = delete;

  /// Replays the engine's round `result`, run on the cols x width panel
  /// `x_panel` (row-major). Returns true when the replay matched.
  bool replay(const core::RoundResult& result,
              std::span<const double> x_panel, std::size_t width,
              std::size_t round_id, bool record);

  [[nodiscard]] const ReplayStats& stats() const noexcept { return stats_; }

  /// Why the first mismatching round failed (empty while none has).
  [[nodiscard]] const std::string& first_mismatch() const noexcept {
    return first_mismatch_;
  }

 private:
  struct Timing {
    std::size_t assigned_chunks = 0;
    sim::Time x_arrival = 0.0;
    sim::Time compute_done = 0.0;
    sim::Time response = 0.0;
  };
  // Call arguments gathered by the glue, and results the timed calls fill.
  struct RecoveryCall {
    std::size_t worker;
    sim::Time start;
    double work;
    std::size_t result_bytes;
    sim::Time done = 0.0;
    sim::Time send = 0.0;
  };
  struct ChargeCall {
    std::size_t first_chunk;
    std::size_t values;
  };
  struct Booking {
    enum Kind { kUseful, kBusy, kWasted, kTraffic } kind;
    std::size_t worker;
    double a;
    double b = 0.0;  // kTraffic: bytes in
  };
  struct Pulse {
    std::size_t worker;
    double rate;  // negative: record_missed
  };
  struct StageCall {
    std::size_t worker;
    std::size_t chunk;
    bool extra;  // recovery extras may duplicate a staged chunk
  };
  struct ChunkTask {
    std::size_t worker;
    std::size_t chunk;
    std::span<double> out;
  };

  void dispatch(sim::Time t0, std::size_t width);
  /// Collection and §4.3 recovery; false when the engine would have
  /// thrown a cluster failure instead of returning a round.
  bool collect(sim::Time t0, std::span<const double> predicted,
               std::size_t width);
  bool reassign(std::span<const double> predicted, std::size_t width);
  void account(std::size_t width, std::span<double> observed);
  void health(std::size_t width, std::span<const double> observed);
  void stage_and_compute(std::span<const double> x_panel, std::size_t width);
  bool mismatch(const std::string& why);

  template <typename Fn>
  void timed(Phase p, Fn&& fn);

  const core::CodedMatVecJob& job_;
  const core::ClusterSpec& spec_;
  double timeout_factor_;
  SpanLog& spans_;
  coding::DecodeContext context_;
  coding::ChunkedDecoder decoder_;  // borrows context_, declared after it
  sim::Accounting accounting_;
  telemetry::HealthMonitor health_;
  ReplayStats stats_;
  std::string first_mismatch_;

  // Current replay's span bookkeeping.
  bool recording_ = false;
  std::size_t round_id_ = 0;
  std::size_t root_span_ = SpanLog::kNoParent;

  // Per-round scratch.
  sched::AllocationScratch alloc_scratch_;
  sched::Allocation alloc_;
  std::vector<double> speeds_;
  std::vector<Timing> timing_;
  std::vector<double> dispatch_work_;
  std::vector<std::size_t> result_bytes_;
  std::vector<sim::Time> send_;
  std::vector<RecoveryCall> recovery_calls_;
  std::vector<ChargeCall> charges_;
  std::vector<Booking> bookings_;
  std::vector<Pulse> pulses_;
  std::vector<StageCall> stages_;
  std::vector<std::span<double>> slots_;
  std::vector<std::size_t> assigned_;
  std::vector<std::size_t> by_response_;
  std::vector<bool> responded_;
  std::vector<bool> used_;
  std::vector<std::vector<std::size_t>> alloc_chunk_workers_;
  std::vector<std::vector<std::size_t>> final_chunk_workers_;
  std::vector<std::vector<std::size_t>> extra_chunks_;
  std::vector<std::vector<std::size_t>> subsets_;
  std::vector<sim::Time> recovery_busy_;
  std::vector<double> recovery_waste_;
  std::vector<double> observed_;
  std::vector<ChunkTask> tasks_;
  linalg::Matrix decoded_;
  linalg::Vector y_;
  linalg::Matrix y_block_;
  bool timeout_fired_ = false;
  std::size_t reassigned_ = 0;
  std::size_t degrading_ = 0;
  sim::Time coverage_ = 0.0;
  sim::Time cancel_ = 0.0;
};

}  // namespace s2c2::bench_e2e
