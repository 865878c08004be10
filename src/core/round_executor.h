// The shared round lifecycle of every *coded* strategy (paper §4, §6):
//
//   predict speeds → allocate chunks → dispatch (broadcast + compute +
//   response transfer over the speed traces) → collect (fastest-quorum
//   for the conventional strategies, the §4.3 timeout window for the S2C2
//   family) → wave-based chunk-reassignment recovery → Byzantine verify →
//   decode-cost charge through the strategy's coding::DecodeContext →
//   accounting → predictor observations → health pulses → functional
//   decode.
//
// RoundExecutor::run_round_impl is the only copy of that loop. It calls
// one private phase method per step, in the order above, and the phases
// share one RoundState. Concrete coded engines (CodedComputeEngine,
// PolyCodedEngine, LtCodedEngine, and AdaptiveGradientEngine through
// CodedComputeEngine) supply only the strategy-specific ingredients
// through the protected hooks: cost geometry, allocation (defaulted by
// StrategyKind), decode subsets/charging, and the functional decode.
//
// Collection semantics are derived from kind(): strategy_uses_recovery
// kinds run the §4.3 timeout + recovery window; the rest wait for the
// fastest quorum() responders and cancel the stragglers. The timeout
// reference point is the quorum-th fastest response — see docs/DESIGN.md
// §5 for why this beats the paper's "average of the first k" wording
// under strong speed spread.
//
// Accounting contract: every coded strategy books a round the same way —
// a used worker's base and recovery work as two useful adds (fingerprints
// hash accounting totals, and double addition is not associative, so the
// order of add_useful calls is behavior), its busy window including
// recovery, any recovery waste, and its traffic; a cancelled worker's
// partial progress as waste, and its observed speed as the unclamped work
// it did per second up to the cancel. tests/fingerprint_guard_test pins
// the resulting bits.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/strategy_engine.h"
#include "src/sched/allocation.h"
#include "src/sched/reassignment.h"
#include "src/telemetry/health_monitor.h"

namespace s2c2::core {

class RoundExecutor : public StrategyEngine {
 public:
  [[nodiscard]] const telemetry::HealthMonitor* health_monitor()
      const override {
    return &health_;
  }

 protected:
  RoundExecutor(StrategyKind kind, ClusterSpec spec,
                std::unique_ptr<predict::SpeedPredictor> predictor,
                bool oracle_speeds, double timeout_factor,
                double straggler_threshold,
                std::size_t chunks_per_partition,
                bool health_informed = false);

  struct WorkerTiming {
    std::size_t assigned_chunks = 0;
    sim::Time x_arrival = 0.0;
    sim::Time compute_done = 0.0;
    sim::Time response = 0.0;  // +inf if the worker never responds
  };

  /// The state of one round, written by the lifecycle phases in order and
  /// handed read-only to the decode hooks once collection, recovery and
  /// verification are done. The executor keeps one instance across rounds:
  /// every vector is cleared (never shrunk) when a round starts, so a
  /// warmed steady-state round touches the heap zero times —
  /// tests/arena_test.cpp's counting allocator enforces it — and a warmed
  /// recovery round allocates only on decode cache misses. The Byzantine
  /// verification keeps a local mask: it runs on corrupted rounds only.
  struct RoundState {
    // ---- scalars, re-written every round ----
    sim::Time t0 = 0.0;
    /// Collection quorum: every coverage target — allocation, deadline
    /// reference, wave deficiency — uses it, so Byzantine rounds gather
    /// the redundancy the verification pass needs. quorum() when honest.
    std::size_t q = 0;
    std::size_t width = 1;  // RHS block width b (1 for classic rounds)
    // The cost hooks, read once per round: fixed_work(), chunk_flops()
    // and chunk_flops() / worker_flops.
    double fixed = 0.0;
    double flops = 0.0;
    double chunk_work = 0.0;
    std::size_t finite = 0;      // assigned workers that ever respond
    sim::Time deadline = 0.0;    // §4.3 collection deadline (timeout kinds)
    sim::Time coverage = 0.0;    // every chunk has q responders
    sim::Time cancel = 0.0;      // cancelled workers stop computing

    // ---- the ledger the decode hooks read ----
    sched::Allocation alloc;
    std::vector<WorkerTiming> timing;
    std::vector<bool> used;
    /// Responders that delivered chunk c, in ascending worker-id order.
    std::vector<std::vector<std::size_t>> final_chunk_workers;
    /// The chunks worker w picked up during recovery.
    std::vector<std::vector<std::size_t>> extra_chunks;
    /// Corrupted responders stripped from chunk c after collection (empty
    /// on honest clusters) — functional decodes re-add their corrupted
    /// values so the decoder's residual check performs the identification
    /// numerically (docs/DESIGN.md §7).
    std::vector<std::vector<std::size_t>> byzantine_chunk_workers;

    // ---- collection, charge and accounting scratch ----
    std::vector<std::size_t> assigned;     // workers with assigned work
    std::vector<std::size_t> by_response;  // `assigned` by response time
    std::vector<bool> responded;           // beat the §4.3 deadline
    std::vector<std::vector<std::size_t>> alloc_chunk_workers;
    std::vector<std::vector<std::size_t>> subsets;  // decode_subsets output
    std::vector<sim::Time> recovery_busy;  // compute spent on extras
    std::vector<double> recovery_waste;    // died mid-reassignment

    // ---- §4.3 recovery waves ----
    // have[i] views final_chunk_workers at deficient[i]; the views live
    // only while a wave plans.
    std::vector<bool> recovery_live;
    std::vector<sim::Time> free_at;
    std::vector<std::size_t> deficient;
    std::vector<std::span<const std::size_t>> have;
    std::vector<std::size_t> needed;
    std::vector<double> rspeeds;
    sched::ReassignmentScratch reassign_scratch;
    sched::ReassignmentPlan plan;
  };

  // ---- geometry / cost hooks -------------------------------------------
  /// Responses a decode needs: k for MDS codes, a² for polynomial codes.
  [[nodiscard]] virtual std::size_t quorum() const = 0;
  /// Input-broadcast and per-chunk response sizes on the wire.
  [[nodiscard]] virtual std::size_t x_bytes() const = 0;
  [[nodiscard]] virtual std::size_t chunk_result_bytes() const = 0;
  /// Flops of one chunk's product for a single RHS column; the executor
  /// turns it into unit-speed seconds through spec_.worker_flops.
  [[nodiscard]] virtual double chunk_flops() const = 0;
  /// Unit-speed seconds every assigned worker spends once per round on
  /// top of its chunks (poly's diag(x)·B̃ scaling). Default 0.
  [[nodiscard]] virtual double fixed_work() const { return 0.0; }

  // ---- allocation hook --------------------------------------------------
  /// Chunk allocation from predicted speeds, filled into `out` (which
  /// retains its capacity across rounds — the steady state allocates
  /// nothing). The default dispatches on kind(): full allocation (kMds,
  /// kPolyConventional), equal shares over non-stragglers (kS2C2Basic),
  /// speed-proportional shares with the quorum-feasibility guard (kS2C2,
  /// kPoly). Override for novel allocation policies; non-const so
  /// overriders can keep member scratch warm.
  virtual void allocate_into(std::span<const double> speeds,
                             sched::Allocation& out);

  // ---- collection hook --------------------------------------------------
  /// Conventional-collection stopping rule: how many of the fastest
  /// responders the master waits for before cancelling the rest. The
  /// default is the fixed collection_quorum(); strategies whose decode
  /// quorum is not a worker count override it (the LT engine stops on
  /// accumulated coded *symbols*, extending past its minimum responder
  /// count until the peel plan closes). Must return a count in
  /// [1, finite] or throw the strategy's quorum-failure error.
  /// `by_response` holds the workers with assigned work ordered by
  /// response time; only the first `finite` ever respond. Not consulted
  /// on the §4.3 timeout path (recovery strategies collect by deadline).
  [[nodiscard]] virtual std::size_t collection_count(
      std::span<const std::size_t> /*by_response*/,
      std::size_t /*finite*/) const {
    return collection_quorum();
  }

  // ---- failure policy ---------------------------------------------------
  /// Thrown when fewer than quorum assigned workers can ever respond.
  [[nodiscard]] virtual const char* quorum_failure_error() const = 0;
  /// True (default): a recovery worker dying mid-reassignment books its
  /// partial progress as waste and its chunks re-plan among survivors in
  /// the next wave (the §4.3 generalization). False: the death is an
  /// unrecoverable cluster failure, thrown as recovery_death_error().
  [[nodiscard]] virtual bool recovery_survives_death() const { return true; }
  [[nodiscard]] virtual const char* recovery_death_error() const {
    return "cluster failure during recovery";
  }
  /// Thrown when no live worker set can cover a deficient chunk; `what`
  /// is the planner's reason.
  [[nodiscard]] virtual std::string recovery_infeasible_error(
      const char* what) const {
    return std::string("cluster failure: recovery infeasible: ") + what;
  }

  // ---- decode hooks -----------------------------------------------------
  /// The strategy's persistent decode context (cache lives across rounds).
  [[nodiscard]] virtual coding::DecodeContext& decode_context() = 0;
  /// Per-chunk decode subsets (the exact worker ids the decoder will
  /// solve from — cost-model cache keys must match the numeric decoder's),
  /// filled into `out` (outer and inner capacity retained across rounds).
  virtual void decode_subsets(const RoundState& round,
                              std::vector<std::vector<std::size_t>>& out)
      const = 0;
  /// Reconstructed values per chunk (multiplies the per-RHS solve cost).
  [[nodiscard]] virtual std::size_t decode_values_per_chunk() const = 0;
  /// True when this round should run the numeric decode for input x.
  [[nodiscard]] virtual bool functional_round(
      std::span<const double> x) const = 0;
  /// Block analog for width > 1 rounds. Default false; strategies whose
  /// kind supports block rounds override it.
  [[nodiscard]] virtual bool functional_block_round(
      const linalg::Matrix& /*x_block*/) const {
    return false;
  }
  /// Runs the numeric decode and stores the product into `result` (y for
  /// matrix-vector strategies, hessian for bilinear ones).
  virtual void decode_product(RoundResult& result, const RoundState& round,
                              std::span<const double> x) = 0;
  /// Block analog: decodes all columns of A·X into result.y_block through
  /// one width-b decoder. Default throws; never reached while
  /// supports_block_rounds() is false.
  virtual void decode_product_block(RoundResult& result,
                                    const RoundState& round,
                                    const linalg::Matrix& x_block);

  [[nodiscard]] double timeout_factor() const noexcept {
    return timeout_factor_;
  }
  [[nodiscard]] double straggler_threshold() const noexcept {
    return straggler_threshold_;
  }
  [[nodiscard]] std::size_t chunks_per_partition() const noexcept {
    return chunks_per_partition_;
  }
  [[nodiscard]] bool oracle_speeds() const noexcept { return oracle_speeds_; }

  /// Responses the master collects per chunk. Exactly quorum() on honest
  /// clusters. When the cluster spec declares Byzantine workers the
  /// collection over-provisions by min(n - q, max(e + 1, 2e)) extra
  /// responders so each chunk keeps >= quorum() clean responders after the
  /// corrupted ones are stripped, and the functional decoder retains
  /// >= k + e + 1 rows — the identification bound of docs/DESIGN.md §7.
  [[nodiscard]] std::size_t collection_quorum() const;

  // Allocator scratch shared with subclass allocate_into overrides (AGC's
  // reuses it); warm capacity keeps the per-round allocation heap-free.
  sched::AllocationScratch alloc_scratch_;
  std::vector<double> median_scratch_;
  std::vector<double> speed_scratch_;
  std::vector<bool> straggler_scratch_;
  std::vector<std::size_t> flagged_scratch_;

 private:
  /// The one copy of the round lifecycle: the phases below, in order.
  /// `width` is the RHS block width b (1 for classic rounds); `x_block` is
  /// non-null only for width > 1 rounds. Dispatch then ships b columns,
  /// every chunk response carries b values per row, compute and decode
  /// charges scale by b, and one cached decode factorization per responder
  /// set serves all b columns. Every b-scaled term multiplies by width
  /// exactly, so width == 1 is the single-column arithmetic bit for bit.
  [[nodiscard]] RoundResult run_round_impl(std::span<const double> x,
                                           const linalg::Matrix* x_block,
                                           std::size_t width) final;

  // ---- phases, in lifecycle order; each reads and writes round_ --------
  void begin_round(std::size_t width);  // scalars: t0, q, width, cost hooks
  void predict_speeds(sim::Time t0, std::vector<double>& out);
  /// Simulates every worker's broadcast, compute and response, orders the
  /// responders, throws the quorum failure, and clears the ledger.
  void dispatch();
  void collect_fastest();
  void collect_by_deadline(sim::RoundStats& stats);
  void recover(RoundResult& result);
  /// Plans one recovery wave into round_.plan; false when no chunk is
  /// deficient.
  bool plan_wave(std::span<const double> predicted);
  void verify(sim::RoundStats& stats);  // strips Byzantine responders
  void charge(sim::RoundStats& stats);  // decode cost; sets coverage, end
  void account();
  void observe(RoundResult& result);
  void record_health(RoundResult& result);
  void decode(RoundResult& result, bool functional, std::span<const double> x,
              const linalg::Matrix* x_block);

  // ---- the two pinned cost orders ----------------------------------------
  // Unit-speed seconds of `chunks` chunks plus the fixed per-round work,
  // one column. Dispatch evaluates fixed + (chunks · flops) / worker_flops;
  // accounting, observation and health evaluate fixed + chunks · chunk_work.
  // The two differ in the last bit, and both stay: fingerprint_guard_test
  // pins the s2c2 bits, and so does the executor copy in
  // bench/e2e/replay.cpp.
  [[nodiscard]] double dispatch_work(std::size_t chunks) const;
  [[nodiscard]] double accounted_work(std::size_t chunks) const;
  /// Worker w's booked base and recovery work over all width columns.
  struct WorkerWork {
    double base;
    double extra;
  };
  [[nodiscard]] WorkerWork worker_work(std::size_t w) const;

  bool oracle_speeds_;
  double timeout_factor_;
  double straggler_threshold_;
  std::size_t chunks_per_partition_;
  bool health_informed_;
  telemetry::HealthMonitor health_;
  RoundState round_;
};

}  // namespace s2c2::core
