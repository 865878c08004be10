// A fixed team of worker threads with one operation, a help-first
// parallel_for, plus the free parallel_for(count, jobs, fn) built on it.
//
// Both run fn(i) for every i in [0, count) with each index executed exactly
// once, claimed from a shared counter: finished threads keep pulling
// instead of idling behind a static partition (matrix cells and chunk
// products vary widely in cost). Callers that write results into a
// preallocated slot per index get bit-identical output regardless of
// thread count, which is the harness's determinism contract (pinned by
// tests/thread_pool_test.cpp at several --jobs values).
//
// The system has four users: sharding independent sweep cells (matrix
// runner, job suite, serve sweeps, claims table) through the free
// parallel_for, the chunk fan-out inside one round (CodedComputeEngine's
// inner pool) through the member call, run_serve's one-worker pool,
// which overlaps each round with its exact check through the member call,
// and the round executor's one-worker pool per calling thread, which runs
// the predictor update beside the round's decode through the member call.
//
// Nesting contract (see docs/ARCHITECTURE.md "Threading ownership"):
//   * The member call is HELP-FIRST: the calling thread drains indices
//     alongside the workers, then waits only for workers still running an
//     index they already claimed. No index ever waits in a queue for a
//     busy thread, so a fan-out cannot deadlock on its own team.
//   * in_worker() is true while the calling thread runs a fan-out body,
//     on a worker or on a caller that is draining. The free parallel_for
//     falls back to SERIAL there: outer sharding composes with inner
//     parallelism without thread explosion, and results are bit-identical
//     either way because each index's work is order-independent.
//   * A member call issued while the same pool is already fanning out
//     (from inside one of its bodies, or from another thread) runs serial
//     on the calling thread.
//
// Concurrency-sensitive paths here are covered by the `tsan` CMake preset
// (cmake --preset tsan && cmake --build --preset tsan -j &&
// ctest --preset tsan); CI runs the thread/kernel/arena/parallel-round
// suites under ThreadSanitizer on every push.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace s2c2::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers. With 0 workers every call runs on the
  /// caller alone.
  explicit ThreadPool(std::size_t threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Wakes and joins every worker. Must not run while a parallel_for on
  /// this pool is in progress.
  ~ThreadPool();

  /// Help-first fan-out: runs fn(i) for every i in [0, count), spread over
  /// this pool's workers PLUS the calling thread. Each index runs exactly
  /// once; fn must only touch per-index state. After the first exception
  /// no further index starts, and that exception is rethrown on the
  /// calling thread once every running index has finished.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// True while the calling thread runs a fan-out body of ANY pool — the
  /// free parallel_for's serial-fallback predicate.
  [[nodiscard]] static bool in_worker() noexcept;

  /// max(1, std::thread::hardware_concurrency()).
  [[nodiscard]] static std::size_t hardware_threads();

 private:
  /// Claims indices of the open fan-out until none remain or one failed.
  void drain();
  void worker_loop();

  std::mutex mu_;
  std::condition_variable wake_cv_;  // workers: new generation or shutdown
  std::condition_variable done_cv_;  // caller: the last helper has left
  // Guarded by mu_. A call bumps generation_ and opens the fan-out; a
  // worker joins (running_ + 1) only while it is open, and the caller
  // closes it before waiting for running_ to reach 0, so a worker that
  // wakes late can never touch a finished call's state.
  std::uint64_t generation_ = 0;
  bool active_ = false;  // a call is in progress (re-entrant calls go serial)
  bool open_ = false;    // helpers may still join
  bool shutdown_ = false;
  std::size_t running_ = 0;
  std::exception_ptr error_;
  // The current call's work. Written under mu_ before the fan-out opens,
  // read by helpers after they join under mu_.
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;
};

/// Runs fn(i) for every i in [0, count) over `jobs` threads, the caller
/// included (jobs == 0 means hardware_threads()). Serial on the calling
/// thread when jobs <= 1, count <= 1, or inside a fan-out body (nesting
/// contract above); otherwise a temporary ThreadPool of
/// min(jobs, count) - 1 workers plus its member parallel_for, with the
/// same exactly-once and exception semantics.
void parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn);

}  // namespace s2c2::util
