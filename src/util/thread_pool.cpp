#include "src/util/thread_pool.h"

#include <algorithm>
#include <utility>

namespace s2c2::util {

namespace {
// Set while this thread runs drain(); the free parallel_for's
// serial-fallback predicate (nesting contract in the header). A plain
// bool, not a pool pointer: the fallback must trigger inside ANY pool's
// fan-out, including a different pool's.
thread_local bool t_in_fanout = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  wake_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

bool ThreadPool::in_worker() noexcept { return t_in_fanout; }

std::size_t ThreadPool::hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void ThreadPool::drain() {
  const bool outer = t_in_fanout;
  t_in_fanout = true;
  for (std::size_t i = next_.fetch_add(1); i < count_ && !stop_.load();
       i = next_.fetch_add(1)) {
    try {
      (*fn_)(i);
    } catch (...) {
      stop_.store(true);
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
  }
  t_in_fanout = outer;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    wake_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
    if (shutdown_) return;
    seen = generation_;
    // A worker that wakes after the caller closed the fan-out has nothing
    // left to claim and goes back to sleep.
    if (!open_) continue;
    ++running_;
    lock.unlock();
    drain();
    lock.lock();
    if (--running_ == 0 && !open_) done_cv_.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  bool serial = count <= 1 || workers_.empty();
  if (!serial) {
    std::lock_guard<std::mutex> lock(mu_);
    serial = active_;
    if (!serial) {
      active_ = open_ = true;
      fn_ = &fn;
      count_ = count;
      next_.store(0);
      stop_.store(false);
      ++generation_;
    }
  }
  if (serial) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  wake_cv_.notify_all();
  // Help-first: drain inline. When this returns every index has been
  // claimed (or the fan-out stopped), so the wait below is only for
  // helpers still running an index they claimed.
  drain();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    open_ = false;
    done_cv_.wait(lock, [this] { return running_ == 0; });
    active_ = false;
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn) {
  if (jobs == 0) jobs = ThreadPool::hardware_threads();
  // Serial fallback inside a fan-out body (contract in the header): the
  // enclosing sharding already owns the hardware, and a private pool per
  // nested call would multiply threads at (outer jobs x inner jobs).
  if (jobs <= 1 || count <= 1 || ThreadPool::in_worker()) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  ThreadPool pool(std::min(jobs, count) - 1);
  pool.parallel_for(count, fn);
}

}  // namespace s2c2::util
