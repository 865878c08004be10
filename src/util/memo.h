// Process-wide memo for pure, expensive builds shared across threads.
//
// A value is built once per key by whichever caller asks first; concurrent
// callers for the same key wait on its shared future instead of building it
// again. The mutex guards only the lookup/insert of a per-key future: builds
// run outside the lock, so distinct keys build concurrently while callers of
// one key share one build. Builds must be pure functions of their key —
// that keeps a cached value byte-identical to a fresh build, so the memo
// only removes duplicate work and never changes a result. A build that
// throws stores its exception, and every caller of that key rethrows it.
#pragma once

#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <utility>

namespace s2c2::util {

template <typename Key, typename Value>
class SharedMemo {
 public:
  /// The value for `key`, built by `build()` on first use. Before a new key
  /// is inserted, every entry whose key satisfies `stale(key)` is dropped;
  /// callers already holding such a value keep their own copy.
  template <typename Build, typename Stale>
  Value get(const Key& key, Build&& build, Stale&& stale) {
    std::promise<Value> promise;
    std::shared_future<Value> future;
    bool builder = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(key);
      if (it == entries_.end()) {
        std::erase_if(entries_,
                      [&](const auto& entry) { return stale(entry.first); });
        builder = true;
        future = promise.get_future().share();
        entries_.emplace(key, future);
      } else {
        future = it->second;
      }
    }
    if (builder) {
      try {
        promise.set_value(build());
      } catch (...) {
        promise.set_exception(std::current_exception());
      }
    }
    return future.get();
  }

  /// get() without eviction: one entry per key ever asked for.
  template <typename Build>
  Value get(const Key& key, Build&& build) {
    return get(key, std::forward<Build>(build),
               [](const Key&) { return false; });
  }

 private:
  std::mutex mu_;
  std::map<Key, std::shared_future<Value>> entries_;
};

}  // namespace s2c2::util
