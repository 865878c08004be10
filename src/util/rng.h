// Seeded random number generation.
//
// Every stochastic component in the library takes an explicit Rng (or a
// seed) so simulations, tests, and benchmarks are reproducible run-to-run.
// Rng::split() derives an independent child stream, which lets a simulation
// hand out per-worker generators without correlated draws.
//
// The engine is Mt19937_64: the 64-bit Mersenne Twister, the exact output
// stream of std::mt19937_64 for the same seed, generated a block at a time.
// refill() twists and tempers all 312 state words in one branch-free pass
// that the compiler vectorizes, so each draw is one load; libstdc++'s
// engine tempers per draw behind a branch. The distributions are the
// standard library's, fed the same words, so every value an Rng returns is
// the value a std::mt19937_64-driven Rng returned (tests/util_test.cpp
// checks both over millions of draws).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace s2c2::util {

/// The 64-bit Mersenne Twister as a uniform random bit generator: the
/// std::mt19937_64 stream, generated 312 words at a time.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateWords = 312;

  /// std::mt19937_64's seeding: the same seed gives the same stream.
  explicit Mt19937_64(result_type seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    if (next_ == kStateWords) refill();
    return out_[next_++];
  }

 private:
  /// Twists the state into its next 312 words and tempers them into out_.
  void refill();

  std::array<result_type, kStateWords> state_;
  std::array<result_type, kStateWords> out_;
  std::size_t next_ = kStateWords;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Standard normal scaled to N(mean, stddev^2).
  double normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Bernoulli trial.
  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Exponentially distributed with the given rate (lambda).
  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Derives an independent generator; advancing either does not affect
  /// the other.
  Rng split() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ull); }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

 private:
  Mt19937_64 engine_;
};

}  // namespace s2c2::util
