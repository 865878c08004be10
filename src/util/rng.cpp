#include "src/util/rng.h"

namespace s2c2::util {

namespace {

// std::mt19937_64's parameters (the standard's [rand.predef]).
constexpr std::size_t kN = Mt19937_64::kStateWords;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ull;
constexpr std::uint64_t kUpperMask = ~0ull << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ull;

// One twist step: the upper bit of `hi` joined to the lower 31 of `lo`,
// shifted and conditionally xor-ed with the matrix, without a branch.
inline std::uint64_t twist(std::uint64_t hi, std::uint64_t lo,
                           std::uint64_t far) {
  const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

inline std::uint64_t temper(std::uint64_t z) {
  z ^= (z >> 29) & 0x5555555555555555ull;
  z ^= (z << 17) & 0x71d67fffeda60000ull;
  z ^= (z << 37) & 0xfff7eee000000000ull;
  z ^= z >> 43;
  return z;
}

}  // namespace

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = kInitMultiplier * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::refill() {
  // The standard's recurrence in three loops, as libstdc++ runs it: the
  // first n - m words twist old words only; after them, the far partner
  // i + m - n is a word this pass has already rewritten.
  std::size_t i = 0;
  for (; i < kN - kM; ++i) {
    state_[i] = twist(state_[i], state_[i + 1], state_[i + kM]);
  }
  for (; i < kN - 1; ++i) {
    state_[i] = twist(state_[i], state_[i + 1], state_[i + kM - kN]);
  }
  state_[kN - 1] = twist(state_[kN - 1], state_[0], state_[kM - 1]);
  for (std::size_t j = 0; j < kN; ++j) out_[j] = temper(state_[j]);
  next_ = 0;
}

}  // namespace s2c2::util
