// Unit tests for src/util: stats, table formatting, seeded RNG, strict
// flag parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include "src/util/parse.h"
#include "src/util/require.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace s2c2::util {
namespace {

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(variance(xs), 1.25);
  EXPECT_NEAR(stddev(xs), 1.1180339887, 1e-9);
}

TEST(Stats, MeanOfEmptyThrows) {
  EXPECT_THROW((void)mean({}), std::invalid_argument);
  EXPECT_THROW((void)variance({}), std::invalid_argument);
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(median(xs), 25.0);
}

TEST(Stats, PercentileSingleElement) {
  const std::vector<double> xs{7.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 99.0), 7.0);
}

TEST(Stats, PercentileRejectsOutOfRangeP) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW((void)percentile(xs, -1.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(xs, 101.0), std::invalid_argument);
}

TEST(Stats, MapeMatchesHandComputation) {
  const std::vector<double> pred{1.1, 0.9};
  const std::vector<double> act{1.0, 1.0};
  EXPECT_NEAR(mape(pred, act), 10.0, 1e-9);
}

TEST(Stats, MapeSkipsNearZeroActuals) {
  const std::vector<double> pred{1.0, 5.0};
  const std::vector<double> act{0.0, 4.0};
  EXPECT_NEAR(mape(pred, act), 25.0, 1e-9);
}

TEST(Stats, MapeSizeMismatchThrows) {
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW((void)mape(a, b), std::invalid_argument);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.uniform() != b.uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(7);
  Rng child = a.split();
  // Child continues deterministically regardless of parent advancement.
  Rng a2(7);
  Rng child2 = a2.split();
  for (int i = 0; i < 50; ++i) a2.uniform();
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(child.uniform(), child2.uniform());
  }
}

TEST(Rng, UniformIntInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 5);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

// Rng's methods on std::mt19937_64: the generator Rng used before its
// block-generated engine, and the stream that engine must reproduce.
class StdRng {
 public:
  explicit StdRng(std::uint64_t seed) : engine_(seed) {}
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  bool bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }
  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }
  StdRng split() { return StdRng(engine_() ^ 0x9e3779b97f4a7c15ull); }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

 private:
  std::mt19937_64 engine_;
};

const std::uint64_t kStreamSeeds[] = {0, 1, 42, 0x5e12e1a7c0a1e5ceull,
                                      ~0ull};

TEST(Mt19937_64, StreamMatchesStdMt19937_64) {
  for (const std::uint64_t seed : kStreamSeeds) {
    Mt19937_64 engine(seed);
    std::mt19937_64 ref(seed);
    std::size_t mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) mismatches += engine() != ref();
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
  }
}

TEST(Rng, SplitChildMatchesStdMt19937_64Child) {
  for (const std::uint64_t seed : kStreamSeeds) {
    Rng rng(seed);
    StdRng ref(seed);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng.uniform(), ref.uniform());
    Rng child = rng.split();
    StdRng ref_child = ref.split();
    std::size_t mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) {
      mismatches += child.uniform() != ref_child.uniform();
    }
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
    EXPECT_EQ(rng.uniform(), ref.uniform()) << "seed " << seed;
  }
}

TEST(Rng, DistributionsMatchStdMt19937_64Reference) {
  // Interleaved so each distribution starts at every offset into the
  // engine's 312-word blocks; doubles compared by bit pattern.
  for (const std::uint64_t seed : kStreamSeeds) {
    Rng rng(seed);
    StdRng ref(seed);
    std::vector<int> deck(50), ref_deck(50);
    std::iota(deck.begin(), deck.end(), 0);
    std::iota(ref_deck.begin(), ref_deck.end(), 0);
    for (int i = 0; i < 20'000; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(rng.uniform(-3.0, 5.0)),
                std::bit_cast<std::uint64_t>(ref.uniform(-3.0, 5.0)));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(rng.normal(1.0, 2.0)),
                std::bit_cast<std::uint64_t>(ref.normal(1.0, 2.0)));
      ASSERT_EQ(rng.bernoulli(0.3), ref.bernoulli(0.3));
      ASSERT_EQ(rng.uniform_int(-7, 1000), ref.uniform_int(-7, 1000));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(rng.exponential(2.5)),
                std::bit_cast<std::uint64_t>(ref.exponential(2.5)));
      if (i % 100 == 0) {
        rng.shuffle(deck);
        ref.shuffle(ref_deck);
        ASSERT_EQ(deck, ref_deck) << "seed " << seed << " step " << i;
      }
    }
  }
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", fmt(2.5, 1)});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
  EXPECT_NE(s.find("name"), std::string::npos);
}

TEST(Table, RejectsTooManyCells) {
  Table t({"one"});
  EXPECT_THROW(t.add_row({"a", "b"}), std::invalid_argument);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(Require, MacrosThrowProperTypes) {
  EXPECT_THROW(S2C2_REQUIRE(false, "msg"), std::invalid_argument);
  EXPECT_THROW(S2C2_CHECK(false, "msg"), std::logic_error);
  EXPECT_NO_THROW(S2C2_REQUIRE(true, ""));
  EXPECT_NO_THROW(S2C2_CHECK(true, ""));
}

TEST(ParseUnsigned, AcceptsOnlyWholeDecimalsUpToTheCap) {
  EXPECT_EQ(parse_unsigned("0", "--jobs"), 0u);
  EXPECT_EQ(parse_unsigned("18446744073709551615", "--seed"),
            18446744073709551615ull);
  EXPECT_EQ(parse_unsigned("1024", "--jobs", kMaxThreadsFlag), 1024u);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "2zz", "0x10",
                          "1.5", "18446744073709551616"}) {
    EXPECT_THROW((void)parse_unsigned(bad, "--rounds"), std::invalid_argument)
        << "'" << bad << "'";
  }
  EXPECT_THROW((void)parse_unsigned("1025", "--jobs", kMaxThreadsFlag),
               std::invalid_argument);
  // "-1" must not wrap to SIZE_MAX and reach a thread pool; the error
  // names the flag and the value.
  try {
    (void)parse_unsigned("-1", "--inner-jobs", kMaxThreadsFlag);
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "--inner-jobs expects an unsigned integer <= 1024, got '-1'");
  }
}

TEST(ParseDouble, AcceptsOnlyWholeFiniteNumbers) {
  EXPECT_DOUBLE_EQ(parse_double("1e-4", "--tolerance"), 1e-4);
  for (const char* bad : {"", "0.5x", " 1", "1 ", "nan", "inf", "1e999"}) {
    EXPECT_THROW((void)parse_double(bad, "--scale"), std::invalid_argument)
        << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace s2c2::util
