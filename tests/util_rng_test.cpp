#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <vector>

namespace oms::util {
namespace {

TEST(Mix64, IsDeterministic) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
}

TEST(Mix64, SpreadsNearbyInputs) {
  // Consecutive inputs should differ in roughly half their bits.
  int total_diff = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    total_diff += std::popcount(mix64(i) ^ mix64(i + 1));
  }
  const double avg = total_diff / 64.0;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(HashCombine, DistinguishesStreams) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      seen.insert(hash_combine(7, a, b));
    }
  }
  EXPECT_EQ(seen.size(), 256U);
}

TEST(SplitMix64, ReproducibleStream) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, UniformMeanAndRange) {
  Xoshiro256 rng(9);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Xoshiro256, UniformRangeRespectsBounds) {
  Xoshiro256 rng(10);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 7.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 7.0);
  }
}

TEST(Xoshiro256, BelowStaysInRange) {
  Xoshiro256 rng(11);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t v = rng.below(10);
    ASSERT_LT(v, 10U);
    ++counts[v];
  }
  for (const int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(Xoshiro256, NormalMomentsMatch) {
  Xoshiro256 rng(12);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sum_sq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Xoshiro256, NormalScalesMeanAndSigma) {
  Xoshiro256 rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Xoshiro256, BernoulliRate) {
  Xoshiro256 rng(14);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(CounterNormal, DeterministicAndOrderFree) {
  const double a = counter_normal(99, 7);
  const double b = counter_normal(99, 7);
  EXPECT_EQ(a, b);
  EXPECT_NE(counter_normal(99, 7), counter_normal(99, 8));
  EXPECT_NE(counter_normal(99, 7), counter_normal(100, 7));
}

TEST(CounterNormal, MomentsMatchStandardNormal) {
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double z = counter_normal(5, static_cast<std::uint64_t>(i));
    sum += z;
    sum_sq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(CounterNormalBound, GlobalMaxCoversTheSmallestUniform) {
  // u1 >= 2^-54, so |z| <= sqrt(-2 ln 2^-54) = sqrt(108 ln 2).
  EXPECT_GE(kCounterNormalMax, std::sqrt(108.0 * std::log(2.0)));
  EXPECT_LT(kCounterNormalMax, 8.6522);
}

TEST(CounterNormalBound, BoundsEveryDraw) {
  for (std::uint64_t i = 0; i < 1000000; ++i) {
    const std::uint64_t seed = mix64(i / 1000);
    const std::uint64_t counter = i * 0x9e3779b97f4a7c15ULL;
    const double bound = counter_normal_bound(seed, counter);
    ASSERT_GE(bound, std::abs(counter_normal(seed, counter)))
        << seed << " " << counter;
    ASSERT_LE(bound, kCounterNormalMax);
  }
}

TEST(CounterNormalBound, BoundsDrawsInTheFarTail) {
  // Counters whose h1 has >= 20 leading zeros put u1 below 2^-20, the
  // deep tail the bound's radius table must still cover.
  const std::uint64_t seed = 0xC0FFEE;
  int found = 0;
  for (std::uint64_t c = 0; found < 8; ++c) {
    if (std::countl_zero(detail::counter_normal_hashes(seed, c).h1) < 20) {
      continue;
    }
    ++found;
    EXPECT_GE(counter_normal_bound(seed, c), std::abs(counter_normal(seed, c)))
        << c;
    EXPECT_LE(counter_normal_bound(seed, c), kCounterNormalMax);
  }
}

}  // namespace
}  // namespace oms::util
