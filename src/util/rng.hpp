// Deterministic pseudo-random number generation for reproducible experiments.
//
// Two generators are provided:
//  * SplitMix64  — tiny stateless-style mixer; also usable as a counter-based
//    hash RNG (hash(seed, counter)), which lets hypervector banks generate
//    their contents lazily and deterministically without storing them.
//  * Xoshiro256StarStar — fast general-purpose stream generator used wherever
//    a long sequence is consumed (noise models, synthetic data).
//
// Neither generator is cryptographic; both are fully deterministic given a
// 64-bit seed, which is what reproducibility of every table/figure requires.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>

namespace oms::util {

/// Mixes a 64-bit value into a well-distributed 64-bit hash (finalizer from
/// the SplitMix64 generator). Useful as a counter-based RNG:
/// `mix64(seed ^ mix64(counter))` yields independent streams per counter.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combines a seed with one or two stream identifiers into an independent
/// 64-bit hash. Used to derive per-object sub-seeds from a master seed.
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t seed,
                                                   std::uint64_t a,
                                                   std::uint64_t b = 0) noexcept {
  return mix64(seed ^ mix64(a ^ mix64(b)));
}

namespace detail {

/// The two hashes behind one counter_normal draw: h1 yields the radius
/// uniform u1, h2 the angle uniform u2 (Box–Muller).
struct CounterNormalHashes {
  std::uint64_t h1;
  std::uint64_t h2;
};

[[nodiscard]] constexpr CounterNormalHashes counter_normal_hashes(
    std::uint64_t seed, std::uint64_t counter) noexcept {
  const std::uint64_t h1 = mix64(seed ^ mix64(counter));
  return {h1, mix64(h1 ^ 0xd1b54a32d192ed03ULL)};
}

/// Newton square root and Taylor cosine: constexpr stand-ins for libm,
/// used only to build the bound tables below.
[[nodiscard]] constexpr double ct_sqrt(double x) noexcept {
  double r = x > 1.0 ? x : 1.0;
  for (int i = 0; i < 64; ++i) r = 0.5 * (r + x / r);
  return r;
}

[[nodiscard]] constexpr double ct_cos(double x) noexcept {  // |x| <= 2π
  double term = 1.0;
  double sum = 1.0;
  for (int n = 1; n < 40; ++n) {
    term *= -x * x / static_cast<double>((2 * n - 1) * (2 * n));
    sum += term;
  }
  return sum;
}

/// Slack for libm rounding in counter_normal (a few ulps, ~1e-15
/// relative) and for the constexpr approximations above.
inline constexpr double kBoundPad = 0x1.0p-30;

/// u1 >= 2^-(lz+1) when h1 has lz leading zeros (lz >= 53 leaves
/// h1 >> 11 == 0, so u1 = 2^-54), hence the radius sqrt(-2 ln u1) is at
/// most sqrt(2 (min(lz, 53) + 1) ln 2).
inline constexpr std::array<double, 54> kRadiusBound = [] {
  std::array<double, 54> t{};
  for (int lz = 0; lz < 54; ++lz) {
    t[lz] = ct_sqrt(2.0 * (lz + 1) * 0.6931471805599453) * (1.0 + kBoundPad);
  }
  return t;
}();

/// The top 6 bits j of h2 place u2 in [j/64, (j+1)/64). |cos 2πu| is
/// monotone between multiples of 1/4, so its maximum over that interval
/// sits at an endpoint. Capped at 1 so no bound exceeds kCounterNormalMax.
inline constexpr std::array<double, 64> kCosBound = [] {
  std::array<double, 64> t{};
  for (int j = 0; j < 64; ++j) {
    const double a = ct_cos(6.283185307179586 * j / 64.0);
    const double b = ct_cos(6.283185307179586 * (j + 1) / 64.0);
    const double m = std::max(a < 0 ? -a : a, b < 0 ? -b : b) + kBoundPad;
    t[j] = std::min(m, 1.0);
  }
  return t;
}();

}  // namespace detail

/// One standard-normal draw keyed by (seed, counter): deterministic,
/// stateless, and safe to evaluate from any thread in any order. Used
/// where simulation noise must not depend on scheduling (e.g. parallel
/// statistical RRAM scoring).
[[nodiscard]] inline double counter_normal(std::uint64_t seed,
                                           std::uint64_t counter) noexcept {
  const auto [h1, h2] = detail::counter_normal_hashes(seed, counter);
  const double u1 = (static_cast<double>(h1 >> 11) + 0.5) * 0x1.0p-53;
  const double u2 = static_cast<double>(h2 >> 11) * 0x1.0p-53;
  return __builtin_sqrt(-2.0 * __builtin_log(u1)) *
         __builtin_cos(6.283185307179586 * u2);
}

/// Bound on |counter_normal(seed, counter)| over every (seed, counter):
/// u1 >= 2^-54, so |z| <= sqrt(-2 ln 2^-54) ≈ 8.652 (padded for rounding).
/// Callers whose result cannot change under any draw that small can skip
/// the draw itself.
inline constexpr double kCounterNormalMax = detail::kRadiusBound[53];

/// Per-draw bound on |counter_normal(seed, counter)| from the hash bits
/// alone — no log, sqrt or cos: the leading zeros of h1 bound −ln u1 and
/// the top 6 bits of h2 bound |cos 2πu2|. Never above kCounterNormalMax.
[[nodiscard]] constexpr double counter_normal_bound(
    std::uint64_t seed, std::uint64_t counter) noexcept {
  const auto [h1, h2] = detail::counter_normal_hashes(seed, counter);
  const int lz = std::countl_zero(h1);
  return detail::kRadiusBound[std::min(lz, 53)] * detail::kCosBound[h2 >> 58];
}

/// SplitMix64: a 64-bit generator with a single word of state. Primarily
/// used to seed Xoshiro256StarStar and for short deterministic streams.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  [[nodiscard]] constexpr std::uint64_t next() noexcept {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256** by Blackman & Vigna: 256-bit state, period 2^256-1,
/// excellent statistical quality for simulation workloads.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  constexpr explicit Xoshiro256(std::uint64_t seed) noexcept : s_{} {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept { return next(); }

  constexpr std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] constexpr double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] constexpr double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). n must be > 0.
  [[nodiscard]] constexpr std::uint64_t below(std::uint64_t n) noexcept {
    // Lemire's multiply-shift rejection-free approximation is fine here:
    // bias is < 2^-64 * n, negligible for simulation purposes.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }

  /// Standard normal via Marsaglia polar method (exact, no table).
  [[nodiscard]] double normal() noexcept {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u = 0.0;
    double v = 0.0;
    double s = 0.0;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = sqrt_impl(-2.0 * log_impl(s) / s);
    spare_ = v * m;
    have_spare_ = true;
    return u * m;
  }

  /// Normal with given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Bernoulli draw with probability p of returning true.
  [[nodiscard]] constexpr bool bernoulli(double p) noexcept {
    return uniform() < p;
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x,
                                                    int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  // Thin indirections so <cmath> stays out of this header's constexpr parts.
  [[nodiscard]] static double sqrt_impl(double x) noexcept;
  [[nodiscard]] static double log_impl(double x) noexcept;

  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool have_spare_ = false;
};

inline double Xoshiro256::sqrt_impl(double x) noexcept {
  return __builtin_sqrt(x);
}
inline double Xoshiro256::log_impl(double x) noexcept {
  return __builtin_log(x);
}

}  // namespace oms::util
