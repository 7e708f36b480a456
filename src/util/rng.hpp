// Deterministic pseudo-random number generation for reproducible experiments.
//
// Two generators are provided:
//  * SplitMix64  — tiny stateless-style mixer; also usable as a counter-based
//    hash RNG (hash(seed, counter)), which lets hypervector banks generate
//    their contents lazily and deterministically without storing them.
//  * Xoshiro256StarStar — fast general-purpose stream generator used wherever
//    a long sequence is consumed (noise models, synthetic data).
//
// On top of the counter-based hash, counter_normal(seed, counter) is one
// keyed standard-normal draw (Box–Muller over two hashes), and
// counter_normal_bound bounds its magnitude from the hash bits alone: 54 x
// 16 radius bins (h1's leading zeros and the 4 bits after its leading one)
// times 256 angle bins (h2's top byte). The keyed in-memory encoder skips
// the log, sqrt and cos of every component whose sign the bound already
// settles — about 92% of them.
//
// Neither generator is cryptographic; both are fully deterministic given a
// 64-bit seed, which is what reproducibility of every table/figure requires.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
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

/// The standard-normal draw that hashes (h1, h2) stand for.
[[nodiscard]] inline double normal_from_hashes(std::uint64_t h1,
                                               std::uint64_t h2) noexcept {
  const double u1 = (static_cast<double>(h1 >> 11) + 0.5) * 0x1.0p-53;
  const double u2 = static_cast<double>(h2 >> 11) * 0x1.0p-53;
  return __builtin_sqrt(-2.0 * __builtin_log(u1)) *
         __builtin_cos(6.283185307179586 * u2);
}

/// Newton square root, Taylor cosine and atanh-series log1p: constexpr
/// stand-ins for libm, used only to build the bound tables below.
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

[[nodiscard]] constexpr double ct_log1p(double x) noexcept {  // 0 <= x < 1
  // ln(1 + x) = 2 atanh(y), y = x / (2 + x) <= 1/3.
  const double y = x / (2.0 + x);
  double power = y;
  double sum = 0.0;
  for (int k = 0; k < 40; ++k) {
    sum += power / static_cast<double>(2 * k + 1);
    power *= y * y;
  }
  return 2.0 * sum;
}

/// Slack for libm rounding in counter_normal (a few ulps, ~1e-15
/// relative) and for the constexpr approximations above.
inline constexpr double kBoundPad = 0x1.0p-30;

/// Bits of h1 past its leading one that refine the radius bound.
inline constexpr int kRadiusFractionBits = 4;
inline constexpr int kRadiusBins = 1 << kRadiusFractionBits;

/// Leading-zero counts whose refining bits all survive u1's `>> 11`: the
/// leading one at bit 63 - lz and the 4 bits below it reach down to bit
/// 59 - lz >= 11.
inline constexpr int kRadiusRefinedRows = 49;

/// kRadiusBound row and column of h1: its leading zeros lz (capped at
/// 53) times 16 plus the 4 bits f after its leading one.
[[nodiscard]] constexpr std::size_t radius_bin(std::uint64_t h1) noexcept {
  const int lz = std::min(std::countl_zero(h1), 53);
  return static_cast<std::size_t>(lz) * kRadiusBins +
         static_cast<std::size_t>((h1 << lz) >> (63 - kRadiusFractionBits) &
                                  (kRadiusBins - 1));
}

/// Bound on the Box–Muller radius sqrt(-2 ln u1) per radius_bin(h1). For
/// lz <= 48, h1 >= 2^(63-lz) (1 + f/16), so u1 >= 2^-(lz+1) (1 + f/16) and
/// -ln u1 <= (lz + 1) ln 2 - ln(1 + f/16). Past that the shift drops f and
/// the row keeps the leading-zeros bound u1 >= 2^-(lz+1) for every f (lz
/// >= 53 leaves h1 >> 11 == 0, so u1 = 2^-54).
inline constexpr std::array<double, 54 * kRadiusBins> kRadiusBound = [] {
  constexpr double kLn2 = 0.6931471805599453;
  std::array<double, 54 * kRadiusBins> t{};
  for (int lz = 0; lz < 54; ++lz) {
    for (int f = 0; f < kRadiusBins; ++f) {
      const double refine =
          lz < kRadiusRefinedRows
              ? ct_log1p(static_cast<double>(f) / kRadiusBins)
              : 0.0;
      t[lz * kRadiusBins + f] =
          ct_sqrt(2.0 * ((lz + 1) * kLn2 - refine)) * (1.0 + kBoundPad);
    }
  }
  return t;
}();

/// Bits of h2 that bin the angle: the top 8 bits j place u2 in
/// [j/256, (j+1)/256).
inline constexpr int kCosBinBits = 8;

[[nodiscard]] constexpr std::size_t cos_bin(std::uint64_t h2) noexcept {
  return static_cast<std::size_t>(h2 >> (64 - kCosBinBits));
}

/// Bound on |cos 2πu2| per cos_bin(h2). |cos 2πu| is monotone between
/// multiples of 1/4, so its maximum over a bin sits at an endpoint. Capped
/// at 1 so no bound exceeds kCounterNormalMax.
inline constexpr std::array<double, 1 << kCosBinBits> kCosBound = [] {
  constexpr int kBins = 1 << kCosBinBits;
  std::array<double, kBins> t{};
  for (int j = 0; j < kBins; ++j) {
    const double a = ct_cos(6.283185307179586 * j / kBins);
    const double b = ct_cos(6.283185307179586 * (j + 1) / kBins);
    const double m = std::max(a < 0 ? -a : a, b < 0 ? -b : b) + kBoundPad;
    t[j] = std::min(m, 1.0);
  }
  return t;
}();

/// Bound on |normal_from_hashes(h1, h2)| from the hash bits alone.
[[nodiscard]] constexpr double bound_from_hashes(std::uint64_t h1,
                                                 std::uint64_t h2) noexcept {
  return kRadiusBound[radius_bin(h1)] * kCosBound[cos_bin(h2)];
}

}  // namespace detail

/// One standard-normal draw keyed by (seed, counter): deterministic,
/// stateless, and safe to evaluate from any thread in any order. Used
/// where simulation noise must not depend on scheduling (e.g. parallel
/// statistical RRAM scoring).
[[nodiscard]] inline double counter_normal(std::uint64_t seed,
                                           std::uint64_t counter) noexcept {
  const auto [h1, h2] = detail::counter_normal_hashes(seed, counter);
  return detail::normal_from_hashes(h1, h2);
}

/// Bound on |counter_normal(seed, counter)| over every (seed, counter):
/// u1 >= 2^-54, so |z| <= sqrt(-2 ln 2^-54) ≈ 8.652 (padded for rounding).
/// Callers whose result cannot change under any draw that small can skip
/// the draw itself.
inline constexpr double kCounterNormalMax =
    detail::kRadiusBound[53 * detail::kRadiusBins];

/// Per-draw bound on |counter_normal(seed, counter)| from the hash bits
/// alone — no log, sqrt or cos: the leading zeros of h1 and the 4 bits
/// after its leading one bound −ln u1, the top 8 bits of h2 bound
/// |cos 2πu2|. Never above kCounterNormalMax. hd::kernels::keyed_sign_pass
/// evaluates it 8 or 16 components at a time on the SIMD tiers from the
/// same tables, so every tier settles the same components.
[[nodiscard]] constexpr double counter_normal_bound(
    std::uint64_t seed, std::uint64_t counter) noexcept {
  const auto [h1, h2] = detail::counter_normal_hashes(seed, counter);
  return detail::bound_from_hashes(h1, h2);
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
