#include "hd/kernels.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "util/rng.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(OMSHD_DISABLE_SIMD)
#define OMSHD_X86_SIMD 1
#include <immintrin.h>
#endif

namespace oms::hd {

std::size_t RefView::extent_index(std::size_t i) const noexcept {
  // Last extent whose base <= i; extents partition [0, count_), so a
  // valid view always has extents_[0].base == 0 and the -1 is safe.
  const auto it = std::upper_bound(
      extents_.begin(), extents_.end(), i,
      [](std::size_t g, const RefExtent& e) { return g < e.base; });
  return static_cast<std::size_t>(it - extents_.begin()) - 1;
}

const std::uint64_t* RefView::row(std::size_t i) const noexcept {
  const RefExtent& e = extents_[extent_index(i)];
  return e.words + (i - e.base) * e.stride;
}

RefView RefView::from_span(std::span<const util::BitVec> refs) {
  RefView view;
  if (refs.empty()) return view;
  const std::size_t dim = refs.front().size();
  if (dim == 0) return view;
  const std::size_t wc = (dim + 63) / 64;

  std::size_t i = 0;
  while (i < refs.size()) {
    if (refs[i].size() != dim) return {};  // mixed dims: no piecewise view
    const std::uint64_t* base = refs[i].words().data();
    std::size_t rows = 1;
    std::size_t stride = wc;
    if (i + 1 < refs.size() && refs[i + 1].size() == dim) {
      // Integer pointer math: consecutive rows need not come from one
      // array object. A second row only extends the run for a positive
      // uint64-aligned stride >= word_count; every further row is
      // verified at base + j*stride before joining.
      const auto b0 = reinterpret_cast<std::uintptr_t>(base);
      const auto b1 = reinterpret_cast<std::uintptr_t>(refs[i + 1].words().data());
      if (b1 > b0 && (b1 - b0) % sizeof(std::uint64_t) == 0 &&
          (b1 - b0) / sizeof(std::uint64_t) >= wc) {
        stride = (b1 - b0) / sizeof(std::uint64_t);
        while (i + rows < refs.size() && refs[i + rows].size() == dim &&
               refs[i + rows].words().data() == base + rows * stride) {
          ++rows;
        }
      }
    }
    view.extents_.push_back(RefExtent{base, stride, rows, i});
    i += rows;
  }
  view.count_ = refs.size();
  view.dim_ = dim;
  return view;
}

namespace kernels {

namespace {

std::size_t xor_popcount_scalar(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t n) noexcept {
  return util::xor_popcount(a, b, n);
}

// --- Multi-query Hamming sweep -------------------------------------------
//
// Every tier scores a group of NQ <= kSweepGroup queries per reference
// load. The SIMD tiers hold an NQ x NR tile of popcount accumulators in
// registers — NR rows of the extent at once — so each vector of a row is
// loaded once for NQ queries and each query vector once for NR rows; rows
// past the last full tile go through the NQ x 1 tile. Each SIMD tier's
// entry point switches on the group size once per call, so the tiles are
// fully unrolled for NQ = 1..4.

/// The scalar tier scores the group row by row: each row (a few KiB at
/// most) stays L1-resident while every query of the group reads it.
/// `pair` is the scalar pair kernel: the portable loop, or its POPCNT build.
void hamming_sweep_scalar(const std::uint64_t* const* queries, std::size_t n,
                          const RefExtent& ext, std::size_t wc,
                          std::size_t first, std::size_t last,
                          std::uint32_t* out, std::size_t out_stride,
                          std::size_t (*pair)(const std::uint64_t*,
                                              const std::uint64_t*,
                                              std::size_t) noexcept =
                              xor_popcount_scalar) noexcept {
  for (std::size_t i = first; i < last; ++i) {
    const std::uint64_t* row = ext.words + i * ext.stride;
    for (std::size_t g = 0; g < n; ++g) {
      out[g * out_stride + (i - first)] =
          static_cast<std::uint32_t>(pair(queries[g], row, wc));
    }
  }
}

// --- ID-Level encoder ----------------------------------------------------
//
// Every tier walks the hypervector one 64-component column block (one
// output word) at a time and keeps that block's partial sums in registers
// (the scalar tier: in small L1-resident arrays) while each peak's packed
// ID segment — 4 words, 32 bytes — streams through and expands to int8
// components: int8 lanes within a run of peaks, int16 lanes across runs,
// int32 only past int16 capacity.

/// Peak counts whose ±ID components sum exactly at a lane width: a run of
/// `int8_run` peaks fits int8 lanes, `int16_peaks` peaks fit int16 lanes.
struct RunLimits {
  std::size_t int8_run;
  std::size_t int16_peaks;
};

RunLimits run_limits(IdPrecision precision) noexcept {
  const auto m = static_cast<std::size_t>(max_magnitude(precision));
  return {127 / m, 32767 / m};
}

/// Packed ID words per 64-component column block.
constexpr std::size_t kBlockIdWords = 64 / 16;

/// Column blocks ahead that the encode loops prefetch each peak's ID row
/// (256 bytes, four cache lines): the packed rows (4 KiB each at D = 8192)
/// lie scattered across the bank, more streams than the hardware
/// prefetcher follows at once.
constexpr std::size_t kPrefetchBlocks = 8;

/// Odd components of a block. Sign()'s tie-break sets them on a zero sum;
/// blocks start at multiples of 64, so block-local parity is global parity.
constexpr std::uint64_t kOddComponents = 0xAAAAAAAAAAAAAAAAULL;

/// Finishes one block from its 64 exact int32 sums.
void finish_block(const std::int32_t* sums, std::uint64_t* bits,
                  std::int32_t* acc) noexcept {
  if (bits != nullptr) {
    std::uint64_t positive = 0;
    std::uint64_t tie = 0;
    for (int j = 0; j < 64; ++j) {
      positive |= static_cast<std::uint64_t>(sums[j] > 0) << j;
      tie |= static_cast<std::uint64_t>(sums[j] == 0) << j;
    }
    *bits = positive | (tie & kOddComponents);
  }
  if (acc != nullptr) {
    for (int j = 0; j < 64; ++j) acc[j] += sums[j];
  }
}

/// Negate masks of eight components 8k..8k+7 from their eight LV sign bits
/// b, split by parity: even[j] is 0xFF iff bit 2j of b is clear (component
/// 8k+2j is -1), odd[j] iff bit 2j+1 is.
struct NegateMasks {
  std::array<std::uint8_t, 4> even;
  std::array<std::uint8_t, 4> odd;
};

constexpr std::array<NegateMasks, 256> make_negate_masks() noexcept {
  std::array<NegateMasks, 256> masks{};
  for (std::size_t b = 0; b < 256; ++b) {
    for (std::size_t j = 0; j < 4; ++j) {
      masks[b].even[j] = ((b >> (2 * j)) & 1U) == 0 ? 0xFF : 0;
      masks[b].odd[j] = ((b >> (2 * j + 1)) & 1U) == 0 ? 0xFF : 0;
    }
  }
  return masks;
}

constexpr std::array<NegateMasks, 256> kNegateMasks = make_negate_masks();

/// Adds the signed ID components of one parity class — nibbles `nib`,
/// negate masks `neg` — into `low`. nibble_values() in closed form, so the
/// loop vectorizes: magnitude (n & mag_bits) + 1, the product negative
/// where exactly one of the ID sign (bit 0 clear) and the LV sign (neg
/// all-ones) is; (m ^ f) - f negates m exactly where f is all-ones.
void add_signed_scalar(const std::uint8_t* nib, const std::uint8_t* neg,
                       std::uint8_t mag_bits, std::int8_t* low) noexcept {
  for (int b = 0; b < 32; ++b) {
    const auto flip = static_cast<std::int8_t>(
        neg[b] ^ static_cast<std::uint8_t>((nib[b] & 1) - 1));
    const int mag = (nib[b] & mag_bits) + 1;
    low[b] = static_cast<std::int8_t>(low[b] + ((mag ^ flip) - flip));
  }
}

// The scalar tier splits a block's 32 packed bytes into even components
// (low nibbles: byte b is component 2b) and odd ones (high nibbles), sums
// each class in its own int8 array, and interleaves them into component
// order once per run.
void encode_scalar(const EncodeOperands& ops, std::uint64_t* bits,
                   std::int32_t* acc) noexcept {
  const std::size_t n = ops.ids.size();
  const RunLimits lim = run_limits(ops.precision);
  const auto mag_bits =
      static_cast<std::uint8_t>(max_magnitude(ops.precision) - 1);
  const std::size_t words = ops.dim / 64;
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t col = w * 64;
    std::int32_t sums[64] = {};
    std::int16_t mid[64] = {};
    std::size_t in_mid = 0;
    for (std::size_t p = 0; p < n;) {
      const std::size_t run = std::min(n - p, lim.int8_run);
      if (in_mid + run > lim.int16_peaks) {
        for (int j = 0; j < 64; ++j) sums[j] += mid[j];
        std::fill_n(mid, 64, std::int16_t{0});
        in_mid = 0;
      }
      std::int8_t low_even[32] = {};
      std::int8_t low_odd[32] = {};
      for (const std::size_t end = p + run; p < end; ++p) {
        const std::uint64_t* packed = ops.ids[p] + kBlockIdWords * w;
        const std::uint64_t sign = ops.signs[p][w];
        if (w + kPrefetchBlocks < words) {
          __builtin_prefetch(packed + kBlockIdWords * kPrefetchBlocks);
        }
        // Byte b of the block (bits 8(b%8).. of word b/8); a plain copy on
        // little-endian hosts, which keeps the loops below vectorized.
        std::uint8_t bytes[32];
        if constexpr (std::endian::native == std::endian::little) {
          std::memcpy(bytes, packed, sizeof(bytes));
        } else {
          for (std::size_t b = 0; b < 32; ++b) {
            bytes[b] = static_cast<std::uint8_t>(packed[b / 8] >> (8 * (b % 8)));
          }
        }
        std::uint8_t even[32];
        std::uint8_t odd[32];
        for (int b = 0; b < 32; ++b) {
          even[b] = bytes[b] & 15;
          odd[b] = bytes[b] >> 4;
        }
        std::uint8_t neg_even[32];
        std::uint8_t neg_odd[32];
        for (int k = 0; k < 8; ++k) {
          const NegateMasks& m = kNegateMasks[(sign >> (8 * k)) & 0xFF];
          std::memcpy(neg_even + 4 * k, m.even.data(), 4);
          std::memcpy(neg_odd + 4 * k, m.odd.data(), 4);
        }
        add_signed_scalar(even, neg_even, mag_bits, low_even);
        add_signed_scalar(odd, neg_odd, mag_bits, low_odd);
      }
      for (int b = 0; b < 32; ++b) {
        mid[2 * b] = static_cast<std::int16_t>(mid[2 * b] + low_even[b]);
        mid[2 * b + 1] = static_cast<std::int16_t>(mid[2 * b + 1] + low_odd[b]);
      }
      in_mid += run;
    }
    for (int j = 0; j < 64; ++j) sums[j] += mid[j];
    finish_block(sums, bits != nullptr ? bits + w : nullptr,
                 acc != nullptr ? acc + col : nullptr);
  }
}

// --- Keyed-noise sign pass -----------------------------------------------
//
// Component d of the in-memory encoder's output is acc[d] + sigma * z_d > 0
// with z_d = util::counter_normal(key, d). The pass writes acc[d] > 0 for
// every component and lists those whose |acc[d]| the noise bound
// util::counter_normal_bound(key, d) cannot settle. Identity across tiers
// rests on evaluating the same doubles in the same order: the bound is
// kRadiusBound[radius_bin(h1)] * kCosBound[cos_bin(h2)], then sigma times
// that, compared (<=) with |acc[d]| converted exactly from int32.

/// The oracle: the per-component loop the SIMD tiers must reproduce.
std::size_t keyed_sign_pass_scalar(const std::int32_t* acc, std::size_t dim,
                                   double sigma, std::uint64_t key,
                                   std::uint64_t* bits,
                                   std::uint32_t* undecided) noexcept {
  std::fill_n(bits, dim / 64, std::uint64_t{0});
  std::size_t n = 0;
  for (std::size_t d = 0; d < dim; ++d) {
    const double a = static_cast<double>(acc[d]);
    bits[d >> 6] |= static_cast<std::uint64_t>(a > 0.0) << (d & 63);
    undecided[n] = static_cast<std::uint32_t>(d);
    n += std::abs(a) <= sigma * util::counter_normal_bound(key, d);
  }
  return n;
}

#ifdef OMSHD_X86_SIMD

// The portable loop compiled for the POPCNT instruction: util::xor_popcount
// inlines here, so std::popcount becomes one instruction. Baseline x86-64
// code cannot assume it, and there std::popcount is a bit-twiddling
// sequence; the scalar tier takes this build when CPUID reports popcnt.
__attribute__((target("popcnt"))) std::size_t xor_popcount_popcnt(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) noexcept {
  return util::xor_popcount(a, b, n);
}

bool has_popcnt() noexcept {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("popcnt") != 0;
  }();
  return supported;
}

// AVX2 popcount via the nibble-LUT (vpshufb) method: per 256-bit vector,
// split bytes into nibbles, look up per-nibble popcounts, and fold the byte
// sums into four 64-bit lanes with vpsadbw every iteration (so byte
// counters can never saturate).
__attribute__((target("avx2"))) std::size_t xor_popcount_avx2(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) noexcept {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i x = _mm256_xor_si256(va, vb);
    const __m256i lo = _mm256_and_si256(x, low_mask);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(x, 4), low_mask);
    const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                        _mm256_shuffle_epi8(lut, hi));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, zero));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::size_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) total += std::popcount(a[i] ^ b[i]);
  return total;
}

/// One NQ x NR tile of the AVX2 sweep: out[g * out_stride + r] = distance
/// of queries[g] to the row at rows + r * stride. Byte counts fold into
/// 64-bit lanes (vpsadbw) every vector, as in xor_popcount_avx2; the
/// sub-vector word tail goes through std::popcount.
template <std::size_t NQ, std::size_t NR>
__attribute__((target("avx2"), always_inline)) inline void sweep_tile_avx2(
    const std::uint64_t* const* queries, const std::uint64_t* rows,
    std::size_t stride, std::size_t wc, std::uint32_t* out,
    std::size_t out_stride) noexcept {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc[NQ][NR];
#pragma GCC unroll 4
  for (std::size_t g = 0; g < NQ; ++g) {
#pragma GCC unroll 2
    for (std::size_t r = 0; r < NR; ++r) acc[g][r] = zero;
  }
  std::size_t w = 0;
  for (; w + 4 <= wc; w += 4) {
    __m256i row[NR];
#pragma GCC unroll 2
    for (std::size_t r = 0; r < NR; ++r) {
      row[r] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(rows + r * stride + w));
    }
#pragma GCC unroll 4
    for (std::size_t g = 0; g < NQ; ++g) {
      const __m256i q =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(queries[g] + w));
#pragma GCC unroll 2
      for (std::size_t r = 0; r < NR; ++r) {
        const __m256i x = _mm256_xor_si256(q, row[r]);
        const __m256i lo = _mm256_and_si256(x, low_mask);
        const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(x, 4), low_mask);
        const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                            _mm256_shuffle_epi8(lut, hi));
        acc[g][r] = _mm256_add_epi64(acc[g][r], _mm256_sad_epu8(cnt, zero));
      }
    }
  }
#pragma GCC unroll 4
  for (std::size_t g = 0; g < NQ; ++g) {
#pragma GCC unroll 2
    for (std::size_t r = 0; r < NR; ++r) {
      alignas(32) std::uint64_t lanes[4];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc[g][r]);
      std::uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
      for (std::size_t t = w; t < wc; ++t) {
        total += static_cast<std::uint64_t>(
            std::popcount(queries[g][t] ^ rows[r * stride + t]));
      }
      out[g * out_stride + r] = static_cast<std::uint32_t>(total);
    }
  }
}

template <std::size_t NQ>
__attribute__((target("avx2"), always_inline)) inline void sweep_group_avx2(
    const std::uint64_t* const* queries, const RefExtent& ext, std::size_t wc,
    std::size_t first, std::size_t last, std::uint32_t* out,
    std::size_t out_stride) noexcept {
  constexpr std::size_t kRows = 2;
  std::size_t i = first;
  for (; i + kRows <= last; i += kRows) {
    sweep_tile_avx2<NQ, kRows>(queries, ext.words + i * ext.stride,
                               ext.stride, wc, out + (i - first), out_stride);
  }
  for (; i < last; ++i) {
    sweep_tile_avx2<NQ, 1>(queries, ext.words + i * ext.stride, ext.stride,
                           wc, out + (i - first), out_stride);
  }
}

__attribute__((target("avx2"))) void hamming_sweep_avx2(
    const std::uint64_t* const* queries, std::size_t n, const RefExtent& ext,
    std::size_t wc, std::size_t first, std::size_t last, std::uint32_t* out,
    std::size_t out_stride) noexcept {
  switch (n) {
    case 1:
      return sweep_group_avx2<1>(queries, ext, wc, first, last, out,
                                 out_stride);
    case 2:
      return sweep_group_avx2<2>(queries, ext, wc, first, last, out,
                                 out_stride);
    case 3:
      return sweep_group_avx2<3>(queries, ext, wc, first, last, out,
                                 out_stride);
    default:
      return sweep_group_avx2<4>(queries, ext, wc, first, last, out,
                                 out_stride);
  }
}

__attribute__((target("avx512f,avx512vpopcntdq"))) std::size_t
xor_popcount_avx512(const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t n) noexcept {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_xor_si512(va, vb)));
  }
  // Manual lane sum: _mm512_reduce_add_epi64 trips a GCC 12
  // -Wmaybe-uninitialized false positive via _mm256_undefined_si256.
  alignas(64) std::uint64_t lanes[8];
  _mm512_store_si512(lanes, acc);
  std::size_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] +
                      lanes[5] + lanes[6] + lanes[7];
  for (; i < n; ++i) total += std::popcount(a[i] ^ b[i]);
  return total;
}

/// Lower / upper 256 bits of v. The all-ones maskz forms sidestep the
/// GCC 12 -Wmaybe-uninitialized false positive of the unmasked intrinsics
/// (the cast included).
__attribute__((target("avx512f"), always_inline)) inline __m256i lower_half(
    __m512i v) noexcept {
  return _mm512_maskz_extracti64x4_epi64(0xFF, v, 0);
}

__attribute__((target("avx512f"), always_inline)) inline __m256i upper_half(
    __m512i v) noexcept {
  return _mm512_maskz_extracti64x4_epi64(0xFF, v, 1);
}

/// The lane sums of a, b, c and d as four uint32 (a distance is at most
/// 64 x word_count): a transposing reduction, cheaper than four separate
/// horizontal sums. All-ones maskz forms for the same GCC 12 reason as
/// lower_half.
__attribute__((target("avx512f"), always_inline)) inline __m128i
lane_sums4_avx512(__m512i a, __m512i b, __m512i c, __m512i d) noexcept {
  // Per 128-bit lane k: ab = (a_k, b_k), cd = (c_k, d_k) pair sums.
  const __m512i ab = _mm512_add_epi64(_mm512_maskz_unpacklo_epi64(0xFF, a, b),
                                      _mm512_maskz_unpackhi_epi64(0xFF, a, b));
  const __m512i cd = _mm512_add_epi64(_mm512_maskz_unpacklo_epi64(0xFF, c, d),
                                      _mm512_maskz_unpackhi_epi64(0xFF, c, d));
  // (a, b, a, b, c, d, c, d) over lane pairs {0, 2} + {1, 3}.
  const __m512i s = _mm512_add_epi64(
      _mm512_maskz_shuffle_i64x2(0xFF, ab, cd, _MM_SHUFFLE(2, 0, 2, 0)),
      _mm512_maskz_shuffle_i64x2(0xFF, ab, cd, _MM_SHUFFLE(3, 1, 3, 1)));
  const __m512i t =
      _mm512_maskz_shuffle_i64x2(0xFF, s, s, _MM_SHUFFLE(3, 1, 2, 0));
  const __m256i sums = _mm256_add_epi64(lower_half(t), upper_half(t));
  // The low 32 bits of each 64-bit sum.
  return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
      sums, _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6)));
}

/// Eight words at p, or only the `tail` words of them when kTail.
template <bool kTail>
__attribute__((target("avx512f"), always_inline)) inline __m512i load_words(
    const std::uint64_t* p, __mmask8 tail) noexcept {
  if constexpr (kTail) {
    return _mm512_maskz_loadu_epi64(tail, p);
  } else {
    return _mm512_loadu_si512(p);
  }
}

/// Accumulates one 8-word block (masked to the word tail when kTail) of
/// the NQ x NR tile.
template <std::size_t NQ, std::size_t NR, bool kTail>
__attribute__((target("avx512f,avx512vpopcntdq"), always_inline)) inline void
sweep_block_avx512(__m512i (&acc)[NQ][NR], const std::uint64_t* const* queries,
                   const std::uint64_t* rows, std::size_t stride,
                   std::size_t w, __mmask8 tail) noexcept {
  __m512i row[NR];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < NR; ++r) {
    row[r] = load_words<kTail>(rows + r * stride + w, tail);
  }
#pragma GCC unroll 4
  for (std::size_t g = 0; g < NQ; ++g) {
    const __m512i q = load_words<kTail>(queries[g] + w, tail);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < NR; ++r) {
      acc[g][r] = _mm512_add_epi64(
          acc[g][r], _mm512_popcnt_epi64(_mm512_xor_si512(q, row[r])));
    }
  }
}

/// One NQ x NR tile of the AVX-512 sweep (NR is 4 or 1): out[g * out_stride
/// + r] = distance of queries[g] to the row at rows + r * stride.
template <std::size_t NQ, std::size_t NR>
__attribute__((target("avx512f,avx512vpopcntdq"),
               always_inline)) inline void
sweep_tile_avx512(const std::uint64_t* const* queries,
                  const std::uint64_t* rows, std::size_t stride,
                  std::size_t wc, std::uint32_t* out,
                  std::size_t out_stride) noexcept {
  __m512i acc[NQ][NR];
#pragma GCC unroll 4
  for (std::size_t g = 0; g < NQ; ++g) {
#pragma GCC unroll 4
    for (std::size_t r = 0; r < NR; ++r) acc[g][r] = _mm512_setzero_si512();
  }
  std::size_t w = 0;
  for (; w + 8 <= wc; w += 8) {
    sweep_block_avx512<NQ, NR, false>(acc, queries, rows, stride, w, 0);
  }
  if (w < wc) {
    const auto tail = static_cast<__mmask8>((1U << (wc - w)) - 1);
    sweep_block_avx512<NQ, NR, true>(acc, queries, rows, stride, w, tail);
  }
#pragma GCC unroll 4
  for (std::size_t g = 0; g < NQ; ++g) {
    if constexpr (NR == 4) {
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(out + g * out_stride),
          lane_sums4_avx512(acc[g][0], acc[g][1], acc[g][2], acc[g][3]));
    } else {
      // Manual lane sum: _mm512_reduce_add_epi64 trips a GCC 12
      // -Wmaybe-uninitialized false positive via _mm256_undefined_si256.
      alignas(64) std::uint64_t lanes[8];
      _mm512_store_si512(lanes, acc[g][0]);
      out[g * out_stride] = static_cast<std::uint32_t>(
          lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] + lanes[5] +
          lanes[6] + lanes[7]);
    }
  }
}

template <std::size_t NQ>
__attribute__((target("avx512f,avx512vpopcntdq"),
               always_inline)) inline void
sweep_group_avx512(const std::uint64_t* const* queries, const RefExtent& ext,
                   std::size_t wc, std::size_t first, std::size_t last,
                   std::uint32_t* out, std::size_t out_stride) noexcept {
  constexpr std::size_t kRows = 4;
  std::size_t i = first;
  for (; i + kRows <= last; i += kRows) {
    sweep_tile_avx512<NQ, kRows>(queries, ext.words + i * ext.stride,
                                 ext.stride, wc, out + (i - first),
                                 out_stride);
  }
  for (; i < last; ++i) {
    sweep_tile_avx512<NQ, 1>(queries, ext.words + i * ext.stride, ext.stride,
                             wc, out + (i - first), out_stride);
  }
}

__attribute__((target("avx512f,avx512vpopcntdq"))) void
hamming_sweep_avx512(const std::uint64_t* const* queries, std::size_t n,
                     const RefExtent& ext, std::size_t wc, std::size_t first,
                     std::size_t last, std::uint32_t* out,
                     std::size_t out_stride) noexcept {
  switch (n) {
    case 1:
      return sweep_group_avx512<1>(queries, ext, wc, first, last, out,
                                   out_stride);
    case 2:
      return sweep_group_avx512<2>(queries, ext, wc, first, last, out,
                                   out_stride);
    case 3:
      return sweep_group_avx512<3>(queries, ext, wc, first, last, out,
                                   out_stride);
    default:
      return sweep_group_avx512<4>(queries, ext, wc, first, last, out,
                                   out_stride);
  }
}

/// The 16-entry nibble table, repeated once per 128-bit lane for vpshufb;
/// `negated` stores -value (= the value of the nibble with bit 0 flipped).
struct NibbleTable {
  alignas(64) std::array<std::int8_t, 64> bytes;
};

NibbleTable nibble_table(IdPrecision precision, bool negated) noexcept {
  const std::array<std::int8_t, 16> lut = nibble_values(precision);
  NibbleTable t{};
  for (std::size_t i = 0; i < t.bytes.size(); ++i) {
    t.bytes[i] = lut[(i % 16) ^ (negated ? 1 : 0)];
  }
  return t;
}

// AVX2 encode: a block's 32 packed bytes load as one vector and split into
// an even-component vector (low nibbles: byte b is component 2b) and an
// odd-component one (high nibbles: component 2b+1). The LV sign folds into
// the table index: flipping a nibble's sign bit (bit 0) negates its value,
// so one vpshufb through the negated table yields the signed product. The
// sums keep this even/odd order through the peak loop and return to
// component order once per block.

/// Per byte b: 1 iff LV component 2b (even) / 2b+1 (odd) is +1. Sign byte
/// b/4 holds both, at bits 2(b%4) and 2(b%4)+1.
struct LvFlips {
  __m256i even;
  __m256i odd;
};

__attribute__((target("avx2"), always_inline)) inline LvFlips lv_flips_avx2(
    const std::uint64_t* sign) noexcept {
  const __m256i spread = _mm256_setr_epi8(
      0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3,  //
      4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7);
  const __m256i bytes = _mm256_shuffle_epi8(
      _mm256_set1_epi64x(static_cast<long long>(*sign)), spread);
  const __m256i one = _mm256_set1_epi8(1);
  return {_mm256_min_epu8(
              _mm256_and_si256(bytes, _mm256_set1_epi32(0x40100401)), one),
          _mm256_min_epu8(
              _mm256_and_si256(bytes, _mm256_set1_epi32(
                                          static_cast<int>(0x80200802U))),
              one)};
}

/// Component-order int16 vectors (components 16k..16k+15 in out[k]) from
/// the even/odd sums mid = {even 0-30, even 32-62, odd 1-31, odd 33-63}.
__attribute__((target("avx2"), always_inline)) inline void
component_order_avx2(const __m256i* mid, __m256i* out) noexcept {
  for (int h = 0; h < 2; ++h) {
    // Per 128-bit lane: components 32h + {0..7 | 16..23} and {8..15 | 24..31}.
    const __m256i lo = _mm256_unpacklo_epi16(mid[h], mid[2 + h]);
    const __m256i hi = _mm256_unpackhi_epi16(mid[h], mid[2 + h]);
    out[2 * h] = _mm256_permute2x128_si256(lo, hi, 0x20);
    out[2 * h + 1] = _mm256_permute2x128_si256(lo, hi, 0x31);
  }
}

/// Sign() bits of 32 int16 sums held as two vectors in component order.
__attribute__((target("avx2"), always_inline)) inline std::uint32_t
sign_bits_avx2(__m256i lo, __m256i hi) noexcept {
  // Saturating packs keep sign and zero-ness; the permute undoes the
  // per-128-bit-lane interleave of packs.
  const __m256i packed =
      _mm256_permute4x64_epi64(_mm256_packs_epi16(lo, hi), 0xD8);
  const __m256i zero = _mm256_setzero_si256();
  const auto positive = static_cast<std::uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpgt_epi8(packed, zero)));
  const auto tie = static_cast<std::uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(packed, zero)));
  return positive | (tie & static_cast<std::uint32_t>(kOddComponents));
}

/// sums[0..16) += the 16 int16 lanes of v.
__attribute__((target("avx2"), always_inline)) inline void spill_avx2(
    __m256i v, std::int32_t* sums) noexcept {
  auto* out = reinterpret_cast<__m256i*>(sums);
  const __m256i lo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(v));
  const __m256i hi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(v, 1));
  _mm256_storeu_si256(out, _mm256_add_epi32(_mm256_loadu_si256(out), lo));
  _mm256_storeu_si256(out + 1,
                      _mm256_add_epi32(_mm256_loadu_si256(out + 1), hi));
}

__attribute__((target("avx2"))) void encode_avx2(const EncodeOperands& ops,
                                                 std::uint64_t* bits,
                                                 std::int32_t* acc) noexcept {
  const std::size_t n = ops.ids.size();
  const RunLimits lim = run_limits(ops.precision);
  const NibbleTable nt = nibble_table(ops.precision, /*negated=*/true);
  const __m256i table =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(nt.bytes.data()));
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  const __m256i zero = _mm256_setzero_si256();
  const std::size_t words = ops.dim / 64;
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t col = w * 64;
    __m256i mid[4] = {};  // int16 even/odd sums, 16 components each
    __m256i ordered[4];
    std::int32_t sums[64] = {};
    bool spilled = false;
    std::size_t in_mid = 0;
    for (std::size_t p = 0; p < n;) {
      const std::size_t run = std::min(n - p, lim.int8_run);
      if (in_mid + run > lim.int16_peaks) {
        component_order_avx2(mid, ordered);
        for (int k = 0; k < 4; ++k) {
          spill_avx2(ordered[k], sums + 16 * k);
          mid[k] = zero;
        }
        spilled = true;
        in_mid = 0;
      }
      __m256i even = zero;
      __m256i odd = zero;
      for (const std::size_t end = p + run; p < end; ++p) {
        const std::uint64_t* packed = ops.ids[p] + kBlockIdWords * w;
        if (w + kPrefetchBlocks < words) {
          __builtin_prefetch(packed + kBlockIdWords * kPrefetchBlocks);
        }
        const __m256i x =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(packed));
        const LvFlips flips = lv_flips_avx2(ops.signs[p] + w);
        const __m256i lo = _mm256_and_si256(x, nibble);
        const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(x, 4), nibble);
        even = _mm256_add_epi8(
            even, _mm256_shuffle_epi8(table, _mm256_xor_si256(lo, flips.even)));
        odd = _mm256_add_epi8(
            odd, _mm256_shuffle_epi8(table, _mm256_xor_si256(hi, flips.odd)));
      }
      const __m256i low[2] = {even, odd};
      for (int h = 0; h < 2; ++h) {
        mid[2 * h] = _mm256_add_epi16(
            mid[2 * h], _mm256_cvtepi8_epi16(_mm256_castsi256_si128(low[h])));
        mid[2 * h + 1] = _mm256_add_epi16(
            mid[2 * h + 1],
            _mm256_cvtepi8_epi16(_mm256_extracti128_si256(low[h], 1)));
      }
      in_mid += run;
    }
    component_order_avx2(mid, ordered);
    if (!spilled && acc == nullptr) {
      bits[w] = sign_bits_avx2(ordered[0], ordered[1]) |
                static_cast<std::uint64_t>(
                    sign_bits_avx2(ordered[2], ordered[3]))
                    << 32;
      continue;
    }
    for (int k = 0; k < 4; ++k) spill_avx2(ordered[k], sums + 16 * k);
    finish_block(sums, bits != nullptr ? bits + w : nullptr,
                 acc != nullptr ? acc + col : nullptr);
  }
}

// AVX2 sign pass: 8 components per step, hashed as two 4-lane halves.
// AVX2 has no 64-bit lane multiply, so mullo64_avx2 builds one from three
// vpmuludq partial products; nor a leading-zero count, so radius_bin is
// read off the double of h1 >> 11 (< 2^53, converted exactly by the
// magic-number split): its exponent gives the leading zeros and its top 4
// mantissa bits are the 4 bits after the leading one wherever the table
// uses them (lz <= 48). Undecided lanes compact through a vpermd table
// and store as a full 8-lane vector at the list's end, as on AVX-512.

/// a * b mod 2^64 per 64-bit lane.
__attribute__((target("avx2"), always_inline)) inline __m256i mullo64_avx2(
    __m256i a, __m256i b) noexcept {
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                       _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(_mm256_mul_epu32(a, b),
                          _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"), always_inline)) inline __m256i xorshift_avx2(
    __m256i x, int shift) noexcept {
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, shift));
}

__attribute__((target("avx2"), always_inline)) inline __m256i
broadcast_u64_avx2(std::uint64_t v) noexcept {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

/// util::mix64 per lane.
__attribute__((target("avx2"), always_inline)) inline __m256i mix64_avx2(
    __m256i x) noexcept {
  x = _mm256_add_epi64(x, broadcast_u64_avx2(0x9e3779b97f4a7c15ULL));
  x = mullo64_avx2(xorshift_avx2(x, 30),
                   broadcast_u64_avx2(0xbf58476d1ce4e5b9ULL));
  x = mullo64_avx2(xorshift_avx2(x, 27),
                   broadcast_u64_avx2(0x94d049bb133111ebULL));
  return xorshift_avx2(x, 31);
}

/// util::detail::radius_bin per lane.
__attribute__((target("avx2"), always_inline)) inline __m256i
radius_bin_avx2(__m256i h1) noexcept {
  // x = h1 >> 11 as hi * 2^32 + lo: OR each half into the mantissa of
  // 2^84 / 2^52 and subtract those back out; the sum is exact.
  const __m256i x = _mm256_srli_epi64(h1, 11);
  const __m256d two84 = _mm256_castsi256_pd(
      _mm256_set1_epi64x(0x4530000000000000LL));
  const __m256d two52 = _mm256_castsi256_pd(
      _mm256_set1_epi64x(0x4330000000000000LL));
  const __m256d hi = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(x, 32),
                                          _mm256_castpd_si256(two84))),
      two84);
  const __m256d lo = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_blend_epi32(x, _mm256_castpd_si256(two52), 0xAA)),
      two52);
  const __m256i bits = _mm256_castpd_si256(_mm256_add_pd(hi, lo));
  // Exponent field f: x >= 1 has its leading one at bit f - 1023, so h1
  // has lz = 1075 - f leading zeros; x == 0 (f == 0) caps at 53 too. The
  // values fit the low dword, so a 32-bit min serves.
  const __m256i lz = _mm256_min_epi32(
      _mm256_sub_epi64(_mm256_set1_epi64x(1075), _mm256_srli_epi64(bits, 52)),
      _mm256_set1_epi64x(53));
  const __m256i frac = _mm256_and_si256(
      _mm256_srli_epi64(bits, 52 - util::detail::kRadiusFractionBits),
      _mm256_set1_epi64x(util::detail::kRadiusBins - 1));
  return _mm256_or_si256(
      _mm256_slli_epi64(lz, util::detail::kRadiusFractionBits), frac);
}

/// Bitmask of the 4 lanes of counters `d` (int32 sums `acc4`) whose sign
/// the bound cannot settle.
__attribute__((target("avx2"), always_inline)) inline int undecided4_avx2(
    __m256i d, __m128i acc4, __m256i key, __m256d sigma) noexcept {
  const __m256i h1 = mix64_avx2(_mm256_xor_si256(key, mix64_avx2(d)));
  const __m256i h2 = mix64_avx2(
      _mm256_xor_si256(h1, broadcast_u64_avx2(0xd1b54a32d192ed03ULL)));
  const __m256d radius = _mm256_i64gather_pd(
      util::detail::kRadiusBound.data(), radius_bin_avx2(h1), 8);
  const __m256d cosine = _mm256_i64gather_pd(
      util::detail::kCosBound.data(),
      _mm256_srli_epi64(h2, 64 - util::detail::kCosBinBits), 8);
  const __m256d threshold =
      _mm256_mul_pd(sigma, _mm256_mul_pd(radius, cosine));
  const __m256d a = _mm256_andnot_pd(_mm256_set1_pd(-0.0),
                                     _mm256_cvtepi32_pd(acc4));
  return _mm256_movemask_pd(_mm256_cmp_pd(a, threshold, _CMP_LE_OQ));
}

/// Entry m lists the set bits of m ascending, one byte each: the vpermd
/// indices that move mask m's lanes to the front.
constexpr std::array<std::uint64_t, 256> kCompact8 = [] {
  std::array<std::uint64_t, 256> t{};
  for (unsigned m = 0; m < 256; ++m) {
    unsigned k = 0;
    for (unsigned lane = 0; lane < 8; ++lane) {
      if ((m >> lane) & 1U) t[m] |= std::uint64_t{lane} << (8 * k++);
    }
  }
  return t;
}();

__attribute__((target("avx2"))) std::size_t keyed_sign_pass_avx2(
    const std::int32_t* acc, std::size_t dim, double sigma, std::uint64_t key,
    std::uint64_t* bits, std::uint32_t* undecided) noexcept {
  const __m256i keys = broadcast_u64_avx2(key);
  const __m256d sigmas = _mm256_set1_pd(sigma);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i lanes8 = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i step4 = _mm256_set1_epi64x(4);
  __m256i counters = _mm256_setr_epi64x(0, 1, 2, 3);
  std::size_t n = 0;
  for (std::size_t w = 0; w < dim / 64; ++w) {
    std::uint64_t word = 0;
    for (std::size_t k = 0; k < 8; ++k) {
      const std::size_t d0 = 64 * w + 8 * k;
      const __m256i a8 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + d0));
      word |= static_cast<std::uint64_t>(static_cast<unsigned>(
                  _mm256_movemask_ps(
                      _mm256_castsi256_ps(_mm256_cmpgt_epi32(a8, zero)))))
              << (8 * k);
      const int lo = undecided4_avx2(counters, _mm256_castsi256_si128(a8),
                                     keys, sigmas);
      counters = _mm256_add_epi64(counters, step4);
      const int hi = undecided4_avx2(
          counters, _mm256_extracti128_si256(a8, 1), keys, sigmas);
      counters = _mm256_add_epi64(counters, step4);
      const auto open = static_cast<unsigned>(lo | (hi << 4));
      const __m256i perm = _mm256_cvtepu8_epi32(
          _mm_cvtsi64_si128(static_cast<long long>(kCompact8[open])));
      const __m256i index = _mm256_add_epi32(
          _mm256_set1_epi32(static_cast<int>(d0)), lanes8);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(undecided + n),
                          _mm256_permutevar8x32_epi32(index, perm));
      n += static_cast<std::size_t>(std::popcount(open));
    }
    bits[w] = word;
  }
  return n;
}

// AVX-512 encode: one zmm of int8 lanes per 64-component block, the LV
// sign word used directly as the negate mask; tiles of NB blocks keep NB
// independent accumulator chains in flight.

/// Sign() bits of 32 int16 sums.
__attribute__((target("avx512f,avx512bw"), always_inline)) inline std::uint32_t
sign_bits_avx512(__m512i v) noexcept {
  const __m512i zero = _mm512_setzero_si512();
  const std::uint32_t positive =
      _cvtmask32_u32(_mm512_cmpgt_epi16_mask(v, zero));
  const std::uint32_t tie = _cvtmask32_u32(_mm512_cmpeq_epi16_mask(v, zero));
  return positive | (tie & static_cast<std::uint32_t>(kOddComponents));
}

/// sums[0..32) += the 32 int16 lanes of v.
__attribute__((target("avx512f,avx512bw"), always_inline)) inline void
spill_avx512(__m512i v, std::int32_t* sums) noexcept {
  const __m512i lo = _mm512_maskz_cvtepi16_epi32(0xFFFF, lower_half(v));
  const __m512i hi = _mm512_maskz_cvtepi16_epi32(0xFFFF, upper_half(v));
  _mm512_storeu_si512(sums, _mm512_add_epi32(_mm512_loadu_si512(sums), lo));
  _mm512_storeu_si512(sums + 16,
                      _mm512_add_epi32(_mm512_loadu_si512(sums + 16), hi));
}

/// 64 int8 components, in order, from 32 packed bytes: each byte widens to
/// a 16-bit lane holding its low nibble (component 2b) in the low byte and
/// its high nibble (component 2b+1) in the high byte, and the nibble table
/// maps both.
__attribute__((target("avx512f,avx512bw"), always_inline)) inline __m512i
expand_avx512(const std::uint64_t* packed, __m512i table) noexcept {
  const __m512i x = _mm512_cvtepu8_epi16(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(packed)));
  const __m512i nibbles = _mm512_and_si512(
      _mm512_or_si512(x, _mm512_slli_epi16(x, 4)), _mm512_set1_epi16(0x0F0F));
  return _mm512_shuffle_epi8(table, nibbles);
}

template <int NB>
__attribute__((target("avx512f,avx512bw"), always_inline)) inline void
encode_tile_avx512(const EncodeOperands& ops, const RunLimits& lim,
                   __m512i table, std::size_t w0, std::uint64_t* bits,
                   std::int32_t* acc) noexcept {
  const std::size_t n = ops.ids.size();
  const std::size_t words = ops.dim / 64;
  const std::size_t col0 = w0 * 64;
  const __m512i zero = _mm512_setzero_si512();
  __m512i mid[2 * NB] = {};  // int16, 32 components each
  std::int32_t sums[64 * NB] = {};
  bool spilled = false;
  std::size_t in_mid = 0;
  for (std::size_t p = 0; p < n;) {
    const std::size_t run = std::min(n - p, lim.int8_run);
    if (in_mid + run > lim.int16_peaks) {
      for (int k = 0; k < 2 * NB; ++k) {
        spill_avx512(mid[k], sums + 32 * k);
        mid[k] = zero;
      }
      spilled = true;
      in_mid = 0;
    }
    __m512i low[NB] = {};
    for (const std::size_t end = p + run; p < end; ++p) {
      const std::uint64_t* packed = ops.ids[p] + kBlockIdWords * w0;
      const std::uint64_t* sign = ops.signs[p] + w0;
      if (w0 + kPrefetchBlocks + NB <= words) {
        // One prefetch per 64-byte line: two blocks of packed components.
        for (int b = 0; b < NB; b += 2) {
          __builtin_prefetch(packed + kBlockIdWords * (kPrefetchBlocks + b));
        }
      }
      for (int b = 0; b < NB; ++b) {
        const __m512i v = expand_avx512(packed + kBlockIdWords * b, table);
        const __mmask64 neg = _cvtu64_mask64(~sign[b]);
        low[b] = _mm512_add_epi8(low[b], _mm512_mask_sub_epi8(v, neg, zero, v));
      }
    }
    for (int b = 0; b < NB; ++b) {
      mid[2 * b] = _mm512_add_epi16(mid[2 * b],
                                    _mm512_cvtepi8_epi16(lower_half(low[b])));
      mid[2 * b + 1] = _mm512_add_epi16(
          mid[2 * b + 1], _mm512_cvtepi8_epi16(upper_half(low[b])));
    }
    in_mid += run;
  }
  if (!spilled && acc == nullptr) {
    for (int b = 0; b < NB; ++b) {
      bits[w0 + b] =
          sign_bits_avx512(mid[2 * b]) |
          static_cast<std::uint64_t>(sign_bits_avx512(mid[2 * b + 1])) << 32;
    }
    return;
  }
  for (int k = 0; k < 2 * NB; ++k) spill_avx512(mid[k], sums + 32 * k);
  for (int b = 0; b < NB; ++b) {
    finish_block(sums + 64 * b, bits != nullptr ? bits + w0 + b : nullptr,
                 acc != nullptr ? acc + col0 + 64 * b : nullptr);
  }
}

__attribute__((target("avx512f,avx512bw"))) void encode_avx512(
    const EncodeOperands& ops, std::uint64_t* bits,
    std::int32_t* acc) noexcept {
  constexpr int kTile = 4;
  const RunLimits lim = run_limits(ops.precision);
  const NibbleTable nt = nibble_table(ops.precision, /*negated=*/false);
  const __m512i table = _mm512_load_si512(nt.bytes.data());
  const std::size_t words = ops.dim / 64;
  std::size_t w = 0;
  for (; w + kTile <= words; w += kTile) {
    encode_tile_avx512<kTile>(ops, lim, table, w, bits, acc);
  }
  for (; w < words; ++w) encode_tile_avx512<1>(ops, lim, table, w, bits, acc);
}

// AVX-512 sign pass: 16 components per step. Their sign bits come from one
// int32 compare; each 8-lane half hashes its counters with vpmullq
// (AVX-512DQ), bins h1 with vplzcntq (AVX-512CD) and gathers both bound
// tables; the undecided lanes' indices compress into a register and store
// as a full vector at the list's end (at most 16 past it, which stays below
// dim because the list never outruns the components seen). Intrinsics take
// their all-ones masked forms for the reason lower_half() gives.

constexpr __mmask8 kAll8 = 0xFF;

__attribute__((target("avx512f"), always_inline)) inline __m512i
broadcast_u64(std::uint64_t v) noexcept {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

/// x ^ (x >> shift) per lane.
__attribute__((target("avx512f"), always_inline)) inline __m512i
xorshift_avx512(__m512i x, unsigned shift) noexcept {
  return _mm512_xor_si512(x, _mm512_maskz_srli_epi64(kAll8, x, shift));
}

/// util::mix64 per lane.
__attribute__((target("avx512f,avx512dq"), always_inline)) inline __m512i
mix64_avx512(__m512i x) noexcept {
  x = _mm512_add_epi64(x, broadcast_u64(0x9e3779b97f4a7c15ULL));
  x = _mm512_mullo_epi64(xorshift_avx512(x, 30),
                         broadcast_u64(0xbf58476d1ce4e5b9ULL));
  x = _mm512_mullo_epi64(xorshift_avx512(x, 27),
                         broadcast_u64(0x94d049bb133111ebULL));
  return xorshift_avx512(x, 31);
}

/// Lanes of counters `d` (eight int32 sums `acc8`) whose sign the bound
/// cannot settle: util::counter_normal_bound lane by lane.
__attribute__((target("avx512f,avx512dq,avx512cd"),
               always_inline)) inline __mmask8
undecided8_avx512(__m512i d, __m256i acc8, __m512i key,
                  __m512d sigma) noexcept {
  const __m512i h1 = mix64_avx512(_mm512_xor_si512(key, mix64_avx512(d)));
  const __m512i h2 = mix64_avx512(
      _mm512_xor_si512(h1, broadcast_u64(0xd1b54a32d192ed03ULL)));
  // radius_bin: min(lz, 53) * 16 + the 4 bits after the leading one.
  const __m512i lz = _mm512_maskz_min_epu64(
      kAll8, _mm512_maskz_lzcnt_epi64(kAll8, h1), _mm512_set1_epi64(53));
  const __m512i frac =
      _mm512_maskz_srli_epi64(kAll8, _mm512_maskz_sllv_epi64(kAll8, h1, lz),
                              63 - util::detail::kRadiusFractionBits);
  const __m512i rbin = _mm512_or_si512(
      _mm512_maskz_slli_epi64(kAll8, lz, util::detail::kRadiusFractionBits),
      _mm512_and_si512(frac,
                       _mm512_set1_epi64(util::detail::kRadiusBins - 1)));
  const __m512i cbin =
      _mm512_maskz_srli_epi64(kAll8, h2, 64 - util::detail::kCosBinBits);
  const __m512d none = _mm512_setzero_pd();
  const __m512d radius = _mm512_mask_i64gather_pd(
      none, kAll8, rbin, util::detail::kRadiusBound.data(), 8);
  const __m512d cosine = _mm512_mask_i64gather_pd(
      none, kAll8, cbin, util::detail::kCosBound.data(), 8);
  const __m512d threshold =
      _mm512_mul_pd(sigma, _mm512_mul_pd(radius, cosine));
  const __m512d a = _mm512_abs_pd(_mm512_maskz_cvtepi32_pd(kAll8, acc8));
  return _mm512_cmp_pd_mask(a, threshold, _CMP_LE_OQ);
}

__attribute__((target("avx512f,avx512dq,avx512cd"))) std::size_t
keyed_sign_pass_avx512(const std::int32_t* acc, std::size_t dim, double sigma,
                       std::uint64_t key, std::uint64_t* bits,
                       std::uint32_t* undecided) noexcept {
  const __m512i keys = broadcast_u64(key);
  const __m512d sigmas = _mm512_set1_pd(sigma);
  const __m512i zero = _mm512_setzero_si512();
  const __m512i lanes16 = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                            11, 12, 13, 14, 15);
  const __m512i step8 = _mm512_set1_epi64(8);
  __m512i counters = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  std::size_t n = 0;
  for (std::size_t w = 0; w < dim / 64; ++w) {
    std::uint64_t word = 0;
    for (std::size_t k = 0; k < 4; ++k) {
      const std::size_t d0 = 64 * w + 16 * k;
      const __m512i a16 = _mm512_loadu_si512(acc + d0);
      word |= static_cast<std::uint64_t>(_mm512_cmpgt_epi32_mask(a16, zero))
              << (16 * k);
      const __mmask8 lo = undecided8_avx512(
          counters, lower_half(a16), keys, sigmas);
      counters = _mm512_add_epi64(counters, step8);
      const __mmask8 hi = undecided8_avx512(
          counters, upper_half(a16), keys, sigmas);
      counters = _mm512_add_epi64(counters, step8);
      const auto open = static_cast<__mmask16>(lo | (hi << 8));
      const __m512i index = _mm512_add_epi32(
          _mm512_set1_epi32(static_cast<int>(d0)), lanes16);
      _mm512_storeu_si512(undecided + n,
                          _mm512_maskz_compress_epi32(open, index));
      n += static_cast<std::size_t>(std::popcount(open));
    }
    bits[w] = word;
  }
  return n;
}

#endif  // OMSHD_X86_SIMD

Tier probe_best_supported() noexcept {
#ifdef OMSHD_X86_SIMD
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512vpopcntdq") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512cd")) {
    return Tier::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
#endif
  return Tier::kScalar;
}

Tier initial_tier() noexcept {
  Tier tier = probe_best_supported();
  if (const char* env = std::getenv("OMSHD_KERNEL_TIER")) {
    const Tier wanted = tier_from_name(env);
    if (static_cast<int>(wanted) < static_cast<int>(tier)) tier = wanted;
  }
  return tier;
}

std::atomic<Tier>& active_tier_slot() noexcept {
  static std::atomic<Tier> tier{initial_tier()};
  return tier;
}

}  // namespace

Tier best_supported() noexcept {
  static const Tier tier = probe_best_supported();
  return tier;
}

Tier active_tier() noexcept {
  return active_tier_slot().load(std::memory_order_relaxed);
}

Tier set_active_tier(Tier tier) noexcept {
  if (static_cast<int>(tier) > static_cast<int>(best_supported())) {
    tier = best_supported();
  }
  active_tier_slot().store(tier, std::memory_order_relaxed);
  return tier;
}

std::string_view tier_name(Tier tier) noexcept {
  switch (tier) {
    case Tier::kAvx512:
      return "avx512";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kScalar:
      break;
  }
  return "scalar";
}

Tier tier_from_name(std::string_view name) noexcept {
  if (name == "avx512") return Tier::kAvx512;
  if (name == "avx2") return Tier::kAvx2;
  return Tier::kScalar;
}

std::size_t xor_popcount_tier(Tier tier, const std::uint64_t* a,
                              const std::uint64_t* b, std::size_t n) noexcept {
#ifdef OMSHD_X86_SIMD
  switch (tier) {
    case Tier::kAvx512:
      return xor_popcount_avx512(a, b, n);
    case Tier::kAvx2:
      return xor_popcount_avx2(a, b, n);
    case Tier::kScalar:
      break;
  }
  if (has_popcnt()) return xor_popcount_popcnt(a, b, n);
#else
  (void)tier;
#endif
  return xor_popcount_scalar(a, b, n);
}

std::size_t xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t n) noexcept {
  return xor_popcount_tier(active_tier(), a, b, n);
}

void hamming_sweep_tier(Tier tier,
                        std::span<const std::uint64_t* const> queries,
                        const RefExtent& ext, std::size_t word_count,
                        std::size_t lfirst, std::size_t llast,
                        std::uint32_t* out, std::size_t out_stride) noexcept {
  for (std::size_t g0 = 0; g0 < queries.size(); g0 += kSweepGroup) {
    const std::uint64_t* const* group = queries.data() + g0;
    const std::size_t n = std::min(kSweepGroup, queries.size() - g0);
    std::uint32_t* group_out = out + g0 * out_stride;
#ifdef OMSHD_X86_SIMD
    switch (tier) {
      case Tier::kAvx512:
        hamming_sweep_avx512(group, n, ext, word_count, lfirst, llast,
                             group_out, out_stride);
        continue;
      case Tier::kAvx2:
        hamming_sweep_avx2(group, n, ext, word_count, lfirst, llast,
                           group_out, out_stride);
        continue;
      case Tier::kScalar:
        break;
    }
    if (has_popcnt()) {
      hamming_sweep_scalar(group, n, ext, word_count, lfirst, llast,
                           group_out, out_stride, xor_popcount_popcnt);
      continue;
    }
#else
    (void)tier;
#endif
    hamming_sweep_scalar(group, n, ext, word_count, lfirst, llast, group_out,
                         out_stride);
  }
}

std::size_t sweep_chunk_rows(std::size_t row_words) noexcept {
  // Target ~128 KiB of reference rows per chunk: resident in L2 while every
  // active query of a block is scored against it, large enough that the
  // per-chunk bookkeeping amortizes away.
  constexpr std::size_t kChunkBytes = 128 * 1024;
  const std::size_t row_bytes =
      std::max<std::size_t>(1, row_words) * sizeof(std::uint64_t);
  return std::clamp<std::size_t>(kChunkBytes / row_bytes, 8, 4096);
}

void encode(const EncodeOperands& ops, std::uint64_t* bits,
            std::int32_t* acc) noexcept {
  if (bits == nullptr && acc == nullptr) return;
#ifdef OMSHD_X86_SIMD
  switch (active_tier()) {
    case Tier::kAvx512:
      encode_avx512(ops, bits, acc);
      return;
    case Tier::kAvx2:
      encode_avx2(ops, bits, acc);
      return;
    case Tier::kScalar:
      break;
  }
#endif
  encode_scalar(ops, bits, acc);
}

std::size_t keyed_sign_pass(std::span<const std::int32_t> acc, double sigma,
                            std::uint64_t key, std::uint64_t* bits,
                            std::uint32_t* undecided) noexcept {
#ifdef OMSHD_X86_SIMD
  switch (active_tier()) {
    case Tier::kAvx512:
      return keyed_sign_pass_avx512(acc.data(), acc.size(), sigma, key, bits,
                                    undecided);
    case Tier::kAvx2:
      return keyed_sign_pass_avx2(acc.data(), acc.size(), sigma, key, bits,
                                  undecided);
    case Tier::kScalar:
      break;
  }
#endif
  return keyed_sign_pass_scalar(acc.data(), acc.size(), sigma, key, bits,
                                undecided);
}

}  // namespace kernels
}  // namespace oms::hd
