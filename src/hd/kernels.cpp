#include "hd/kernels.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

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

// --- ID-Level encoder ----------------------------------------------------
//
// Every tier walks the hypervector one 64-component column block (one
// output word) at a time and keeps that block's partial sums in registers
// (the scalar tier: in small L1-resident arrays) while each peak's ID
// segment streams through: int8 lanes within a run of peaks, int16 lanes
// across runs, int32 only past int16 capacity.

/// Peak counts whose ±ID components sum exactly at a lane width: a run of
/// `int8_run` peaks fits int8 lanes, `int16_peaks` peaks fit int16 lanes.
struct RunLimits {
  std::size_t int8_run;
  std::size_t int16_peaks;
};

RunLimits run_limits(int max_magnitude) noexcept {
  const auto m = static_cast<std::size_t>(std::max(1, max_magnitude));
  return {127 / m, 32767 / m};
}

/// Column blocks ahead that the encode loops prefetch each peak's ID row:
/// the rows (8 KiB each at D = 8192) lie scattered across the bank, more
/// streams than the hardware prefetcher follows at once.
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

/// Byte j of entry b is 0xFF iff bit j of b is clear: the negate mask of
/// eight components from their eight LV sign bits.
constexpr std::array<std::uint64_t, 256> make_negate_masks() noexcept {
  std::array<std::uint64_t, 256> masks{};
  for (std::size_t b = 0; b < 256; ++b) {
    for (int j = 0; j < 8; ++j) {
      if (((b >> j) & 1U) == 0) masks[b] |= 0xFFULL << (8 * j);
    }
  }
  return masks;
}

constexpr std::array<std::uint64_t, 256> kNegateMasks = make_negate_masks();

void encode_scalar(const EncodeOperands& ops, std::uint64_t* bits,
                   std::int32_t* acc) noexcept {
  const std::size_t n = ops.ids.size();
  const RunLimits lim = run_limits(ops.max_magnitude);
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
      std::int8_t low[64] = {};
      for (const std::size_t end = p + run; p < end; ++p) {
        const std::int8_t* id = ops.ids[p] + col;
        const std::uint64_t sign = ops.signs[p][w];
        if (w + kPrefetchBlocks < words) {
          __builtin_prefetch(id + 64 * kPrefetchBlocks);
        }
        std::int8_t neg[64];
        for (int k = 0; k < 8; ++k) {
          std::memcpy(neg + 8 * k, &kNegateMasks[(sign >> (8 * k)) & 0xFF], 8);
        }
        // (v ^ neg) - neg negates v exactly where neg is all-ones.
        for (int j = 0; j < 64; ++j) {
          const int signed_id = (id[j] ^ neg[j]) - neg[j];
          low[j] = static_cast<std::int8_t>(low[j] + signed_id);
        }
      }
      for (int j = 0; j < 64; ++j) {
        mid[j] = static_cast<std::int16_t>(mid[j] + low[j]);
      }
      in_mid += run;
    }
    for (int j = 0; j < 64; ++j) sums[j] += mid[j];
    finish_block(sums, bits != nullptr ? bits + w : nullptr,
                 acc != nullptr ? acc + col : nullptr);
  }
}

#ifdef OMSHD_X86_SIMD

// AVX2 popcount via the nibble-LUT (vpshufb) method: per 256-bit vector,
// split bytes into nibbles, look up per-nibble popcounts, and fold the byte
// sums into four 64-bit lanes with vpsadbw every iteration (so byte
// counters can never saturate).
__attribute__((target("avx2"), always_inline)) inline std::size_t
xor_popcount_avx2_impl(const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t n) noexcept {
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

__attribute__((target("avx2"))) std::size_t xor_popcount_avx2(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) noexcept {
  return xor_popcount_avx2_impl(a, b, n);
}

__attribute__((target("avx2"))) void hamming_sweep_avx2(
    const std::uint64_t* query, const RefExtent& ext, std::size_t wc,
    std::size_t first, std::size_t last, std::uint32_t* out) noexcept {
  for (std::size_t i = first; i < last; ++i) {
    out[i - first] = static_cast<std::uint32_t>(
        xor_popcount_avx2_impl(query, ext.words + i * ext.stride, wc));
  }
}

__attribute__((target("avx512f,avx512vpopcntdq"), always_inline)) inline std::
    size_t
    xor_popcount_avx512_impl(const std::uint64_t* a, const std::uint64_t* b,
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

__attribute__((target("avx512f,avx512vpopcntdq"))) std::size_t
xor_popcount_avx512(const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t n) noexcept {
  return xor_popcount_avx512_impl(a, b, n);
}

__attribute__((target("avx512f,avx512vpopcntdq"))) void hamming_sweep_avx512(
    const std::uint64_t* query, const RefExtent& ext, std::size_t wc,
    std::size_t first, std::size_t last, std::uint32_t* out) noexcept {
  for (std::size_t i = first; i < last; ++i) {
    out[i - first] = static_cast<std::uint32_t>(
        xor_popcount_avx512_impl(query, ext.words + i * ext.stride, wc));
  }
}

// AVX2 encode: a 64-component block is two 32-component int8 halves; each
// half's 32 LV sign bits expand to a byte negate mask with one shuffle.
__attribute__((target("avx2"), always_inline)) inline __m256i
negate_mask_avx2(std::uint32_t sign) noexcept {
  const __m256i spread = _mm256_setr_epi8(
      0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,  //
      2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3);
  const __m256i bit = _mm256_set1_epi64x(0x8040201008040201LL);
  const __m256i bytes =
      _mm256_shuffle_epi8(_mm256_set1_epi32(static_cast<int>(sign)), spread);
  return _mm256_cmpeq_epi8(_mm256_and_si256(bytes, bit),
                           _mm256_setzero_si256());
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
  const RunLimits lim = run_limits(ops.max_magnitude);
  const __m256i zero = _mm256_setzero_si256();
  const std::size_t words = ops.dim / 64;
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t col = w * 64;
    __m256i mid[4] = {};  // int16, 16 components each
    std::int32_t sums[64] = {};
    bool spilled = false;
    std::size_t in_mid = 0;
    for (std::size_t p = 0; p < n;) {
      const std::size_t run = std::min(n - p, lim.int8_run);
      if (in_mid + run > lim.int16_peaks) {
        for (int k = 0; k < 4; ++k) {
          spill_avx2(mid[k], sums + 16 * k);
          mid[k] = zero;
        }
        spilled = true;
        in_mid = 0;
      }
      __m256i low[2] = {};
      for (const std::size_t end = p + run; p < end; ++p) {
        const std::int8_t* id = ops.ids[p] + col;
        const std::uint64_t sign = ops.signs[p][w];
        if (w + kPrefetchBlocks < words) {
          __builtin_prefetch(id + 64 * kPrefetchBlocks);
        }
        for (int h = 0; h < 2; ++h) {
          const __m256i v = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(id + 32 * h));
          const __m256i neg =
              negate_mask_avx2(static_cast<std::uint32_t>(sign >> (32 * h)));
          low[h] = _mm256_add_epi8(
              low[h], _mm256_sub_epi8(_mm256_xor_si256(v, neg), neg));
        }
      }
      for (int h = 0; h < 2; ++h) {
        mid[2 * h] = _mm256_add_epi16(
            mid[2 * h], _mm256_cvtepi8_epi16(_mm256_castsi256_si128(low[h])));
        mid[2 * h + 1] = _mm256_add_epi16(
            mid[2 * h + 1],
            _mm256_cvtepi8_epi16(_mm256_extracti128_si256(low[h], 1)));
      }
      in_mid += run;
    }
    if (!spilled && acc == nullptr) {
      bits[w] = sign_bits_avx2(mid[0], mid[1]) |
                static_cast<std::uint64_t>(sign_bits_avx2(mid[2], mid[3]))
                    << 32;
      continue;
    }
    for (int k = 0; k < 4; ++k) spill_avx2(mid[k], sums + 16 * k);
    finish_block(sums, bits != nullptr ? bits + w : nullptr,
                 acc != nullptr ? acc + col : nullptr);
  }
}

// AVX-512 encode: one zmm of int8 lanes per 64-component block, the LV
// sign word used directly as the negate mask; tiles of NB blocks keep NB
// independent accumulator chains in flight.

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

template <int NB>
__attribute__((target("avx512f,avx512bw"), always_inline)) inline void
encode_tile_avx512(const EncodeOperands& ops, const RunLimits& lim,
                   std::size_t w0, std::uint64_t* bits,
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
      const std::int8_t* id = ops.ids[p] + col0;
      const std::uint64_t* sign = ops.signs[p] + w0;
      if (w0 + kPrefetchBlocks + NB <= words) {
        for (int b = 0; b < NB; ++b) {
          __builtin_prefetch(id + 64 * (kPrefetchBlocks + b));
        }
      }
      for (int b = 0; b < NB; ++b) {
        const __m512i v = _mm512_loadu_si512(id + 64 * b);
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
  const RunLimits lim = run_limits(ops.max_magnitude);
  const std::size_t words = ops.dim / 64;
  std::size_t w = 0;
  for (; w + kTile <= words; w += kTile) {
    encode_tile_avx512<kTile>(ops, lim, w, bits, acc);
  }
  for (; w < words; ++w) encode_tile_avx512<1>(ops, lim, w, bits, acc);
}

#endif  // OMSHD_X86_SIMD

Tier probe_best_supported() noexcept {
#ifdef OMSHD_X86_SIMD
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512vpopcntdq") &&
      __builtin_cpu_supports("avx512bw")) {
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
#else
  (void)tier;
#endif
  return xor_popcount_scalar(a, b, n);
}

std::size_t xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t n) noexcept {
  return xor_popcount_tier(active_tier(), a, b, n);
}

void hamming_sweep_tier(Tier tier, const std::uint64_t* query,
                        const RefExtent& ext, std::size_t word_count,
                        std::size_t lfirst, std::size_t llast,
                        std::uint32_t* out) noexcept {
#ifdef OMSHD_X86_SIMD
  switch (tier) {
    case Tier::kAvx512:
      hamming_sweep_avx512(query, ext, word_count, lfirst, llast, out);
      return;
    case Tier::kAvx2:
      hamming_sweep_avx2(query, ext, word_count, lfirst, llast, out);
      return;
    case Tier::kScalar:
      break;
  }
#else
  (void)tier;
#endif
  for (std::size_t i = lfirst; i < llast; ++i) {
    out[i - lfirst] = static_cast<std::uint32_t>(
        xor_popcount_scalar(query, ext.words + i * ext.stride, word_count));
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

}  // namespace kernels
}  // namespace oms::hd
