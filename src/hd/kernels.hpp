// SIMD kernels behind the exact Hamming search and the ID-Level encoder,
// with runtime CPU dispatch. Three tiers share one contract — bit-identical
// outputs (Hamming counts, encoded hypervectors, accumulator sums), so
// swapping tiers can never move a search result:
//
//   kScalar  portable std::popcount loop (util::xor_popcount; the sweep
//            scores a query group row by row) and a column-blocked
//            int8/int16/int32 encode loop; the only tier
//            compiled when OMSHD_DISABLE_SIMD is defined or the target is
//            not x86-64;
//   kAvx2    256-bit XOR + nibble-LUT (vpshufb) popcount, accumulated with
//            vpsadbw, swept as query-group x 2-row register tiles, and
//            even/odd 32-component int8 encode halves whose ID nibbles
//            decode, LV sign folded in, by vpshufb — no special compile
//            flags needed, the functions carry target("avx2") attributes
//            and are entered only after a CPUID check;
//   kAvx512  512-bit XOR + native vpopcntq (AVX-512-VPOPCNTDQ) swept as
//            query-group x 4-row register tiles with masked word tails,
//            and 64-component masked int8 encode blocks (AVX-512BW).
//
// The dispatched entry points (xor_popcount, encode) read the active tier
// once per call; the sweep primitive (hamming_sweep_tier) takes the tier
// from its caller, which resolves it once per search. best_supported() is
// CPUID-probed at startup and the OMSHD_KERNEL_TIER env var ("scalar" |
// "avx2" | "avx512") or set_active_tier() can clamp it down — benches use
// this to measure every tier, tests to prove bit-identity across all of
// them.
//
// RefView is the one reference layout every sweep runs over: an ordered
// list of contiguous (words, stride, rows, base-index) extents partitioning
// the global reference index space [0, count). The mmap'd
// index::LibraryIndex word block (64-byte aligned) is one extent; a
// multi-segment index::SegmentedLibrary — whose merged order interleaves
// disjoint mapped blocks — is one extent per run of same-segment rows, so
// it keeps the SIMD sweeps instead of dropping to per-BitVec indirection.
// The sweep primitive works on one extent at a time. All loads are
// unaligned-safe, so the 8-byte-aligned in-memory MappedFile fallback goes
// through the same kernels.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "hd/id_bank.hpp"
#include "util/bitvec.hpp"

namespace oms::hd {

/// One contiguous run of a piecewise reference view: global rows
/// [base, base + rows) live at words + j*stride for j in [0, rows).
struct RefExtent {
  const std::uint64_t* words = nullptr;
  std::size_t stride = 0;  ///< Words between consecutive rows.
  std::size_t rows = 0;    ///< Rows in this run.
  std::size_t base = 0;    ///< Global index of the first row.
};

/// Piecewise reference-major view: an ordered list of contiguous extents
/// partitioning the global index space [0, count()), all sharing one dim.
/// The sweeps and search kernels iterate extents with global reference
/// indices, so results (and the index-keyed noise of simulated backends)
/// are bit-identical to a one-extent view over a contiguous copy of the
/// same rows. Non-owning; the underlying blocks must outlive the view.
class RefView {
 public:
  RefView() = default;

  [[nodiscard]] bool valid() const noexcept { return !extents_.empty(); }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t word_count() const noexcept {
    return (dim_ + 63) / 64;
  }
  [[nodiscard]] std::size_t extent_count() const noexcept {
    return extents_.size();
  }
  /// True when the whole view is one extent (a monolithic word block).
  [[nodiscard]] bool contiguous() const noexcept {
    return extents_.size() == 1;
  }
  [[nodiscard]] std::span<const RefExtent> extents() const noexcept {
    return extents_;
  }

  /// Index of the extent containing global row `i` (binary search; the
  /// sweeps iterate extents directly — keep this out of per-row loops).
  [[nodiscard]] std::size_t extent_index(std::size_t i) const noexcept;

  /// Row pointer by global index (extent_index + offset arithmetic).
  [[nodiscard]] const std::uint64_t* row(std::size_t i) const noexcept;

  /// Calls fn(extent, local_first, local_last) for every extent overlapping
  /// global rows [first, last), ascending — the per-extent decomposition
  /// every sweep shares. Binary-searches the first extent, then walks.
  template <typename Fn>
  void for_each_extent(std::size_t first, std::size_t last, Fn&& fn) const {
    if (first >= last) return;
    for (std::size_t e = extent_index(first); e < extents_.size(); ++e) {
      const RefExtent& ext = extents_[e];
      if (ext.base >= last) break;
      const std::size_t lo = std::max(first, ext.base);
      const std::size_t hi = std::min(last, ext.base + ext.rows);
      if (lo < hi) fn(ext, lo - ext.base, hi - ext.base);
    }
  }

  /// Greedily coalesces `refs` into maximal constant-stride runs: block-
  /// backed spans (LibraryIndex, one SegmentedLibrary segment) become one
  /// extent per underlying block, individually heap-allocated BitVecs
  /// degenerate to single-row extents (still correct — every row pointer
  /// is verified, so a heap layout that happens to be regular still yields
  /// a correct view). Invalid on an empty span or mixed dims.
  /// O(refs.size()) pointer checks: cheap next to any sweep, but hoist it
  /// out of per-query loops.
  [[nodiscard]] static RefView from_span(std::span<const util::BitVec> refs);

 private:
  std::vector<RefExtent> extents_;
  std::size_t count_ = 0;
  std::size_t dim_ = 0;
};

namespace kernels {

/// Dispatch tiers, ordered so a larger value strictly implies the smaller
/// ones are also runnable on this CPU.
enum class Tier : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Best tier this binary + CPU can run (compile-time gates × CPUID).
[[nodiscard]] Tier best_supported() noexcept;

/// Tier the dispatched entry points currently use. Defaults to
/// best_supported(), clamped by the OMSHD_KERNEL_TIER env var when set.
[[nodiscard]] Tier active_tier() noexcept;

/// Forces the active tier (clamped to best_supported(); returns the tier
/// actually installed). For benches and the cross-tier identity tests.
Tier set_active_tier(Tier tier) noexcept;

[[nodiscard]] std::string_view tier_name(Tier tier) noexcept;
/// Parses "scalar" | "avx2" | "avx512" (anything else → kScalar).
[[nodiscard]] Tier tier_from_name(std::string_view name) noexcept;

/// popcount(a ^ b) over n words, through the active tier.
[[nodiscard]] std::size_t xor_popcount(const std::uint64_t* a,
                                       const std::uint64_t* b,
                                       std::size_t n) noexcept;

/// Same, through an explicit tier (must be <= best_supported()).
[[nodiscard]] std::size_t xor_popcount_tier(Tier tier, const std::uint64_t* a,
                                            const std::uint64_t* b,
                                            std::size_t n) noexcept;

/// Queries one hamming_sweep_tier call scores per reference-row load, on
/// every tier: batched callers walk a segment's active queries in groups
/// of this size (the last group may be smaller).
inline constexpr std::size_t kSweepGroup = 4;

/// Hamming distances of a group of queries against the rows
/// [lfirst, llast) of one extent (local indices):
///
///   out[g * out_stride + j] = popcount(queries[g] ^ row(lfirst + j))
///
/// over `word_count` words, row r at ext.words + r * ext.stride, for every
/// g < queries.size() and j < llast - lfirst (<= out_stride). The
/// reference-major inner loop of every sweep, register-tiled: each 64-byte
/// block of a reference row is loaded once and XOR-popcounted against
/// every query of the group (AVX-512 scores group x 4-row tiles, AVX2
/// group x 2-row tiles), and rows stream sequentially so the hardware
/// prefetcher sees one linear walk over the mapped block. A group holds
/// 1..kSweepGroup queries (a longer span is scored kSweepGroup at a time);
/// a group of one is the plain single-query sweep. Query pointers need
/// only 8-byte alignment. `tier` (<= best_supported()) is resolved once by
/// the caller, which also walks the extents (RefView::for_each_extent), so
/// batched callers make one call per (chunk, query group) with no dispatch
/// or extent lookup inside.
void hamming_sweep_tier(Tier tier,
                        std::span<const std::uint64_t* const> queries,
                        const RefExtent& ext, std::size_t word_count,
                        std::size_t lfirst, std::size_t llast,
                        std::uint32_t* out, std::size_t out_stride) noexcept;

/// Rows per cache block for a batched sweep: sized so one chunk of
/// reference rows (~chunk * row_words * 8 bytes) stays L2-resident while
/// every query of a block is scored against it.
[[nodiscard]] std::size_t sweep_chunk_rows(std::size_t row_words) noexcept;

/// Operands of one spectrum's ID-Level MAC (paper Eq. 1 with chunked
/// levels, §4.2): for peak p, `ids[p]` is its packed ID row — dim/16 words,
/// component d the 4-bit nibble d % 16 of word d / 16 (IdBank::row, dim/2
/// bytes: 4 KiB at D = 8192), decoded by nibble_values(precision) into a
/// signed int8 with |v| <= max_magnitude(precision) — and `signs[p]` its
/// level's sign words — dim/64 words, bit d set iff LV component d is +1.
/// So each peak adds or subtracts its ID row component-wise (Fig. 5c).
struct EncodeOperands {
  std::span<const std::uint64_t* const> ids;
  std::span<const std::uint64_t* const> signs;
  std::size_t dim = 0;  ///< Multiple of 64.
  IdPrecision precision = IdPrecision::k1Bit;
};

/// The ID-Level encoder kernel. For every component d it forms the exact
/// sum acc_d = Σ_p ±id_p[d] (id_p[d] the decoded nibble, sign from signs[p]
/// bit d), one 64-component column block at a time; every tier expands
/// the block's 32 packed bytes per peak to int8 lanes in registers (a
/// 16-entry table lookup — vpshufb on the SIMD tiers). Runs of up to
/// 127/max_magnitude peaks add in int8 lanes, each run widens into int16
/// (exact up to 32767/max_magnitude peaks), and int16 spills into int32
/// beyond that, so any peak count is exact. Outputs (either may be null):
///   bits  dim/64 words, bit d = acc_d > 0 || (acc_d == 0 && d odd) — Sign()
///         with the deterministic parity tie-break;
///   acc   dim int32 values, acc[d] += acc_d (the pre-binarization MACs the
///         in-memory encoder perturbs).
/// Every tier produces identical outputs.
void encode(const EncodeOperands& ops, std::uint64_t* bits,
            std::int32_t* acc) noexcept;

}  // namespace kernels
}  // namespace oms::hd
