// ID hypervector bank. Every m/z bin owns a pseudo-random "position"
// hypervector (paper §3.2); with the multi-bit scheme (§4.2.2) each
// component is a signed value of 1..3-bit precision. Components take the
// odd values ±{1}, ±{1,3}, ±{1,3,5,7} at 1/2/3-bit precision: scaled by
// the maximum magnitude these land exactly on the uniform 2^n-level
// differential conductance grid of an n-bit MLC cell (Eqs. 2-3), so the
// in-memory encoder stores ID components without quantization error.
// (The paper's example set {-4..-1, 1..4} is the same lattice up to an
// affine rescale, which Sign() in Eq. 1 is invariant to.)
//
// Rows are generated deterministically from (seed, bin) with a counter-based
// hash: every 64-bit hash word yields 16 components, one 4-bit nibble each
// (bit 0 the sign, bits 1-2 the magnitude index; nibble_values() decodes
// them). The bank stores a row as those raw hash words — dim/2 bytes at any
// precision — and the encode kernels expand nibbles to int8 in registers.
//
// Like the paper's encoder, which writes the ID rows into MLC cells once
// and reuses them for every spectrum, one packed store per key (seed, bins,
// dim, precision) is shared by every IdBank — hence every hd::Encoder — in
// the process. A store is one region reserved up front with a fixed slot
// per bin, so its pages become resident only as rows are written, plus one
// state byte per bin. Rows are published lazily and without locks: a row's
// first reader claims its slot with one compare-and-swap, generates the row
// in place and marks it ready; a reader that finds the slot mid-write waits
// for that one row, and readers of ready rows never wait. So row() is
// valid for any in-range bin with no warm-up. A store lives until the
// process exits and holds at most bins × (dim/2 + 64) bytes — about 111 MiB
// at the paper shape (27,981 bins, D = 8192), resident only for the bins
// actually touched.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace oms::hd {

/// Precision of ID hypervector components, in bits (paper §4.2.2).
enum class IdPrecision : std::uint8_t { k1Bit = 1, k2Bit = 2, k3Bit = 3 };

/// Largest component magnitude at a given precision (1→1, 2→3, 3→7).
[[nodiscard]] constexpr int max_magnitude(IdPrecision p) noexcept {
  return (1 << static_cast<int>(p)) - 1;
}

/// Number of distinct magnitudes at a given precision (1, 2, 4).
[[nodiscard]] constexpr int magnitude_count(IdPrecision p) noexcept {
  return 1 << (static_cast<int>(p) - 1);
}

/// Component value of each 4-bit nibble of a packed row: bit 0 is the sign
/// (set → positive), bits 1-2 pick one of the odd magnitudes 1, 3, ...,
/// 2^p - 1 uniformly, bit 3 is unused.
[[nodiscard]] constexpr std::array<std::int8_t, 16> nibble_values(
    IdPrecision p) noexcept {
  std::array<std::int8_t, 16> lut{};
  const int mags = magnitude_count(p);
  for (int n = 0; n < 16; ++n) {
    const int sign = (n & 1) != 0 ? 1 : -1;
    const int mag = 2 * (((n >> 1) & 3) % mags) + 1;
    lut[static_cast<std::size_t>(n)] = static_cast<std::int8_t>(sign * mag);
  }
  return lut;
}

/// Expands a packed row (component d = nibble d % 16 of word d / 16) into
/// out.size() int8 components.
void expand_row(std::span<const std::uint64_t> packed, IdPrecision precision,
                std::span<std::int8_t> out);

struct IdStore;  // One key's process-wide rows (id_bank.cpp).

class IdBank {
 public:
  /// `bins` is the number of distinct m/z bins (rows); `dim` the
  /// hypervector dimension D. Attaches to the process-wide store of this
  /// key, creating it on first use.
  IdBank(std::uint32_t bins, std::uint32_t dim, IdPrecision precision,
         std::uint64_t seed);

  [[nodiscard]] std::uint32_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::uint32_t bin_count() const noexcept { return bins_; }
  [[nodiscard]] IdPrecision precision() const noexcept { return precision_; }
  /// 64-bit words per packed row: one per 16 components.
  [[nodiscard]] std::size_t row_words() const noexcept {
    return (static_cast<std::size_t>(dim_) + 15) / 16;
  }

  /// Warm-up hint: publishes the rows of every bin in `bins` now rather
  /// than on first touch. Never required for correctness. Throws
  /// std::out_of_range on a bin >= bin_count().
  void ensure(std::span<const std::uint32_t> bins) const;

  /// The packed row of `bin` (row_words() words), generated and published
  /// on first touch; the pointer stays valid, and is the same for every
  /// IdBank of this key, until the process exits. Thread-safe: blocks only
  /// while another thread is writing this same row. Throws
  /// std::out_of_range, naming the bin and the bound, on a bin >=
  /// bin_count().
  [[nodiscard]] std::span<const std::uint64_t> row(std::uint32_t bin) const;

  /// Generates one row into `out` (size dim()) as signed int8 components,
  /// nonzero with |v| <= max_magnitude(precision), without touching the
  /// store: the int8 oracle that row() expanded by nibble_values() equals.
  void generate_row(std::uint32_t bin, std::span<std::int8_t> out) const;

 private:
  std::uint32_t bins_;
  std::uint32_t dim_;
  IdPrecision precision_;
  std::uint64_t seed_;
  IdStore* store_;  ///< This key's process-wide store; never freed.
};

}  // namespace oms::hd
