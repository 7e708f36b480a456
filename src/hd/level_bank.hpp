// Level hypervector bank (paper §3.2 and §4.2.1). Intensities are quantized
// to Q levels; level hypervectors l_0..l_{Q-1} are correlated so that nearby
// levels stay similar: l_j is obtained from l_{j-1} by flipping a fixed
// fraction of components.
//
// The bank supports the paper's *chunked* scheme: the D components are
// divided into `chunks` equal groups whose values are identical within a
// group. Chunking is what lets the in-memory encoder feed level inputs
// chunk-by-chunk instead of bit-by-bit (Fig. 5c), turning element-wise MACs
// into MVM-style operations. Setting chunks == D recovers the classic
// unchunked ID-Level scheme, which the ablation bench compares against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>
// (BitVec pulls in the remaining dependencies.)

#include "util/bitvec.hpp"

namespace oms::hd {

class LevelBank {
 public:
  /// `levels` = Q (16-32 typical); `chunks` must divide `dim`.
  LevelBank(std::uint32_t levels, std::uint32_t dim, std::uint32_t chunks,
            std::uint64_t seed);

  [[nodiscard]] std::uint32_t levels() const noexcept { return levels_; }
  [[nodiscard]] std::uint32_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::uint32_t chunk_count() const noexcept { return chunks_; }
  [[nodiscard]] std::uint32_t chunk_width() const noexcept {
    return dim_ / chunks_;
  }

  /// Sign (+1/-1) of every component of level `q` within chunk `c`.
  [[nodiscard]] int chunk_sign(std::uint32_t q, std::uint32_t c) const {
    return signs_[q * chunks_ + c] ? +1 : -1;
  }

  /// Level q's hypervector packed as ceil(dim/64) words, bit d set iff
  /// component d is +1 (BitVec layout). Materialized once at construction;
  /// the encoder kernel reads one word per peak per 64-component block.
  [[nodiscard]] std::span<const std::uint64_t> sign_words(
      std::uint32_t q) const {
    return {&sign_words_[static_cast<std::size_t>(q) * word_count()],
            word_count()};
  }

  /// Full bipolar hypervector for level q, expanded to D components.
  [[nodiscard]] util::BitVec expand(std::uint32_t q) const;

  /// Quantizes a relative intensity in [0, 1] to a level index in
  /// [0, levels-1].
  [[nodiscard]] std::uint32_t quantize(double relative_intensity) const noexcept;

  /// Hamming distance between two levels' hypervectors, in components.
  [[nodiscard]] std::uint32_t level_distance(std::uint32_t a,
                                             std::uint32_t b) const;

 private:
  [[nodiscard]] std::size_t word_count() const noexcept {
    return (static_cast<std::size_t>(dim_) + 63) / 64;
  }

  std::uint32_t levels_;
  std::uint32_t dim_;
  std::uint32_t chunks_;
  /// signs_[q * chunks_ + c] = 1 if chunk c of level q is +1.
  std::vector<std::uint8_t> signs_;
  /// Per-level packed signs over all dim components (levels_ × words).
  std::vector<std::uint64_t> sign_words_;
};

}  // namespace oms::hd
