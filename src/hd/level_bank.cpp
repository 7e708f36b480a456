#include "hd/level_bank.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"

namespace oms::hd {

LevelBank::LevelBank(std::uint32_t levels, std::uint32_t dim,
                     std::uint32_t chunks, std::uint64_t seed)
    : levels_(levels), dim_(dim), chunks_(chunks) {
  if (levels_ < 2) throw std::invalid_argument("LevelBank: need >= 2 levels");
  if (chunks_ == 0 || dim_ % chunks_ != 0) {
    throw std::invalid_argument("LevelBank: chunks must divide dim");
  }
  signs_.assign(static_cast<std::size_t>(levels_) * chunks_, 0);

  util::Xoshiro256 rng(util::hash_combine(seed, 0x4c56ULL));

  // l_0: random chunk signs.
  for (std::uint32_t c = 0; c < chunks_; ++c) {
    signs_[c] = rng.bernoulli(0.5) ? 1 : 0;
  }

  // A random permutation of chunk indices determines which chunks flip at
  // each level step. Flipping `chunks/(2*(levels-1))` chunks per step (the
  // paper's D/(2Q) rule) makes l_0 and l_{Q-1} differ in half the chunks,
  // i.e. the extreme levels are nearly orthogonal while neighbors are close.
  std::vector<std::uint32_t> perm(chunks_);
  std::iota(perm.begin(), perm.end(), 0U);
  for (std::uint32_t i = chunks_; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(i)]);
  }

  const double flips_per_step =
      static_cast<double>(chunks_) / (2.0 * static_cast<double>(levels_ - 1));
  double cursor = 0.0;
  for (std::uint32_t q = 1; q < levels_; ++q) {
    // Copy previous level then flip the next slice of the permutation.
    std::copy_n(&signs_[(q - 1) * chunks_], chunks_, &signs_[q * chunks_]);
    const auto from = static_cast<std::uint32_t>(cursor);
    cursor += flips_per_step;
    const auto to = std::min(chunks_, static_cast<std::uint32_t>(cursor));
    for (std::uint32_t k = from; k < to; ++k) {
      signs_[q * chunks_ + perm[k]] ^= 1U;
    }
  }

  // Materialize the packed per-component signs once; the encoder reads
  // them per peak.
  const std::uint32_t width = chunk_width();
  sign_words_.assign(static_cast<std::size_t>(levels_) * word_count(), 0);
  for (std::uint32_t q = 0; q < levels_; ++q) {
    std::uint64_t* row = &sign_words_[q * word_count()];
    for (std::uint32_t d = 0; d < dim_; ++d) {
      if (signs_[q * chunks_ + d / width]) row[d / 64] |= 1ULL << (d % 64);
    }
  }
}

util::BitVec LevelBank::expand(std::uint32_t q) const {
  if (q >= levels_) throw std::out_of_range("LevelBank::expand");
  util::BitVec hv(dim_);
  const std::span<const std::uint64_t> words = sign_words(q);
  std::copy(words.begin(), words.end(), hv.words().begin());
  return hv;
}

std::uint32_t LevelBank::quantize(double relative_intensity) const noexcept {
  const double clamped = std::clamp(relative_intensity, 0.0, 1.0);
  const auto q = static_cast<std::uint32_t>(clamped *
                                            static_cast<double>(levels_));
  return std::min(q, levels_ - 1);
}

std::uint32_t LevelBank::level_distance(std::uint32_t a,
                                        std::uint32_t b) const {
  if (a >= levels_ || b >= levels_) {
    throw std::out_of_range("LevelBank::level_distance");
  }
  std::uint32_t diff = 0;
  for (std::uint32_t c = 0; c < chunks_; ++c) {
    diff += signs_[a * chunks_ + c] != signs_[b * chunks_ + c] ? 1U : 0U;
  }
  return diff * chunk_width();
}

}  // namespace oms::hd
