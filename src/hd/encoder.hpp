// ID-Level hypervector encoder (paper Eq. 1):
//
//   h = Sign( Σ_{i ∈ S} ID_i ⊗ LV_i )
//
// For each peak i of a preprocessed spectrum S, the position hypervector
// ID_i (selected by the peak's m/z bin) is element-wise multiplied by the
// level hypervector LV_i (selected by the peak's quantized intensity), the
// products are accumulated per dimension, and the result is binarized.
// The accumulation runs in one column-blocked kernel (kernels::encode in
// hd/kernels.hpp), dispatched over the same bit-identical scalar / AVX2 /
// AVX-512 tiers as the Hamming sweep.
//
// The encoder is deliberately independent of the mass-spectrometry types:
// it consumes parallel (bin, weight) spans, so any sparse non-negative
// feature vector can be encoded.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hd/id_bank.hpp"
#include "hd/level_bank.hpp"
#include "util/bitvec.hpp"
#include "util/thread_pool.hpp"

namespace oms::hd {

/// Which encoding family produced a hypervector library. The ID-Level
/// encoder is the paper's (and this pipeline's) default; the alternatives
/// live in hd/alt_encoders.hpp and are compared in bench/ablation_encoding.
/// Persisted libraries carry this in their fingerprint so a library encoded
/// one way is never searched with queries encoded another.
enum class EncoderKind : std::uint32_t {
  kIdLevel = 0,
  kPermutation = 1,
  kRandomProjection = 2,
};

[[nodiscard]] constexpr const char* to_string(EncoderKind kind) noexcept {
  switch (kind) {
    case EncoderKind::kIdLevel: return "id-level";
    case EncoderKind::kPermutation: return "permutation";
    case EncoderKind::kRandomProjection: return "random-projection";
  }
  return "unknown";
}

struct EncoderConfig {
  std::uint32_t dim = 8192;        ///< Hypervector dimension D.
  std::uint32_t bins = 27981;      ///< Number of m/z bins (ID rows).
  std::uint32_t levels = 32;       ///< Intensity quantization levels Q.
  std::uint32_t chunks = 256;      ///< LV chunks (paper §4.2.1); divides dim.
  IdPrecision id_precision = IdPrecision::k3Bit;
  std::uint64_t seed = 0x0D0C5EEDULL;
};

class Encoder {
 public:
  explicit Encoder(const EncoderConfig& cfg);

  [[nodiscard]] const EncoderConfig& config() const noexcept { return cfg_; }
  /// The process-wide ID rows of this config's key (shared by every
  /// encoder with the same seed, bins, dim and precision).
  [[nodiscard]] const IdBank& id_bank() const noexcept { return ids_; }
  [[nodiscard]] const LevelBank& level_bank() const noexcept {
    return levels_;
  }

  /// Quantized intensity level for each weight, relative to the largest
  /// weight in the spectrum.
  [[nodiscard]] std::vector<std::uint32_t> quantize_levels(
      std::span<const float> weights) const;

  /// Accumulates Σ ID_i ⊗ LV_i into `acc` (size dim, zero-initialized by
  /// the caller). Exposed separately because the in-memory encoder needs
  /// the pre-binarization MAC values to model analog errors. Like encode()
  /// and encode_batch(), needs no warm-up and is thread-safe; a bin >=
  /// config().bins throws std::out_of_range naming the bin and the bound.
  void accumulate(std::span<const std::uint32_t> bins,
                  std::span<const float> weights,
                  std::span<std::int32_t> acc) const;

  /// Full encode: Sign() of the accumulation, with a deterministic
  /// tie-break on zero (set on odd components), so encodings are
  /// reproducible bit-for-bit.
  [[nodiscard]] util::BitVec encode(std::span<const std::uint32_t> bins,
                                    std::span<const float> weights) const;

  /// Throws what encode() would on any spectrum of the batch —
  /// std::invalid_argument on a size mismatch, std::out_of_range on a bin
  /// >= config().bins — so batch callers can fail before starting parallel
  /// work, whose workers must not throw.
  void validate(std::span<const std::vector<std::uint32_t>> bin_lists,
                std::span<const std::vector<float>> weight_lists) const;

  /// Batch encode with the global thread pool. `bin_lists`/`weight_lists`
  /// are parallel arrays of sparse vectors.
  [[nodiscard]] std::vector<util::BitVec> encode_batch(
      std::span<const std::vector<std::uint32_t>> bin_lists,
      std::span<const std::vector<float>> weight_lists) const;

 private:
  /// One pass of the kernels::encode kernel over the spectrum's peaks:
  /// Sign() bits into `bits` and/or exact sums added into `acc`.
  void run_kernel(std::span<const std::uint32_t> bins,
                  std::span<const float> weights, std::uint64_t* bits,
                  std::int32_t* acc) const;

  EncoderConfig cfg_;
  IdBank ids_;
  LevelBank levels_;
};

}  // namespace oms::hd
