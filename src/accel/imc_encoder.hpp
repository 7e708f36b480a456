// In-memory ID-Level encoding (paper §4.2, Fig. 5c). The multi-bit ID
// hypervectors are the stored weights (one component per differential MLC
// pair — this is where 8-level cells earn their keep); the binary level
// hypervectors are the inputs. With the chunked LV scheme all element-wise
// MAC outputs of one chunk are produced in a single MVM-style cycle.
//
// Fidelity mirrors ImcSearchEngine: circuit mode programs real arrays per
// spectrum (small-scale experiments); statistical mode perturbs the exact
// accumulator with the calibrated per-MAC sigma before binarization.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "accel/error_model.hpp"
#include "hd/encoder.hpp"
#include "util/bitvec.hpp"

namespace oms::accel {

struct ImcEncoderConfig {
  rram::ArrayConfig array{};
  Fidelity fidelity = Fidelity::kStatistical;
  std::size_t calibration_samples = 4096;
  std::uint64_t seed = 13;
};

class ImcEncoder {
 public:
  /// `encoder` supplies the ID/level banks and ideal accumulation; it must
  /// outlive the ImcEncoder.
  ImcEncoder(const hd::Encoder& encoder, const ImcEncoderConfig& cfg);

  [[nodiscard]] const ImcEncoderConfig& config() const noexcept {
    return cfg_;
  }
  /// Per-MAC sigma (in accumulator units) used by statistical mode.
  [[nodiscard]] double mac_sigma() const noexcept { return mac_sigma_; }

  /// Encodes one sparse spectrum as the hardware would. The number of
  /// activated rows equals the number of peaks (each peak is one stored ID
  /// row), so spectra with more peaks see more analog error.
  [[nodiscard]] util::BitVec encode(std::span<const std::uint32_t> bins,
                                    std::span<const float> weights);

  /// Thread-safe statistical encode with noise keyed on (seed, stream):
  /// reproducible regardless of thread scheduling. Requires precalibrate()
  /// to have covered this spectrum's peak-count bucket. Components whose
  /// exact sum outweighs any possible draw keep its sign without drawing
  /// (util::counter_normal_bound); the bits are those of drawing for all.
  [[nodiscard]] util::BitVec encode_keyed(std::span<const std::uint32_t> bins,
                                          std::span<const float> weights,
                                          std::uint64_t stream) const;

  /// Noise sigma, in accumulator units, that encode_keyed adds to every
  /// component of a spectrum with `peaks` peaks (same precalibration
  /// requirement).
  [[nodiscard]] double keyed_noise_sigma(std::size_t peaks) const;

  /// Calibrates and caches the MAC sigma for every peak-count bucket in
  /// the batch (statistical mode; no-op otherwise). Calibration is
  /// deterministic per (device, bucket, seed), so precalibrating block by
  /// block yields the same sigmas as one whole-batch pass. Thread-safe
  /// against concurrent precalibrate()/encode_keyed() calls from streaming
  /// encode workers.
  void precalibrate(std::span<const std::vector<std::uint32_t>> bin_lists);

  /// Same, from peak counts alone (buckets depend only on the count; the
  /// streaming encoder uses this to avoid materializing bin lists).
  void precalibrate(std::span<const std::size_t> peak_counts);

  /// Fraction of output bits that differ from the ideal digital encoding,
  /// measured over the given batch (Fig. 9a metric).
  [[nodiscard]] double encoding_bit_error_rate(
      std::span<const std::vector<std::uint32_t>> bin_lists,
      std::span<const std::vector<float>> weight_lists);

 private:
  [[nodiscard]] util::BitVec encode_circuit(
      std::span<const std::uint32_t> bins, std::span<const float> weights);
  [[nodiscard]] util::BitVec encode_statistical(
      std::span<const std::uint32_t> bins, std::span<const float> weights);
  /// Calibrated sigma for an activated-row bucket (calibrates on miss).
  [[nodiscard]] double sigma_for(std::size_t n_rows);
  /// Cached sigma; throws std::logic_error if precalibrate() missed it.
  [[nodiscard]] double sigma_for_const(std::size_t n_rows) const;

  const hd::Encoder& encoder_;
  ImcEncoderConfig cfg_;
  double mac_sigma_ = 0.0;
  util::Xoshiro256 rng_;
  mutable std::mutex sigma_mutex_;  ///< Guards sigma_cache_.
  std::map<std::size_t, double> sigma_cache_;
};

}  // namespace oms::accel
