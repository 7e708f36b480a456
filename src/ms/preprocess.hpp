// Spectrum preprocessing (paper §3.1): noise-peak removal, top-N selection,
// intensity scaling, and m/z binning into a sparse vector. The binned vector
// is the input to HD encoding.
#pragma once

#include <cstdint>
#include <vector>

#include "ms/spectrum.hpp"

namespace oms::ms {

/// Preprocessing parameters. Defaults follow the paper and the HyperOMS /
/// ANN-SoLo conventions it builds on.
struct PreprocessConfig {
  double min_mz = 101.0;             ///< Fragment m/z range lower bound.
  double max_mz = 1500.0;            ///< Fragment m/z range upper bound.
  double bin_width = 0.05;           ///< m/z bin width in Da (fragment tol).
  float min_intensity_ratio = 0.01F; ///< Drop peaks < 1% of base peak.
  std::size_t max_peaks = 50;        ///< Keep at most the top-N peaks.
  std::size_t min_peaks = 5;         ///< Reject spectra with fewer peaks.
  bool sqrt_intensity = true;        ///< sqrt-transform before normalizing.
  bool remove_precursor = true;      ///< Drop peaks near the precursor m/z.
  double precursor_window = 1.5;     ///< Width of the removed region (Da).

  /// Number of m/z bins implied by the range and bin width.
  [[nodiscard]] std::uint32_t bin_count() const noexcept {
    return static_cast<std::uint32_t>((max_mz - min_mz) / bin_width) + 1;
  }

  /// Bin index for an m/z value inside [min_mz, max_mz].
  [[nodiscard]] std::uint32_t bin_of(double mz) const noexcept {
    return static_cast<std::uint32_t>((mz - min_mz) / bin_width);
  }
};

/// A preprocessed spectrum: unit-norm sparse vector over m/z bins, plus the
/// precursor metadata the search needs for mass windowing.
struct BinnedSpectrum {
  std::uint32_t id = 0;
  double precursor_mass = 0.0;
  int precursor_charge = 1;
  bool is_decoy = false;
  std::string peptide;
  /// Parallel arrays sorted by bin index; weights are L2-normalized.
  std::vector<std::uint32_t> bins;
  std::vector<float> weights;

  [[nodiscard]] std::size_t peak_count() const noexcept { return bins.size(); }
};

/// Applies the full preprocessing chain. Returns false (and leaves `out`
/// empty) if the spectrum fails quality filtering: a non-finite precursor
/// m/z, peak m/z or intensity, or too few peaks.
[[nodiscard]] bool preprocess(const Spectrum& in, const PreprocessConfig& cfg,
                              BinnedSpectrum& out);

/// Convenience: preprocesses a batch, dropping rejected spectra.
[[nodiscard]] std::vector<BinnedSpectrum> preprocess_all(
    const std::vector<Spectrum>& in, const PreprocessConfig& cfg);

/// Sparse dot product of two binned spectra (cosine similarity because both
/// sides are unit norm). Used by the ANN-SoLo-like baseline.
[[nodiscard]] double sparse_dot(const BinnedSpectrum& a,
                                const BinnedSpectrum& b) noexcept;

/// Shifted sparse dot product: bins of `b` are offset by `bin_shift` before
/// matching. ANN-SoLo's open search scores a modified query against an
/// unmodified reference by allowing peaks to match at the precursor-mass
/// difference. The score returned is max(direct, shifted) contribution per
/// query peak, mirroring the shifted dot product of the paper's baseline.
[[nodiscard]] double shifted_dot(const BinnedSpectrum& query,
                                 const BinnedSpectrum& reference,
                                 std::int64_t bin_shift) noexcept;

}  // namespace oms::ms
