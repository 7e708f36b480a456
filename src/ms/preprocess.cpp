#include "ms/preprocess.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace oms::ms {

bool preprocess(const Spectrum& in, const PreprocessConfig& cfg,
                BinnedSpectrum& out) {
  out = BinnedSpectrum{};

  // A NaN passes every threshold comparison below (all compare false) and
  // would poison the L2 norm, so non-finite input is rejected outright.
  if (!std::isfinite(in.precursor_mz)) return false;
  for (const auto& p : in.peaks) {
    if (!std::isfinite(p.mz) || !std::isfinite(p.intensity)) return false;
  }

  const float base = in.base_peak_intensity();
  if (base <= 0.0F) return false;
  const float min_intensity = base * cfg.min_intensity_ratio;

  // 1. Range restriction, precursor removal, intensity threshold.
  std::vector<Peak> kept;
  kept.reserve(in.peaks.size());
  for (const auto& p : in.peaks) {
    if (p.mz < cfg.min_mz || p.mz > cfg.max_mz) continue;
    if (p.intensity < min_intensity) continue;
    if (cfg.remove_precursor &&
        std::abs(p.mz - in.precursor_mz) < cfg.precursor_window / 2.0) {
      continue;
    }
    kept.push_back(p);
  }

  // 2. Top-N selection by intensity.
  if (kept.size() > cfg.max_peaks) {
    std::nth_element(kept.begin(), kept.begin() + cfg.max_peaks, kept.end(),
                     [](const Peak& a, const Peak& b) {
                       return a.intensity > b.intensity;
                     });
    kept.resize(cfg.max_peaks);
  }
  if (kept.size() < cfg.min_peaks) return false;

  // 3. Binning (summing intensities within a bin) with sqrt scaling.
  std::map<std::uint32_t, double> binned;
  for (const auto& p : kept) {
    binned[cfg.bin_of(p.mz)] += static_cast<double>(p.intensity);
  }
  double norm_sq = 0.0;
  out.bins.reserve(binned.size());
  out.weights.reserve(binned.size());
  for (const auto& [bin, intensity] : binned) {
    const double w = cfg.sqrt_intensity ? std::sqrt(intensity) : intensity;
    out.bins.push_back(bin);
    out.weights.push_back(static_cast<float>(w));
    norm_sq += w * w;
  }

  // 4. L2 normalization.
  const double norm = std::sqrt(norm_sq);
  if (norm <= 0.0) return false;
  for (auto& w : out.weights) w = static_cast<float>(w / norm);

  out.id = in.id;
  out.precursor_mass = in.precursor_mass();
  out.precursor_charge = in.precursor_charge;
  out.is_decoy = in.is_decoy;
  out.peptide = in.peptide;
  return true;
}

std::vector<BinnedSpectrum> preprocess_all(const std::vector<Spectrum>& in,
                                           const PreprocessConfig& cfg) {
  std::vector<BinnedSpectrum> out;
  out.reserve(in.size());
  BinnedSpectrum tmp;
  for (const auto& s : in) {
    if (preprocess(s, cfg, tmp)) out.push_back(std::move(tmp));
  }
  return out;
}

double sparse_dot(const BinnedSpectrum& a, const BinnedSpectrum& b) noexcept {
  double acc = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.bins.size() && j < b.bins.size()) {
    if (a.bins[i] < b.bins[j]) {
      ++i;
    } else if (a.bins[i] > b.bins[j]) {
      ++j;
    } else {
      acc += static_cast<double>(a.weights[i]) * b.weights[j];
      ++i;
      ++j;
    }
  }
  return acc;
}

double shifted_dot(const BinnedSpectrum& query, const BinnedSpectrum& reference,
                   std::int64_t bin_shift) noexcept {
  // Each query peak may match a reference peak either directly or at the
  // shifted position; the larger contribution wins (a peak matches once).
  double acc = 0.0;
  for (std::size_t i = 0; i < query.bins.size(); ++i) {
    const std::int64_t qbin = static_cast<std::int64_t>(query.bins[i]);
    double best = 0.0;
    for (const std::int64_t target : {qbin, qbin - bin_shift}) {
      if (target < 0) continue;
      const auto it = std::lower_bound(reference.bins.begin(),
                                       reference.bins.end(),
                                       static_cast<std::uint32_t>(target));
      if (it != reference.bins.end() &&
          *it == static_cast<std::uint32_t>(target)) {
        const auto j = static_cast<std::size_t>(it - reference.bins.begin());
        best = std::max(
            best, static_cast<double>(query.weights[i]) * reference.weights[j]);
      }
    }
    acc += best;
  }
  return acc;
}

}  // namespace oms::ms
