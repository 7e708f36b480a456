#include "ms/spectrum.hpp"

#include <algorithm>
#include <cmath>

namespace oms::ms {

float Spectrum::base_peak_intensity() const noexcept {
  float best = 0.0F;
  for (const auto& p : peaks) best = std::max(best, p.intensity);
  return best;
}

void Spectrum::sort_peaks() {
  std::sort(peaks.begin(), peaks.end(),
            [](const Peak& a, const Peak& b) { return a.mz < b.mz; });
}

bool Spectrum::well_formed() const noexcept {
  if (!std::isfinite(precursor_mz)) return false;
  for (std::size_t i = 0; i < peaks.size(); ++i) {
    if (!std::isfinite(peaks[i].mz) || !std::isfinite(peaks[i].intensity)) {
      return false;
    }
    if (peaks[i].intensity < 0.0F) return false;
    if (i > 0 && peaks[i].mz < peaks[i - 1].mz) return false;
  }
  return true;
}

}  // namespace oms::ms
