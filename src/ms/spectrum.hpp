// Mass spectrum representation: a precursor (m/z, charge) plus a peak list.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ms/masses.hpp"

namespace oms::ms {

/// One fragment peak: mass-to-charge ratio and relative intensity.
struct Peak {
  double mz = 0.0;
  float intensity = 0.0F;

  [[nodiscard]] bool operator==(const Peak&) const = default;
};

/// A (possibly annotated) MS/MS spectrum. Peaks are kept sorted by m/z.
struct Spectrum {
  std::uint32_t id = 0;             ///< Stable identifier within a dataset.
  std::string title;                ///< Free-form label (e.g. scan title).
  std::string peptide;              ///< Annotation; empty if unknown.
  double precursor_mz = 0.0;
  int precursor_charge = 1;
  bool is_decoy = false;
  std::vector<Peak> peaks;

  /// Neutral precursor mass derived from precursor m/z and charge.
  [[nodiscard]] double precursor_mass() const noexcept {
    return mz_to_mass(precursor_mz, precursor_charge);
  }

  /// Largest peak intensity (0 for an empty spectrum).
  [[nodiscard]] float base_peak_intensity() const noexcept;

  /// Sorts peaks ascending by m/z (parsers call this after loading).
  void sort_peaks();

  /// True if the precursor m/z and every peak are finite, peaks are sorted
  /// by m/z, and all intensities are non-negative.
  [[nodiscard]] bool well_formed() const noexcept;
};

}  // namespace oms::ms
