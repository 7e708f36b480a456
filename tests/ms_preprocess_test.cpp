#include "ms/preprocess.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace oms::ms {
namespace {

Spectrum make_spectrum(std::initializer_list<Peak> peaks, double pre_mz = 600.0,
                       int z = 2) {
  Spectrum s;
  s.id = 1;
  s.precursor_mz = pre_mz;
  s.precursor_charge = z;
  s.peaks = peaks;
  s.sort_peaks();
  return s;
}

PreprocessConfig tiny_config() {
  PreprocessConfig cfg;
  cfg.min_peaks = 1;
  cfg.remove_precursor = false;
  return cfg;
}

TEST(Preprocess, DropsOutOfRangePeaks) {
  const Spectrum s = make_spectrum(
      {{50.0, 100.0F}, {200.0, 100.0F}, {1600.0, 100.0F}});
  BinnedSpectrum out;
  ASSERT_TRUE(preprocess(s, tiny_config(), out));
  EXPECT_EQ(out.peak_count(), 1U);
}

TEST(Preprocess, DropsLowIntensityPeaks) {
  const Spectrum s = make_spectrum(
      {{200.0, 1000.0F}, {300.0, 5.0F}, {400.0, 500.0F}});
  BinnedSpectrum out;
  ASSERT_TRUE(preprocess(s, tiny_config(), out));
  // 5.0 < 1% of 1000 → dropped.
  EXPECT_EQ(out.peak_count(), 2U);
}

TEST(Preprocess, KeepsTopNPeaks) {
  PreprocessConfig cfg = tiny_config();
  cfg.max_peaks = 3;
  Spectrum s;
  s.precursor_mz = 600.0;
  s.precursor_charge = 2;
  for (int i = 0; i < 20; ++i) {
    s.peaks.push_back({200.0 + i * 10.0, 100.0F + i});
  }
  BinnedSpectrum out;
  ASSERT_TRUE(preprocess(s, cfg, out));
  EXPECT_EQ(out.peak_count(), 3U);
}

TEST(Preprocess, RemovesPrecursorRegion) {
  PreprocessConfig cfg = tiny_config();
  cfg.remove_precursor = true;
  const Spectrum s = make_spectrum(
      {{599.9, 100.0F}, {600.2, 100.0F}, {800.0, 100.0F}}, 600.0);
  BinnedSpectrum out;
  ASSERT_TRUE(preprocess(s, cfg, out));
  EXPECT_EQ(out.peak_count(), 1U);  // only the 800 Da peak survives
}

TEST(Preprocess, RejectsTooFewPeaks) {
  PreprocessConfig cfg;
  cfg.min_peaks = 5;
  const Spectrum s = make_spectrum({{200.0, 100.0F}, {300.0, 50.0F}});
  BinnedSpectrum out;
  EXPECT_FALSE(preprocess(s, cfg, out));
}

TEST(Preprocess, RejectsEmptySpectrum) {
  Spectrum s;
  s.precursor_mz = 500.0;
  BinnedSpectrum out;
  EXPECT_FALSE(preprocess(s, tiny_config(), out));
}

// A NaN intensity compares false against every threshold, so without an
// explicit check it survived filtering and turned every weight into NaN.
TEST(Preprocess, RejectsNonFiniteIntensity) {
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    const Spectrum s =
        make_spectrum({{200.0, 100.0F}, {300.0, bad}, {400.0, 50.0F}});
    EXPECT_FALSE(s.well_formed()) << bad;
    BinnedSpectrum out;
    EXPECT_FALSE(preprocess(s, tiny_config(), out)) << bad;
    EXPECT_TRUE(out.bins.empty()) << bad;
  }
}

TEST(Preprocess, RejectsNonFiniteMz) {
  Spectrum s = make_spectrum({{200.0, 100.0F}, {400.0, 50.0F}});
  s.peaks.push_back({std::numeric_limits<double>::quiet_NaN(), 80.0F});
  EXPECT_FALSE(s.well_formed());
  BinnedSpectrum out;
  EXPECT_FALSE(preprocess(s, tiny_config(), out));
}

TEST(Preprocess, RejectsNonFinitePrecursor) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    const Spectrum s =
        make_spectrum({{200.0, 100.0F}, {300.0, 90.0F}}, bad);
    EXPECT_FALSE(s.well_formed()) << bad;
    BinnedSpectrum out;
    EXPECT_FALSE(preprocess(s, tiny_config(), out)) << bad;
  }
}

TEST(Preprocess, FiniteSpectrumIsWellFormed) {
  const Spectrum s = make_spectrum({{200.0, 100.0F}, {300.0, 0.0F}});
  EXPECT_TRUE(s.well_formed());
}

TEST(Preprocess, OutputIsUnitNorm) {
  const Spectrum s = make_spectrum(
      {{200.0, 900.0F}, {400.0, 400.0F}, {700.0, 100.0F}});
  BinnedSpectrum out;
  ASSERT_TRUE(preprocess(s, tiny_config(), out));
  double norm_sq = 0.0;
  for (const float w : out.weights) norm_sq += static_cast<double>(w) * w;
  EXPECT_NEAR(norm_sq, 1.0, 1e-5);
}

TEST(Preprocess, BinsAreSortedAndInRange) {
  const Spectrum s = make_spectrum(
      {{150.0, 500.0F}, {700.5, 700.0F}, {1499.0, 300.0F}});
  const PreprocessConfig cfg = tiny_config();
  BinnedSpectrum out;
  ASSERT_TRUE(preprocess(s, cfg, out));
  for (std::size_t i = 1; i < out.bins.size(); ++i) {
    EXPECT_LT(out.bins[i - 1], out.bins[i]);
  }
  for (const auto b : out.bins) EXPECT_LT(b, cfg.bin_count());
}

TEST(Preprocess, PeaksInSameBinAreSummed) {
  // Two peaks 0.01 Da apart share a 0.05 Da bin.
  const Spectrum s = make_spectrum(
      {{200.00, 300.0F}, {200.01, 400.0F}, {900.0, 1000.0F}});
  BinnedSpectrum out;
  ASSERT_TRUE(preprocess(s, tiny_config(), out));
  EXPECT_EQ(out.peak_count(), 2U);
}

TEST(Preprocess, CarriesMetadata) {
  Spectrum s = make_spectrum({{200.0, 10.0F}, {300.0, 20.0F}}, 600.0, 2);
  s.id = 42;
  s.peptide = "PEPTIDEK";
  s.is_decoy = true;
  BinnedSpectrum out;
  ASSERT_TRUE(preprocess(s, tiny_config(), out));
  EXPECT_EQ(out.id, 42U);
  EXPECT_EQ(out.peptide, "PEPTIDEK");
  EXPECT_TRUE(out.is_decoy);
  EXPECT_EQ(out.precursor_charge, 2);
  EXPECT_NEAR(out.precursor_mass, mz_to_mass(600.0, 2), 1e-9);
}

TEST(Preprocess, BinOfIsConsistentWithBinCount) {
  const PreprocessConfig cfg;
  EXPECT_EQ(cfg.bin_of(cfg.min_mz), 0U);
  EXPECT_LT(cfg.bin_of(cfg.max_mz - 1e-9), cfg.bin_count());
}

TEST(SparseDot, SelfDotIsOne) {
  const Spectrum s = make_spectrum(
      {{200.0, 500.0F}, {400.0, 300.0F}, {800.0, 100.0F}});
  BinnedSpectrum a;
  ASSERT_TRUE(preprocess(s, tiny_config(), a));
  EXPECT_NEAR(sparse_dot(a, a), 1.0, 1e-5);
}

TEST(SparseDot, DisjointSpectraGiveZero) {
  BinnedSpectrum a;
  BinnedSpectrum b;
  ASSERT_TRUE(preprocess(
      make_spectrum({{200.0, 10.0F}, {300.0, 10.0F}}), tiny_config(), a));
  ASSERT_TRUE(preprocess(
      make_spectrum({{500.0, 10.0F}, {600.0, 10.0F}}), tiny_config(), b));
  EXPECT_EQ(sparse_dot(a, b), 0.0);
}

TEST(ShiftedDot, RecoversShiftedMatch) {
  // Reference at bins X; query peaks all shifted +80 Da (1600 bins).
  const Spectrum ref = make_spectrum(
      {{200.0, 10.0F}, {350.0, 10.0F}, {500.0, 10.0F}});
  const Spectrum qry = make_spectrum(
      {{280.0, 10.0F}, {430.0, 10.0F}, {580.0, 10.0F}});
  BinnedSpectrum r;
  BinnedSpectrum q;
  ASSERT_TRUE(preprocess(ref, tiny_config(), r));
  ASSERT_TRUE(preprocess(qry, tiny_config(), q));
  EXPECT_NEAR(sparse_dot(q, r), 0.0, 1e-9);
  const auto shift = static_cast<std::int64_t>(std::llround(80.0 / 0.05));
  EXPECT_NEAR(shifted_dot(q, r, shift), 1.0, 1e-5);
}

TEST(ShiftedDot, ZeroShiftEqualsPlainDot) {
  const Spectrum s1 = make_spectrum(
      {{200.0, 10.0F}, {350.0, 20.0F}, {500.0, 30.0F}});
  const Spectrum s2 = make_spectrum(
      {{200.0, 10.0F}, {350.0, 20.0F}, {900.0, 30.0F}});
  BinnedSpectrum a;
  BinnedSpectrum b;
  ASSERT_TRUE(preprocess(s1, tiny_config(), a));
  ASSERT_TRUE(preprocess(s2, tiny_config(), b));
  EXPECT_NEAR(shifted_dot(a, b, 0), sparse_dot(a, b), 1e-9);
}

TEST(PreprocessAll, FiltersRejects) {
  PreprocessConfig cfg;
  cfg.min_peaks = 2;
  cfg.remove_precursor = false;
  std::vector<Spectrum> in;
  in.push_back(make_spectrum({{200.0, 10.0F}, {300.0, 20.0F}}));
  in.push_back(make_spectrum({{200.0, 10.0F}}));  // too few peaks
  const auto out = preprocess_all(in, cfg);
  EXPECT_EQ(out.size(), 1U);
}

}  // namespace
}  // namespace oms::ms
