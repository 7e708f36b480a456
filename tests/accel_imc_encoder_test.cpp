#include "accel/imc_encoder.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace oms::accel {
namespace {

hd::EncoderConfig encoder_config(hd::IdPrecision p = hd::IdPrecision::k3Bit) {
  hd::EncoderConfig cfg;
  cfg.dim = 1024;
  cfg.bins = 2000;
  cfg.levels = 16;
  cfg.chunks = 64;
  cfg.id_precision = p;
  cfg.seed = 77;
  return cfg;
}

void make_sparse(std::uint64_t seed, std::size_t n_peaks,
                 std::vector<std::uint32_t>& bins,
                 std::vector<float>& weights) {
  util::Xoshiro256 rng(seed);
  bins.clear();
  weights.clear();
  std::uint32_t bin = 0;
  for (std::size_t i = 0; i < n_peaks; ++i) {
    bin += 1 + static_cast<std::uint32_t>(rng.below(30));
    bins.push_back(bin);
    weights.push_back(static_cast<float>(rng.uniform(0.05, 1.0)));
  }
}

ImcEncoderConfig imc_config(Fidelity f) {
  ImcEncoderConfig cfg;
  cfg.fidelity = f;
  cfg.calibration_samples = 512;
  return cfg;
}

TEST(ImcEncoder, IdealFidelityMatchesDigitalEncoder) {
  hd::Encoder enc(encoder_config());
  ImcEncoder imc(enc, imc_config(Fidelity::kIdeal));
  std::vector<std::uint32_t> bins;
  std::vector<float> weights;
  make_sparse(1, 40, bins, weights);
  enc.id_bank().ensure(bins);
  EXPECT_EQ(imc.encode(bins, weights), enc.encode(bins, weights));
}

TEST(ImcEncoder, StatisticalOutputIsCloseButNotIdentical) {
  hd::Encoder enc(encoder_config());
  ImcEncoder imc(enc, imc_config(Fidelity::kStatistical));
  std::vector<std::uint32_t> bins;
  std::vector<float> weights;
  make_sparse(2, 48, bins, weights);
  enc.id_bank().ensure(bins);
  const util::BitVec ideal = enc.encode(bins, weights);
  const util::BitVec noisy = imc.encode(bins, weights);
  const double mismatch =
      static_cast<double>(util::hamming_distance(ideal, noisy)) / 1024.0;
  EXPECT_GT(mismatch, 0.0);
  EXPECT_LT(mismatch, 0.45);
}

TEST(ImcEncoder, EncodingBerOrderedByPrecision) {
  // Fig. 9a: more bits per cell → higher encoding bit error rate. Odd peak
  // counts keep the accumulator away from exact zeros, whose coin-flip
  // behaviour under analog noise would otherwise mask the device ordering.
  std::vector<std::vector<std::uint32_t>> bin_lists(12);
  std::vector<std::vector<float>> weight_lists(12);
  for (std::size_t i = 0; i < bin_lists.size(); ++i) {
    make_sparse(100 + i, 49, bin_lists[i], weight_lists[i]);
  }
  double prev = -1.0;
  for (const auto p : {hd::IdPrecision::k1Bit, hd::IdPrecision::k2Bit,
                       hd::IdPrecision::k3Bit}) {
    hd::Encoder enc(encoder_config(p));
    for (const auto& bl : bin_lists) enc.id_bank().ensure(bl);
    ImcEncoder imc(enc, imc_config(Fidelity::kStatistical));
    const double ber = imc.encoding_bit_error_rate(bin_lists, weight_lists);
    EXPECT_GT(ber, prev) << static_cast<int>(p) << "-bit";
    prev = ber;
  }
}

TEST(ImcEncoder, KeyedEncodeDeterministicAfterPrecalibrate) {
  hd::Encoder enc(encoder_config());
  ImcEncoder imc(enc, imc_config(Fidelity::kStatistical));
  std::vector<std::vector<std::uint32_t>> bin_lists(1);
  std::vector<std::vector<float>> weight_lists(1);
  make_sparse(3, 32, bin_lists[0], weight_lists[0]);
  enc.id_bank().ensure(bin_lists[0]);
  imc.precalibrate(bin_lists);

  const util::BitVec a = imc.encode_keyed(bin_lists[0], weight_lists[0], 5);
  const util::BitVec b = imc.encode_keyed(bin_lists[0], weight_lists[0], 5);
  EXPECT_EQ(a, b);
  const util::BitVec c = imc.encode_keyed(bin_lists[0], weight_lists[0], 6);
  EXPECT_NE(a, c);
}

/// encode_keyed without pruning: every component draws its noise.
util::BitVec unpruned_encode_keyed(const hd::Encoder& enc,
                                   const ImcEncoder& imc,
                                   std::span<const std::uint32_t> bins,
                                   std::span<const float> weights,
                                   std::uint64_t stream,
                                   std::size_t& zero_sums) {
  const std::size_t dim = enc.config().dim;
  std::vector<std::int32_t> acc(dim, 0);
  enc.accumulate(bins, weights, acc);
  const double sigma = imc.keyed_noise_sigma(bins.size());
  const std::uint64_t key =
      util::hash_combine(imc.config().seed, stream, 0xE2C0ULL);
  util::BitVec hv(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    if (acc[d] == 0) ++zero_sums;
    if (static_cast<double>(acc[d]) + sigma * util::counter_normal(key, d) >
        0.0) {
      hv.set(d, true);
    }
  }
  return hv;
}

TEST(ImcEncoder, KeyedEncodeEqualsUnprunedReference) {
  std::size_t zero_sums = 0;
  for (const hd::IdPrecision p :
       {hd::IdPrecision::k1Bit, hd::IdPrecision::k2Bit,
        hd::IdPrecision::k3Bit}) {
    for (const std::uint32_t dim : {64U, 8256U}) {
      hd::EncoderConfig ecfg = encoder_config(p);
      ecfg.dim = dim;
      ecfg.chunks = dim / 64;
      hd::Encoder enc(ecfg);
      ImcEncoder imc(enc, imc_config(Fidelity::kStatistical));
      for (const std::size_t peaks : {1U, 18U, 50U}) {
        std::vector<std::vector<std::uint32_t>> bins(1);
        std::vector<std::vector<float>> weights(1);
        make_sparse(peaks * 31 + dim, peaks, bins[0], weights[0]);
        enc.id_bank().ensure(bins[0]);
        imc.precalibrate(bins);
        for (std::uint64_t stream = 0; stream < 4; ++stream) {
          EXPECT_EQ(imc.encode_keyed(bins[0], weights[0], stream),
                    unpruned_encode_keyed(enc, imc, bins[0], weights[0],
                                          stream, zero_sums))
              << "bits " << static_cast<int>(p) << " dim " << dim
              << " peaks " << peaks << " stream " << stream;
        }
      }
    }
  }
  // Tied sums always draw; make sure the comparison covered some.
  EXPECT_GT(zero_sums, 0U);
}

TEST(ImcEncoder, KeyedEncodeWithoutCalibrationThrows) {
  hd::Encoder enc(encoder_config());
  ImcEncoder imc(enc, imc_config(Fidelity::kStatistical));
  std::vector<std::uint32_t> bins;
  std::vector<float> weights;
  make_sparse(4, 20, bins, weights);
  enc.id_bank().ensure(bins);
  EXPECT_THROW((void)imc.encode_keyed(bins, weights, 1), std::logic_error);
}

TEST(ImcEncoder, CircuitModeProducesMostlyCorrectBits) {
  hd::EncoderConfig ecfg = encoder_config(hd::IdPrecision::k3Bit);
  ecfg.dim = 256;
  ecfg.chunks = 16;
  hd::Encoder enc(ecfg);
  ImcEncoderConfig icfg = imc_config(Fidelity::kCircuit);
  icfg.array.rows = 128;
  icfg.array.cols = 64;
  ImcEncoder imc(enc, icfg);

  std::vector<std::uint32_t> bins;
  std::vector<float> weights;
  make_sparse(5, 40, bins, weights);
  enc.id_bank().ensure(bins);
  const util::BitVec ideal = enc.encode(bins, weights);
  const util::BitVec circuit = imc.encode(bins, weights);
  const double ber =
      static_cast<double>(util::hamming_distance(ideal, circuit)) / 256.0;
  EXPECT_LT(ber, 0.45);  // noisy but correlated with the ideal encoding
}

TEST(ImcEncoder, CircuitModeRejectsTooManyPeaks) {
  hd::EncoderConfig ecfg = encoder_config();
  ecfg.dim = 256;
  ecfg.chunks = 16;
  hd::Encoder enc(ecfg);
  ImcEncoderConfig icfg = imc_config(Fidelity::kCircuit);
  icfg.array.rows = 16;  // only 8 pairs
  ImcEncoder imc(enc, icfg);
  std::vector<std::uint32_t> bins;
  std::vector<float> weights;
  make_sparse(6, 20, bins, weights);
  enc.id_bank().ensure(bins);
  EXPECT_THROW((void)imc.encode(bins, weights), std::invalid_argument);
}

TEST(ImcEncoder, PrecalibrateRejectsMorePeaksThanPairRows) {
  // One peak activates one differential pair row; a spectrum with more
  // peaks than the array's pair rows must fail naming its peak count,
  // not deep inside the crossbar model.
  hd::Encoder enc(encoder_config());
  ImcEncoder imc(enc, imc_config(Fidelity::kStatistical));  // 128 pairs
  const std::vector<std::size_t> too_many = {40, 129};
  try {
    imc.precalibrate(too_many);
    ADD_FAILURE() << "129 peaks accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("129 peaks"), std::string::npos)
        << e.what();
  }
  const std::vector<std::size_t> full = {128};
  EXPECT_NO_THROW(imc.precalibrate(full));
}

TEST(ImcEncoder, BucketPastThePairRowsCalibratesAtThePairRows) {
  // 125 pairs: 121 peaks round up to the 128 bucket, which the array
  // cannot activate; it calibrates at all 125 pairs instead, the bucket
  // 125 peaks land in too.
  hd::Encoder enc(encoder_config());
  ImcEncoderConfig icfg = imc_config(Fidelity::kStatistical);
  icfg.array.rows = 250;
  ImcEncoder imc(enc, icfg);
  const std::vector<std::size_t> peaks = {121, 125};
  ASSERT_NO_THROW(imc.precalibrate(peaks));
  const MvmErrorStats stats = calibrate_mvm_error(
      icfg.array, 125, static_cast<int>(enc.config().id_precision),
      icfg.calibration_samples, icfg.seed);
  const double per_peak = imc.keyed_noise_sigma(125) / std::sqrt(125.0);
  EXPECT_DOUBLE_EQ(imc.keyed_noise_sigma(121) / std::sqrt(121.0), per_peak);
  EXPECT_DOUBLE_EQ(per_peak, stats.sigma_normalized * std::sqrt(21.0));
}

TEST(ImcEncoder, EmptySpectrumEncodesToZeroVector) {
  hd::Encoder enc(encoder_config());
  ImcEncoder imc(enc, imc_config(Fidelity::kStatistical));
  const util::BitVec hv = imc.encode({}, {});
  EXPECT_EQ(hv.size(), enc.config().dim);
  EXPECT_EQ(hv.popcount(), 0U);
}

}  // namespace
}  // namespace oms::accel
