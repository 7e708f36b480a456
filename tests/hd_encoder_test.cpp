#include "hd/encoder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "hd/kernels.hpp"

namespace oms::hd {
namespace {

EncoderConfig small_config(IdPrecision p = IdPrecision::k3Bit) {
  EncoderConfig cfg;
  cfg.dim = 2048;
  cfg.bins = 20000;
  cfg.levels = 16;
  cfg.chunks = 64;
  cfg.id_precision = p;
  cfg.seed = 1234;
  return cfg;
}

/// A deterministic pseudo-random sparse spectrum.
void make_sparse(std::uint64_t seed, std::size_t n_peaks,
                 std::vector<std::uint32_t>& bins, std::vector<float>& weights) {
  util::Xoshiro256 rng(seed);
  bins.clear();
  weights.clear();
  std::uint32_t bin = 0;
  for (std::size_t i = 0; i < n_peaks; ++i) {
    bin += 1 + static_cast<std::uint32_t>(rng.below(20));
    bins.push_back(bin);
    weights.push_back(static_cast<float>(rng.uniform(0.05, 1.0)));
  }
}

TEST(Encoder, RejectsBadDimension) {
  EncoderConfig cfg = small_config();
  cfg.dim = 100;  // not a multiple of 64
  EXPECT_THROW(Encoder{cfg}, std::invalid_argument);
}

TEST(Encoder, EncodeIsDeterministic) {
  Encoder enc_a(small_config());
  Encoder enc_b(small_config());
  std::vector<std::uint32_t> bins;
  std::vector<float> weights;
  make_sparse(1, 40, bins, weights);
  enc_a.id_bank().ensure(bins);
  enc_b.id_bank().ensure(bins);
  EXPECT_EQ(enc_a.encode(bins, weights), enc_b.encode(bins, weights));
}

TEST(Encoder, OutputIsApproximatelyBalanced) {
  Encoder enc(small_config());
  std::vector<std::uint32_t> bins;
  std::vector<float> weights;
  make_sparse(2, 50, bins, weights);
  enc.id_bank().ensure(bins);
  const util::BitVec hv = enc.encode(bins, weights);
  EXPECT_NEAR(static_cast<double>(hv.popcount()) / 2048.0, 0.5, 0.08);
}

TEST(Encoder, DifferentSpectraAreNearOrthogonal) {
  Encoder enc(small_config());
  std::vector<std::uint32_t> bins_a;
  std::vector<float> w_a;
  std::vector<std::uint32_t> bins_b;
  std::vector<float> w_b;
  make_sparse(3, 40, bins_a, w_a);
  make_sparse(4, 40, bins_b, w_b);
  enc.id_bank().ensure(bins_a);
  enc.id_bank().ensure(bins_b);
  const double sim = util::hamming_similarity(enc.encode(bins_a, w_a),
                                              enc.encode(bins_b, w_b));
  EXPECT_NEAR(sim, 0.5, 0.08);
}

TEST(Encoder, SharedPeaksIncreaseSimilarity) {
  Encoder enc(small_config());
  std::vector<std::uint32_t> bins;
  std::vector<float> weights;
  make_sparse(5, 40, bins, weights);
  // Variant: same peaks with ~25% of bins replaced.
  std::vector<std::uint32_t> bins2 = bins;
  std::vector<float> weights2 = weights;
  for (std::size_t i = 0; i < bins2.size(); i += 4) bins2[i] += 1000;
  enc.id_bank().ensure(bins);
  enc.id_bank().ensure(bins2);
  const double sim_related = util::hamming_similarity(
      enc.encode(bins, weights), enc.encode(bins2, weights2));

  std::vector<std::uint32_t> bins3;
  std::vector<float> weights3;
  make_sparse(6, 40, bins3, weights3);
  enc.id_bank().ensure(bins3);
  const double sim_unrelated = util::hamming_similarity(
      enc.encode(bins, weights), enc.encode(bins3, weights3));

  EXPECT_GT(sim_related, sim_unrelated + 0.1);
}

TEST(Encoder, SimilarityDecreasesWithPerturbation) {
  Encoder enc(small_config());
  std::vector<std::uint32_t> bins;
  std::vector<float> weights;
  make_sparse(7, 48, bins, weights);
  enc.id_bank().ensure(bins);
  const util::BitVec base = enc.encode(bins, weights);

  double prev_sim = 1.0;
  for (const std::size_t n_replaced : {6U, 16U, 32U}) {
    std::vector<std::uint32_t> mutated = bins;
    for (std::size_t i = 0; i < n_replaced; ++i) mutated[i] += 5000;
    enc.id_bank().ensure(mutated);
    const double sim =
        util::hamming_similarity(base, enc.encode(mutated, weights));
    EXPECT_LT(sim, prev_sim + 1e-9);
    prev_sim = sim;
  }
}

TEST(Encoder, IntensityChangesMatterLessThanPositionChanges) {
  Encoder enc(small_config());
  std::vector<std::uint32_t> bins;
  std::vector<float> weights;
  make_sparse(8, 40, bins, weights);
  enc.id_bank().ensure(bins);
  const util::BitVec base = enc.encode(bins, weights);

  // Small intensity perturbation: neighbor levels stay similar.
  std::vector<float> jittered = weights;
  for (auto& w : jittered) w *= 1.1F;
  const double sim_intensity =
      util::hamming_similarity(base, enc.encode(bins, jittered));

  // Position change of the same scale.
  std::vector<std::uint32_t> moved = bins;
  for (std::size_t i = 0; i < moved.size(); i += 2) moved[i] += 3000;
  enc.id_bank().ensure(moved);
  const double sim_position =
      util::hamming_similarity(base, enc.encode(moved, weights));

  EXPECT_GT(sim_intensity, sim_position);
  EXPECT_GT(sim_intensity, 0.9);
}

TEST(Encoder, BatchMatchesSingleEncodes) {
  Encoder enc(small_config());
  std::vector<std::vector<std::uint32_t>> bin_lists(5);
  std::vector<std::vector<float>> weight_lists(5);
  for (std::size_t i = 0; i < 5; ++i) {
    make_sparse(100 + i, 30 + i, bin_lists[i], weight_lists[i]);
  }
  const auto batch = enc.encode_batch(bin_lists, weight_lists);
  ASSERT_EQ(batch.size(), 5U);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(batch[i], enc.encode(bin_lists[i], weight_lists[i])) << i;
  }
}

TEST(Encoder, AccumulateMatchesManualComputation) {
  EncoderConfig cfg = small_config(IdPrecision::k1Bit);
  cfg.dim = 256;
  cfg.chunks = 8;
  Encoder enc(cfg);
  const std::vector<std::uint32_t> bins = {10, 20};
  const std::vector<float> weights = {1.0F, 0.5F};
  enc.id_bank().ensure(bins);

  std::vector<std::int32_t> acc(cfg.dim, 0);
  enc.accumulate(bins, weights, acc);

  const auto levels = enc.quantize_levels(weights);
  std::vector<std::vector<std::int8_t>> rows(bins.size(),
                                             std::vector<std::int8_t>(cfg.dim));
  for (std::size_t p = 0; p < bins.size(); ++p) {
    enc.id_bank().generate_row(bins[p], rows[p]);
  }
  for (std::size_t d = 0; d < cfg.dim; ++d) {
    std::int32_t expected = 0;
    for (std::size_t p = 0; p < bins.size(); ++p) {
      const int id = rows[p][d];
      const int lv = enc.level_bank().chunk_sign(
          levels[p], static_cast<std::uint32_t>(d) / enc.level_bank().chunk_width());
      expected += id * lv;
    }
    ASSERT_EQ(acc[d], expected) << "dim " << d;
  }
}

TEST(Encoder, EmptySpectrumPinsParityTieBreak) {
  // No peaks: every sum is zero, so exactly the odd components are set.
  Encoder enc(small_config());
  const util::BitVec hv = enc.encode({}, {});
  for (std::size_t d = 0; d < hv.size(); ++d) {
    ASSERT_EQ(hv.get(d), (d & 1) != 0) << "dim " << d;
  }
}

TEST(Encoder, QuantizeLevelsRelativeToMax) {
  Encoder enc(small_config());
  const std::vector<float> weights = {0.2F, 0.4F, 0.8F};
  const auto levels = enc.quantize_levels(weights);
  ASSERT_EQ(levels.size(), 3U);
  EXPECT_EQ(levels[2], enc.config().levels - 1);  // max weight → top level
  EXPECT_LT(levels[0], levels[1]);
  EXPECT_LT(levels[1], levels[2]);
}

TEST(Encoder, EmptySpectrumGivesDeterministicVector) {
  Encoder enc(small_config());
  const util::BitVec hv = enc.encode({}, {});
  EXPECT_EQ(hv.size(), enc.config().dim);
}

// --- Cross-tier identity ---------------------------------------------------
//
// Every kernel tier this CPU runs must reproduce, through encode(),
// encode_batch() and accumulate(), a plain int32 evaluation of Eq. 1
// written here — across ID precisions, chunked and unchunked levels,
// column-block tails, int8-run and int16-capacity boundaries.

using kernels::Tier;

std::vector<Tier> runnable_tiers() {
  std::vector<Tier> tiers;
  for (int t = 0; t <= static_cast<int>(kernels::best_supported()); ++t) {
    tiers.push_back(static_cast<Tier>(t));
  }
  return tiers;
}

/// Restores the ambient dispatch tier on scope exit.
class TierGuard {
 public:
  TierGuard() : saved_(kernels::active_tier()) {}
  ~TierGuard() { kernels::set_active_tier(saved_); }

 private:
  Tier saved_;
};

std::vector<std::int32_t> reference_sums(const Encoder& enc,
                                         const std::vector<std::uint32_t>& bins,
                                         const std::vector<float>& weights) {
  const std::uint32_t dim = enc.config().dim;
  const std::uint32_t width = enc.level_bank().chunk_width();
  const auto levels = enc.quantize_levels(weights);
  std::vector<std::int32_t> sums(dim, 0);
  std::vector<std::int8_t> id(dim);
  for (std::size_t p = 0; p < bins.size(); ++p) {
    enc.id_bank().generate_row(bins[p], id);
    for (std::uint32_t d = 0; d < dim; ++d) {
      sums[d] += id[d] * enc.level_bank().chunk_sign(levels[p], d / width);
    }
  }
  return sums;
}

util::BitVec reference_bits(const std::vector<std::int32_t>& sums) {
  util::BitVec hv(sums.size());
  for (std::size_t d = 0; d < sums.size(); ++d) {
    hv.set(d, sums[d] > 0 || (sums[d] == 0 && (d & 1) != 0));
  }
  return hv;
}

TEST(Encoder, ColdEncodeEqualsWarmedEncode) {
  // A seed no other test in this binary uses, so the process-wide rows of
  // this key are unpublished when the first encoder touches them.
  EncoderConfig cfg = small_config();
  cfg.seed = 0xC01DBA4CULL;
  std::vector<std::uint32_t> bins;
  std::vector<float> weights;
  make_sparse(91, 45, bins, weights);

  const Encoder cold(cfg);
  const util::BitVec cold_hv = cold.encode(bins, weights);
  std::vector<std::int32_t> cold_acc(cfg.dim, 0);
  Encoder(cfg).accumulate(bins, weights, cold_acc);

  const Encoder warm(cfg);
  warm.id_bank().ensure(bins);
  const std::vector<std::int32_t> want = reference_sums(warm, bins, weights);
  EXPECT_EQ(cold_hv, reference_bits(want));
  EXPECT_EQ(cold_acc, want);
  EXPECT_EQ(warm.encode(bins, weights), cold_hv);
  const std::vector<std::vector<std::uint32_t>> bin_lists = {bins};
  const std::vector<std::vector<float>> weight_lists = {weights};
  EXPECT_EQ(warm.encode_batch(bin_lists, weight_lists).front(), cold_hv);
}

TEST(Encoder, OutOfRangeBinThrowsNamingBinAndBound) {
  const EncoderConfig cfg = small_config();  // bins = 20000
  const Encoder enc(cfg);
  const std::vector<std::uint32_t> bins = {5, 20000};
  const std::vector<float> weights = {1.0F, 0.5F};
  const auto expect_named = [](const auto& call) {
    try {
      call();
      ADD_FAILURE() << "bin 20000 of a 20000-bin encoder did not throw";
    } catch (const std::out_of_range& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("bin 20000"), std::string::npos) << what;
      EXPECT_NE(what.find("bins = 20000"), std::string::npos) << what;
    }
  };
  expect_named([&] { (void)enc.encode(bins, weights); });
  std::vector<std::int32_t> acc(cfg.dim, 0);
  expect_named([&] { enc.accumulate(bins, weights, acc); });
  const std::vector<std::vector<std::uint32_t>> bin_lists = {{1, 2}, bins};
  const std::vector<std::vector<float>> weight_lists = {{1.0F, 1.0F}, weights};
  expect_named([&] { (void)enc.encode_batch(bin_lists, weight_lists); });
}

struct TierCase {
  IdPrecision precision;
  std::uint32_t dim;
  bool chunked;  ///< chunks = dim/32 (width 32) vs chunks = dim (width 1)
};

class EncoderCrossTier : public ::testing::TestWithParam<TierCase> {};

TEST_P(EncoderCrossTier, EveryTierMatchesScalarReference) {
  const TierCase tc = GetParam();
  EncoderConfig cfg = small_config(tc.precision);
  cfg.dim = tc.dim;
  cfg.chunks = tc.chunked ? tc.dim / 32 : tc.dim;
  Encoder enc(cfg);

  std::vector<std::vector<std::uint32_t>> bin_lists;
  std::vector<std::vector<float>> weight_lists;
  std::vector<std::uint32_t> bins;
  std::vector<float> weights;
  for (const std::size_t n : {0U, 1U, 18U, 19U, 50U}) {
    make_sparse(1000 + n, n, bins, weights);
    bin_lists.push_back(bins);
    weight_lists.push_back(weights);
  }
  // One bin repeated at one level: every peak adds the same ±ID value, so
  // |sum| reaches n · max_magnitude — 18 and 19 straddle the 3-bit int8
  // run, 5000 exceeds 3-bit int16 capacity (4681 peaks).
  for (const std::size_t n : {18U, 19U, 5000U}) {
    bin_lists.emplace_back(n, 777U);
    weight_lists.emplace_back(n, 0.5F);
  }
  // Same bin at the lowest and highest level: the two peaks cancel on the
  // chunks (about half, if any) where those levels' signs differ, so exact
  // zeros sit amid nonzero sums.
  bin_lists.push_back({4242U, 4242U});
  weight_lists.push_back({1.0F, 0.001F});
  for (const auto& b : bin_lists) enc.id_bank().ensure(b);

  std::vector<std::vector<std::int32_t>> want_sums;
  std::vector<util::BitVec> want_bits;
  for (std::size_t i = 0; i < bin_lists.size(); ++i) {
    want_sums.push_back(reference_sums(enc, bin_lists[i], weight_lists[i]));
    want_bits.push_back(reference_bits(want_sums.back()));
  }
  if (enc.level_bank().level_distance(0, cfg.levels - 1) > 0) {
    const auto& cancel = want_sums.back();
    ASSERT_NE(std::count(cancel.begin(), cancel.end(), 0), 0);
  }

  TierGuard guard;
  for (const Tier tier : runnable_tiers()) {
    ASSERT_EQ(kernels::set_active_tier(tier), tier);
    const auto batch = enc.encode_batch(bin_lists, weight_lists);
    for (std::size_t i = 0; i < bin_lists.size(); ++i) {
      SCOPED_TRACE(::testing::Message()
                   << kernels::tier_name(tier) << " spectrum " << i
                   << " peaks " << bin_lists[i].size());
      EXPECT_EQ(enc.encode(bin_lists[i], weight_lists[i]), want_bits[i]);
      EXPECT_EQ(batch[i], want_bits[i]);
      // accumulate() adds into the caller's buffer.
      std::vector<std::int32_t> acc(cfg.dim, 3);
      enc.accumulate(bin_lists[i], weight_lists[i], acc);
      for (std::uint32_t d = 0; d < cfg.dim; ++d) {
        ASSERT_EQ(acc[d], want_sums[i][d] + 3) << "dim " << d;
      }
    }
  }
}

std::vector<TierCase> tier_cases() {
  std::vector<TierCase> cases;
  for (const IdPrecision p :
       {IdPrecision::k1Bit, IdPrecision::k2Bit, IdPrecision::k3Bit}) {
    for (const std::uint32_t dim : {64U, 192U, 8256U}) {
      for (const bool chunked : {false, true}) {
        cases.push_back({p, dim, chunked});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    PrecisionDimChunking, EncoderCrossTier, ::testing::ValuesIn(tier_cases()),
    [](const ::testing::TestParamInfo<TierCase>& info) {
      return "bits" + std::to_string(static_cast<int>(info.param.precision)) +
             "_dim" + std::to_string(info.param.dim) +
             (info.param.chunked ? "_chunked" : "_unchunked");
    });

class EncoderPrecisionSweep : public ::testing::TestWithParam<IdPrecision> {};

TEST_P(EncoderPrecisionSweep, AllPrecisionsProduceValidEncodings) {
  Encoder enc(small_config(GetParam()));
  std::vector<std::uint32_t> bins;
  std::vector<float> weights;
  make_sparse(55, 45, bins, weights);
  enc.id_bank().ensure(bins);
  const util::BitVec hv = enc.encode(bins, weights);
  EXPECT_EQ(hv.size(), 2048U);
  EXPECT_NEAR(static_cast<double>(hv.popcount()) / 2048.0, 0.5, 0.1);
}

INSTANTIATE_TEST_SUITE_P(Precisions, EncoderPrecisionSweep,
                         ::testing::Values(IdPrecision::k1Bit,
                                           IdPrecision::k2Bit,
                                           IdPrecision::k3Bit));

}  // namespace
}  // namespace oms::hd
