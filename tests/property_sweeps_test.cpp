// Parameterized property sweeps across module boundaries: invariants that
// must hold for *every* setting of a configuration axis, not just the
// defaults the other suites exercise.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <tuple>
#include <vector>

#include "accel/error_model.hpp"
#include "accel/imc_search.hpp"
#include "core/pipeline.hpp"
#include "hd/encoder.hpp"
#include "hd/kernels.hpp"
#include "hd/search.hpp"
#include "ms/synthetic.hpp"
#include "util/bitvec.hpp"
#include "util/stats.hpp"

namespace oms {
namespace {

// ---------- FDR threshold monotonicity ----------

class FdrThresholdSweep : public ::testing::TestWithParam<double> {
 protected:
  static std::vector<core::Psm> psms() {
    std::vector<core::Psm> out;
    util::Xoshiro256 rng(404);
    for (std::uint32_t i = 0; i < 400; ++i) {
      core::Psm p;
      p.query_id = i;
      p.peptide = "P" + std::to_string(i);
      p.is_decoy = rng.bernoulli(0.3);
      // Decoys score systematically lower.
      p.score = rng.uniform() * (p.is_decoy ? 0.6 : 1.0);
      out.push_back(std::move(p));
    }
    return out;
  }
};

TEST_P(FdrThresholdSweep, AcceptedSetGrowsWithThreshold) {
  const double threshold = GetParam();
  const auto all = psms();
  const auto at_threshold = core::filter_at_fdr(all, threshold);
  const auto at_tighter = core::filter_at_fdr(all, threshold / 2.0);
  EXPECT_GE(at_threshold.size(), at_tighter.size());
  for (const auto& p : at_threshold) EXPECT_FALSE(p.is_decoy);
  // Empirical FDR among accepted targets should respect the threshold
  // loosely (target-decoy is an estimate, allow 2x + small-sample slack).
  const auto q = core::compute_q_values(all);
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!all[i].is_decoy && q[i] <= threshold) {
      EXPECT_LE(q[i], threshold + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, FdrThresholdSweep,
                         ::testing::Values(0.01, 0.05, 0.10, 0.25));

// ---------- Search window monotonicity ----------

class WindowSweep : public ::testing::TestWithParam<double> {
 protected:
  static const ms::Workload& workload() {
    static const ms::Workload wl = [] {
      ms::WorkloadConfig cfg;
      cfg.reference_count = 250;
      cfg.query_count = 80;
      cfg.seed = 505;
      return ms::generate_workload(cfg);
    }();
    return wl;
  }
};

TEST_P(WindowSweep, PsmCountGrowsWithWindowAndStaysBounded) {
  const double window = GetParam();
  core::PipelineConfig cfg;
  cfg.encoder.dim = 1024;
  cfg.encoder.bins = cfg.preprocess.bin_count();
  cfg.encoder.chunks = 64;
  cfg.oms_window_da = window;
  core::Pipeline pipeline(cfg);
  pipeline.set_library(workload().references);
  const auto result = pipeline.run(workload().queries);
  // Every searched query with any candidate yields exactly one PSM.
  EXPECT_LE(result.psms.size(), result.queries_searched);
  // Wider window can only widen candidate sets: compare with half-window.
  core::PipelineConfig narrow_cfg = cfg;
  narrow_cfg.oms_window_da = window / 4.0;
  core::Pipeline narrow(narrow_cfg);
  narrow.set_library(workload().references);
  EXPECT_GE(result.psms.size(), narrow.run(workload().queries).psms.size());
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweep,
                         ::testing::Values(1.0, 50.0, 250.0, 500.0));

// ---------- Encoder dimension properties ----------

class DimSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DimSweep, MatchedPairsBeatRandomPairsAtEveryDim) {
  const std::uint32_t dim = GetParam();
  hd::EncoderConfig cfg;
  cfg.dim = dim;
  cfg.bins = 20000;
  cfg.chunks = dim / 16;
  hd::Encoder enc(cfg);

  util::Xoshiro256 rng(606);
  std::vector<std::uint32_t> bins;
  std::vector<float> weights;
  std::uint32_t bin = 0;
  for (int i = 0; i < 40; ++i) {
    bin += 1 + static_cast<std::uint32_t>(rng.below(50));
    bins.push_back(bin);
    weights.push_back(static_cast<float>(rng.uniform(0.05, 1.0)));
  }
  // "Matched": 70% of the peaks shared.
  std::vector<std::uint32_t> matched = bins;
  for (std::size_t i = 0; i < matched.size(); i += 3) matched[i] += 7000;
  std::vector<std::uint32_t> random_bins;
  std::vector<float> random_weights;
  bin = 10000;
  for (int i = 0; i < 40; ++i) {
    bin += 1 + static_cast<std::uint32_t>(rng.below(50));
    random_bins.push_back(bin);
    random_weights.push_back(static_cast<float>(rng.uniform(0.05, 1.0)));
  }
  enc.id_bank().ensure(bins);
  enc.id_bank().ensure(matched);
  enc.id_bank().ensure(random_bins);

  const auto base = enc.encode(bins, weights);
  const double sim_matched =
      util::hamming_similarity(base, enc.encode(matched, weights));
  const double sim_random = util::hamming_similarity(
      base, enc.encode(random_bins, random_weights));
  EXPECT_GT(sim_matched, sim_random + 0.05) << "dim " << dim;
}

INSTANTIATE_TEST_SUITE_P(Dims, DimSweep,
                         ::testing::Values(256U, 1024U, 4096U, 8192U));

// ---------- Piecewise reference-view sweeps ----------

// For every (dimension, fragment-count) setting — dimensions deliberately
// NOT multiples of 64, so every row ends in a partial word — a randomized
// piecewise layout (rows dealt in random-length runs across disjoint word
// blocks, mimicking a segmented library's interleaved merge order) must
// search bit-identically through every entry point: the batched and
// per-query RefView kernels, a one-extent view over a monolithic
// contiguous copy, and the per-BitVec span oracle.
class PiecewiseLayoutSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::size_t>> {
};

TEST_P(PiecewiseLayoutSweep, FragmentedViewMatchesFallbackAndMonolith) {
  const std::uint32_t dim = std::get<0>(GetParam());
  const std::size_t frags = std::get<1>(GetParam());
  constexpr std::size_t kRefs = 230;
  constexpr std::size_t kQueries = 24;
  constexpr std::size_t kTopK = 5;
  const std::size_t wc = (dim + 63) / 64;
  util::Xoshiro256 rng(707 + dim + static_cast<std::uint64_t>(frags));

  // Deal the rows in random-length runs round-robin over `frags` blocks:
  // each run is one contiguous extent candidate. Sizes first (the blocks
  // must never reallocate once views point into them), then the fill.
  struct Run {
    std::size_t block;
    std::size_t rows;
  };
  std::vector<Run> runs;
  for (std::size_t assigned = 0; assigned < kRefs;) {
    const std::size_t len = std::min(kRefs - assigned, 1 + rng.below(9));
    runs.push_back({rng.below(frags), len});
    assigned += len;
  }
  std::vector<std::size_t> block_rows(frags, 0);
  for (const Run& r : runs) block_rows[r.block] += r.rows;
  std::vector<std::vector<std::uint64_t>> blocks(frags);
  for (std::size_t b = 0; b < frags; ++b) blocks[b].assign(block_rows[b] * wc, 0);

  std::vector<util::BitVec> owned;  // Content owners, global order.
  std::vector<util::BitVec> views;  // Zero-copy views into the blocks.
  owned.reserve(kRefs);
  views.reserve(kRefs);
  std::vector<std::size_t> heads(frags, 0);
  std::size_t global = 0;
  for (const Run& r : runs) {
    for (std::size_t j = 0; j < r.rows; ++j, ++global) {
      util::BitVec v(dim);
      v.randomize(900 + global);
      std::uint64_t* dst = blocks[r.block].data() + heads[r.block]++ * wc;
      std::memcpy(dst, v.words().data(), wc * sizeof(std::uint64_t));
      views.push_back(util::BitVec::view(dst, dim));
      owned.push_back(std::move(v));
    }
  }

  const hd::RefView view = hd::RefView::from_span(views);
  ASSERT_TRUE(view.valid());
  EXPECT_EQ(view.count(), kRefs);
  EXPECT_EQ(view.dim(), dim);
  std::size_t next = 0;  // Extents partition [0, kRefs) in order.
  for (const hd::RefExtent& e : view.extents()) {
    ASSERT_EQ(e.base, next);
    next = e.base + e.rows;
  }
  ASSERT_EQ(next, kRefs);

  // Monolithic contiguous copy of the same bytes, global order.
  std::vector<std::uint64_t> flat(kRefs * wc);
  for (std::size_t i = 0; i < kRefs; ++i) {
    std::memcpy(flat.data() + i * wc, views[i].words().data(),
                wc * sizeof(std::uint64_t));
  }
  std::vector<util::BitVec> flat_views;
  for (std::size_t i = 0; i < kRefs; ++i) {
    flat_views.push_back(util::BitVec::view(flat.data() + i * wc, dim));
  }
  const hd::RefView mono = hd::RefView::from_span(flat_views);
  ASSERT_TRUE(mono.contiguous());

  std::vector<util::BitVec> queries(kQueries);
  std::vector<hd::BatchQuery> batch;
  for (std::size_t q = 0; q < kQueries; ++q) {
    queries[q] = util::BitVec(dim);
    queries[q].randomize(4000 + q);
    const std::size_t first = (q * 17) % (kRefs / 2);
    const std::size_t last = kRefs - (q * 11) % (kRefs / 3);
    batch.push_back({&queries[q], first, last, q});
  }

  const auto piecewise = hd::top_k_search_batch(batch, view, kTopK);
  const auto contiguous = hd::top_k_search_batch(batch, mono, kTopK);
  for (std::size_t q = 0; q < kQueries; ++q) {
    EXPECT_EQ(piecewise[q], contiguous[q]) << "query " << q;
    EXPECT_EQ(piecewise[q],
              hd::top_k_search(queries[q], view, batch[q].first,
                               batch[q].last, kTopK))
        << "query " << q;
    EXPECT_EQ(piecewise[q],
              hd::top_k_search(queries[q], views, batch[q].first,
                               batch[q].last, kTopK))
        << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, PiecewiseLayoutSweep,
    ::testing::Combine(::testing::Values(544U, 2080U),
                       ::testing::Values(std::size_t{1}, std::size_t{3},
                                         std::size_t{6})));

// ---------- ADC resolution sweep ----------

class AdcSweep : public ::testing::TestWithParam<int> {};

TEST_P(AdcSweep, CoarserAdcNeverReducesMvmError) {
  const int bits = GetParam();
  rram::ArrayConfig coarse;
  coarse.adc_bits = bits;
  rram::ArrayConfig fine;
  fine.adc_bits = bits + 4;
  const auto e_coarse = accel::calibrate_mvm_error(coarse, 64, 3, 2048, 9);
  const auto e_fine = accel::calibrate_mvm_error(fine, 64, 3, 2048, 9);
  EXPECT_GE(e_coarse.rmse_normalized + 0.005, e_fine.rmse_normalized)
      << bits << "-bit ADC";
}

INSTANTIATE_TEST_SUITE_P(AdcBits, AdcSweep, ::testing::Values(4, 6, 8));

// ---------- Statistical vs circuit fidelity cross-validation ----------

TEST(FidelityCrossCheck, StatisticalNoiseMagnitudeTracksCircuit) {
  // The statistical engine's phase sigma is calibrated from the circuit
  // model; verify the full-dot error magnitude it produces matches a
  // direct circuit simulation within a factor ~2 on a small problem.
  const std::size_t dim = 256;
  std::vector<util::BitVec> refs(24);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    refs[i] = util::BitVec(dim);
    refs[i].randomize(i + 70);
  }
  util::BitVec query(dim);
  query.randomize(999);

  accel::ImcSearchConfig circuit_cfg;
  circuit_cfg.fidelity = accel::Fidelity::kCircuit;
  circuit_cfg.array.rows = 128;
  circuit_cfg.array.cols = 32;
  circuit_cfg.activated_pairs = 64;
  accel::ImcSearchEngine circuit(refs, circuit_cfg);

  accel::ImcSearchConfig stat_cfg = circuit_cfg;
  stat_cfg.fidelity = accel::Fidelity::kStatistical;
  stat_cfg.calibration_samples = 4096;
  accel::ImcSearchEngine statistical(refs, stat_cfg);

  util::RunningStats circuit_err;
  util::RunningStats stat_err;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const double exact =
        static_cast<double>(util::bipolar_dot(query, refs[i]));
    const double c = circuit.dot(query, i) - exact;
    const double s = statistical.dot(query, i) - exact;
    circuit_err.add(c * c);
    stat_err.add(s * s);
  }
  const double circuit_rms = std::sqrt(circuit_err.mean());
  const double stat_rms = std::sqrt(stat_err.mean());
  ASSERT_GT(circuit_rms, 0.0);
  EXPECT_LT(stat_rms / circuit_rms, 2.5);
  EXPECT_GT(stat_rms / circuit_rms, 0.4);
}

}  // namespace
}  // namespace oms
