// Tests for the second extension wave: ground-truth evaluation, consensus
// library construction, and crossbar read disturb + refresh.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/evaluation.hpp"
#include "core/pipeline.hpp"
#include "ms/consensus.hpp"
#include "ms/synthetic.hpp"
#include "rram/array.hpp"
#include "util/stats.hpp"

namespace oms {
namespace {

// ---------- Evaluation ----------

const ms::Workload& eval_workload() {
  static const ms::Workload wl = [] {
    ms::WorkloadConfig cfg;
    cfg.reference_count = 300;
    cfg.query_count = 150;
    cfg.seed = 9090;
    return ms::generate_workload(cfg);
  }();
  return wl;
}

TEST(Evaluation, PipelineResultsScoreWell) {
  core::PipelineConfig cfg;
  cfg.encoder.dim = 2048;
  cfg.encoder.bins = cfg.preprocess.bin_count();
  cfg.encoder.chunks = 128;
  core::Pipeline pipeline(cfg);
  pipeline.set_library(eval_workload().references);
  const auto result = pipeline.run(eval_workload().queries);

  const core::EvaluationResult eval =
      core::evaluate(result.accepted, eval_workload());
  EXPECT_GT(eval.accepted, 0U);
  EXPECT_GT(eval.precision(), 0.9);
  EXPECT_GT(eval.recall(), 0.5);
  EXPECT_GT(eval.modified_recall(), 0.3);
  EXPECT_LE(eval.correct, eval.accepted);
  EXPECT_LE(eval.correct_modified, eval.correct);
}

TEST(Evaluation, PerfectAndEmptyEdgeCases) {
  const core::EvaluationResult empty =
      core::evaluate({}, eval_workload());
  EXPECT_EQ(empty.accepted, 0U);
  EXPECT_EQ(empty.precision(), 0.0);
  EXPECT_EQ(empty.recall(), 0.0);

  // Hand-crafted perfect PSM for the first in-library query.
  std::vector<core::Psm> psms;
  for (std::size_t i = 0; i < eval_workload().queries.size(); ++i) {
    if (eval_workload().truths[i].in_library) {
      core::Psm p;
      p.query_id = eval_workload().queries[i].id;
      p.peptide = eval_workload().truths[i].backbone;
      psms.push_back(std::move(p));
      break;
    }
  }
  ASSERT_EQ(psms.size(), 1U);
  const auto one = core::evaluate(psms, eval_workload());
  EXPECT_EQ(one.accepted, 1U);
  EXPECT_EQ(one.correct, 1U);
  EXPECT_DOUBLE_EQ(one.precision(), 1.0);
}

TEST(Evaluation, FormatMentionsKeyNumbers) {
  core::EvaluationResult r;
  r.accepted = 10;
  r.correct = 9;
  r.matched_queries = 20;
  const std::string text = core::format_evaluation(r);
  EXPECT_NE(text.find("accepted: 10"), std::string::npos);
  EXPECT_NE(text.find("90.0%"), std::string::npos);
}

// ---------- Consensus spectra ----------

TEST(Consensus, MergesReplicatesAndVotesOutNoise) {
  const ms::Peptide pep("ACDEFGHIKLMK");
  ms::SynthesisParams params;
  params.mz_jitter = 0.004;
  params.noise_peaks = 5;  // per-replicate random noise
  std::vector<ms::Spectrum> replicates;
  for (std::uint32_t r = 0; r < 6; ++r) {
    replicates.push_back(
        ms::synthesize_spectrum(pep, 2, params, 1000 + r, r));
  }
  const ms::Spectrum consensus = ms::build_consensus(replicates);
  EXPECT_TRUE(consensus.well_formed());
  EXPECT_EQ(consensus.peptide, pep.annotation());
  // Consensus should be smaller than the peak union (noise voted out)...
  std::size_t union_size = 0;
  for (const auto& r : replicates) union_size += r.peaks.size();
  EXPECT_LT(consensus.peaks.size(), union_size / 2);
  // ...but keep the real fragments (roughly the per-replicate count).
  EXPECT_GT(consensus.peaks.size(), replicates[0].peaks.size() / 2);
}

TEST(Consensus, EmptyInputGivesEmptySpectrum) {
  const ms::Spectrum s = ms::build_consensus({});
  EXPECT_TRUE(s.peaks.empty());
}

TEST(Consensus, SingleReplicatePassesThrough) {
  const ms::Peptide pep("SAMPLEK");
  const ms::Spectrum one =
      ms::synthesize_spectrum(pep, 2, ms::SynthesisParams{}, 3, 7);
  const ms::Spectrum consensus = ms::build_consensus({one});
  EXPECT_EQ(consensus.peaks.size(), one.peaks.size());
  EXPECT_EQ(consensus.precursor_charge, one.precursor_charge);
}

TEST(Consensus, LibraryGroupsByAnnotation) {
  ms::SynthesisParams params;
  std::vector<ms::Spectrum> mixed;
  for (std::uint32_t r = 0; r < 3; ++r) {
    mixed.push_back(ms::synthesize_spectrum(ms::Peptide("AAAGGGKR"), 2,
                                            params, 50 + r, r));
    mixed.push_back(ms::synthesize_spectrum(ms::Peptide("CCCDDDKK"), 2,
                                            params, 80 + r, 10 + r));
  }
  ms::Spectrum unannotated;
  unannotated.precursor_mz = 500;
  unannotated.peaks = {{200.0, 10.0F}};
  mixed.push_back(unannotated);

  const auto library = ms::build_consensus_library(mixed);
  // 2 consensus entries + 1 pass-through.
  EXPECT_EQ(library.size(), 3U);
}

TEST(Consensus, MedianPrecursorAndMajorityCharge) {
  std::vector<ms::Spectrum> reps(3);
  for (auto& r : reps) r.peaks = {{200.0, 10.0F}};
  reps[0].precursor_mz = 500.0;
  reps[1].precursor_mz = 500.2;
  reps[2].precursor_mz = 509.0;  // outlier
  reps[0].precursor_charge = 2;
  reps[1].precursor_charge = 2;
  reps[2].precursor_charge = 3;
  const ms::Spectrum c = ms::build_consensus(reps);
  EXPECT_DOUBLE_EQ(c.precursor_mz, 500.2);  // median, outlier-robust
  EXPECT_EQ(c.precursor_charge, 2);
}

// ---------- Read disturb + refresh ----------

TEST(ReadDisturb, AccumulatesAndRefreshClears) {
  rram::ArrayConfig cfg;
  cfg.cell = rram::CellConfig::for_bits(1);
  cfg.read_disturb_us = 0.05;  // exaggerated for test visibility
  rram::CrossbarArray array(cfg, 21);
  util::Xoshiro256 rng(5);
  const std::size_t n = 32;
  for (std::size_t r = 0; r < n; ++r) {
    array.program_weight(r, 0, rng.bernoulli(0.5) ? 1.0 : -1.0);
  }
  std::vector<int> x(n);
  for (auto& v : x) v = rng.bernoulli(0.5) ? 1 : -1;

  const auto err_rms = [&](int reads) {
    util::RunningStats stats;
    for (int i = 0; i < reads; ++i) {
      const auto ideal = array.ideal_mvm(x, 0, n, 0, 1);
      const auto out = array.mvm(x, 0, n, 0, 1);
      stats.add((out[0] - ideal[0]) * (out[0] - ideal[0]));
    }
    return std::sqrt(stats.mean());
  };

  (void)err_rms(200);  // accumulate disturb
  EXPECT_EQ(array.reads_since_refresh(0), 200U);
  const double degraded = err_rms(50);

  array.refresh();
  EXPECT_EQ(array.reads_since_refresh(0), 0U);
  EXPECT_EQ(array.stats().refreshes, 1U);
  const double refreshed = err_rms(50);
  EXPECT_LT(refreshed, degraded);
}

TEST(ReadDisturb, DisabledByDefault) {
  rram::ArrayConfig cfg;
  EXPECT_EQ(cfg.read_disturb_us, 0.0);
}

}  // namespace
}  // namespace oms
