#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "ms/synthetic.hpp"

namespace oms::core {
namespace {

/// Shared small workload: generating spectra is the expensive part, so the
/// suite builds it once.
const ms::Workload& shared_workload() {
  static const ms::Workload wl = [] {
    ms::WorkloadConfig cfg;
    cfg.reference_count = 400;
    cfg.query_count = 150;
    cfg.modified_fraction = 0.45;
    cfg.unmatched_fraction = 0.15;
    cfg.seed = 777;
    return ms::generate_workload(cfg);
  }();
  return wl;
}

PipelineConfig small_pipeline_config() {
  PipelineConfig cfg;
  cfg.encoder.dim = 2048;
  cfg.encoder.bins = cfg.preprocess.bin_count();
  cfg.encoder.chunks = 128;
  cfg.encoder.id_precision = hd::IdPrecision::k3Bit;
  cfg.seed = 4242;
  return cfg;
}

/// Fraction of accepted PSMs whose peptide equals the ground-truth
/// backbone of the query.
double accepted_precision(const PipelineResult& result,
                          const ms::Workload& wl) {
  std::map<std::uint32_t, std::string> truth;
  for (std::size_t i = 0; i < wl.queries.size(); ++i) {
    truth[wl.queries[i].id] = wl.truths[i].backbone;
  }
  if (result.accepted.empty()) return 0.0;
  std::size_t correct = 0;
  for (const auto& p : result.accepted) {
    if (truth.at(p.query_id) == p.peptide) ++correct;
  }
  return static_cast<double>(correct) /
         static_cast<double>(result.accepted.size());
}

TEST(Pipeline, RunBeforeSetLibraryThrows) {
  Pipeline pipeline(small_pipeline_config());
  EXPECT_THROW((void)pipeline.run(shared_workload().queries),
               std::logic_error);
}

TEST(Pipeline, FdrThresholdOutsideUnitIntervalThrows) {
  const double bad[] = {0.0, -0.01, 1.5, std::nan(""),
                        std::numeric_limits<double>::infinity()};
  for (const double t : bad) {
    PipelineConfig cfg = small_pipeline_config();
    cfg.fdr_threshold = t;
    try {
      Pipeline pipeline(cfg);
      FAIL() << "constructor accepted fdr_threshold " << t;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("fdr_threshold"),
                std::string::npos)
          << e.what();
    }
  }
  Pipeline pipeline(small_pipeline_config());
  for (const double t : bad) {
    EXPECT_THROW(pipeline.set_fdr_threshold(t), std::invalid_argument) << t;
  }
  EXPECT_EQ(pipeline.config().fdr_threshold, 0.01);
  pipeline.set_fdr_threshold(1.0);
  EXPECT_EQ(pipeline.config().fdr_threshold, 1.0);
  try {
    pipeline.set_fdr_threshold(1.5);
    FAIL() << "set_fdr_threshold accepted 1.5";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("1.5"), std::string::npos)
        << e.what();
  }
}

TEST(Pipeline, LibraryContainsTargetsAndDecoys) {
  Pipeline pipeline(small_pipeline_config());
  pipeline.set_library(shared_workload().references);
  EXPECT_GT(pipeline.library().target_count(), 350U);
  // One decoy per preprocessable target.
  EXPECT_NEAR(static_cast<double>(pipeline.library().decoy_count()),
              static_cast<double>(pipeline.library().target_count()),
              40.0);
  EXPECT_EQ(pipeline.reference_hvs().size(), pipeline.library().size());
}

TEST(Pipeline, IdentifiesMostMatchedQueries) {
  const ms::Workload& wl = shared_workload();
  Pipeline pipeline(small_pipeline_config());
  pipeline.set_library(wl.references);
  const PipelineResult result = pipeline.run(wl.queries);

  EXPECT_EQ(result.queries_in, wl.queries.size());
  EXPECT_GT(result.queries_searched, 100U);
  // Matched queries ≈ 85% of 150; the pipeline should identify most.
  EXPECT_GT(result.identifications(), wl.matched_query_count() / 2);
  EXPECT_LE(result.identifications(), result.queries_searched);
}

TEST(Pipeline, AcceptedIdentificationsAreMostlyCorrect) {
  const ms::Workload& wl = shared_workload();
  Pipeline pipeline(small_pipeline_config());
  pipeline.set_library(wl.references);
  const PipelineResult result = pipeline.run(wl.queries);
  EXPECT_GT(accepted_precision(result, wl), 0.9);
}

TEST(Pipeline, OmsIdentifiesModifiedQueriesStandardSearchMisses) {
  const ms::Workload& wl = shared_workload();

  PipelineConfig open_cfg = small_pipeline_config();
  Pipeline open_pipeline(open_cfg);
  open_pipeline.set_library(wl.references);
  const PipelineResult open_result = open_pipeline.run(wl.queries);

  PipelineConfig std_cfg = small_pipeline_config();
  std_cfg.open_search = false;
  Pipeline std_pipeline(std_cfg);
  std_pipeline.set_library(wl.references);
  const PipelineResult std_result = std_pipeline.run(wl.queries);

  std::map<std::uint32_t, bool> is_modified;
  for (std::size_t i = 0; i < wl.queries.size(); ++i) {
    is_modified[wl.queries[i].id] = wl.truths[i].modified;
  }
  const auto count_modified = [&](const PipelineResult& r) {
    std::size_t n = 0;
    for (const auto& p : r.accepted) n += is_modified.at(p.query_id) ? 1 : 0;
    return n;
  };

  const std::size_t open_modified = count_modified(open_result);
  const std::size_t std_modified = count_modified(std_result);
  // The whole point of OMS: modified peptides only identifiable with the
  // wide window.
  EXPECT_GT(open_modified, 10U);
  EXPECT_LT(std_modified, open_modified / 4 + 2);
  // And the open search should identify more in total.
  EXPECT_GT(open_result.identifications(), std_result.identifications());
}

TEST(Pipeline, DeterministicAcrossRuns) {
  const ms::Workload& wl = shared_workload();
  Pipeline p1(small_pipeline_config());
  p1.set_library(wl.references);
  const auto r1 = p1.run(wl.queries);
  Pipeline p2(small_pipeline_config());
  p2.set_library(wl.references);
  const auto r2 = p2.run(wl.queries);
  EXPECT_EQ(r1.identification_set(), r2.identification_set());
}

TEST(Pipeline, IdentificationSetIsSortedUnique) {
  const ms::Workload& wl = shared_workload();
  Pipeline pipeline(small_pipeline_config());
  pipeline.set_library(wl.references);
  const auto ids = pipeline.run(wl.queries).identification_set();
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_LT(ids[i - 1], ids[i]);
  }
}

TEST(Pipeline, ModerateBerBarelyHurts) {
  const ms::Workload& wl = shared_workload();

  PipelineConfig clean_cfg = small_pipeline_config();
  Pipeline clean(clean_cfg);
  clean.set_library(wl.references);
  const std::size_t base = clean.run(wl.queries).identifications();

  PipelineConfig noisy_cfg = small_pipeline_config();
  noisy_cfg.injected_ber = 0.05;
  Pipeline noisy(noisy_cfg);
  noisy.set_library(wl.references);
  const std::size_t at_5pct = noisy.run(wl.queries).identifications();

  // Paper Fig. 11: up to ~10% BER is tolerated with little loss.
  EXPECT_GT(at_5pct, base * 8 / 10);
}

TEST(Pipeline, ExtremeBerDestroysIdentifications) {
  const ms::Workload& wl = shared_workload();
  PipelineConfig cfg = small_pipeline_config();
  cfg.injected_ber = 0.5;  // encoded vectors become random
  Pipeline pipeline(cfg);
  pipeline.set_library(wl.references);
  const PipelineResult result = pipeline.run(wl.queries);
  PipelineConfig clean_cfg = small_pipeline_config();
  Pipeline clean(clean_cfg);
  clean.set_library(wl.references);
  EXPECT_LT(result.identifications(),
            clean.run(wl.queries).identifications() / 2);
}

TEST(Pipeline, RramBackendStaysCloseToIdeal) {
  const ms::Workload& wl = shared_workload();

  Pipeline ideal(small_pipeline_config());
  ideal.set_library(wl.references);
  const std::size_t base = ideal.run(wl.queries).identifications();

  PipelineConfig rram_cfg = small_pipeline_config();
  rram_cfg.backend_name = "rram-statistical";
  Pipeline rram(rram_cfg);
  rram.set_library(wl.references);
  const std::size_t hw = rram.run(wl.queries).identifications();

  // The robust-HD claim: RRAM noise costs only a modest fraction.
  EXPECT_GT(hw, base * 7 / 10);
}

TEST(Pipeline, FdrFilterKeepsDecoyMatchesOut) {
  const ms::Workload& wl = shared_workload();
  Pipeline pipeline(small_pipeline_config());
  pipeline.set_library(wl.references);
  const PipelineResult result = pipeline.run(wl.queries);
  for (const auto& p : result.accepted) EXPECT_FALSE(p.is_decoy);
}

TEST(Pipeline, WithoutDecoysEverythingAboveThresholdAccepted) {
  const ms::Workload& wl = shared_workload();
  PipelineConfig cfg = small_pipeline_config();
  cfg.add_decoys = false;
  Pipeline pipeline(cfg);
  pipeline.set_library(wl.references);
  const PipelineResult result = pipeline.run(wl.queries);
  EXPECT_EQ(result.library_decoys, 0U);
  // With no decoys every PSM has q = 0.
  EXPECT_EQ(result.accepted.size(), result.psms.size());
}

}  // namespace
}  // namespace oms::core
