// Tests for the extension features: annotation parsing, Gray-coded MLC
// storage, the chip mapper, result reporting, and the top-k rescoring
// cascade.
#include <gtest/gtest.h>

#include <sstream>

#include "accel/mapper.hpp"
#include "core/report.hpp"
#include "ms/synthetic.hpp"
#include "rram/storage.hpp"

namespace oms {
namespace {

// ---------- Peptide annotation parsing ----------

TEST(PeptideParse, PlainSequenceRoundTrip) {
  ms::Peptide out;
  ASSERT_TRUE(ms::Peptide::parse("PEPTIDEK", out));
  EXPECT_EQ(out.sequence(), "PEPTIDEK");
  EXPECT_FALSE(out.is_modified());
  EXPECT_EQ(out.annotation(), "PEPTIDEK");
}

TEST(PeptideParse, ModifiedAnnotationRoundTrip) {
  const ms::Peptide original("MSTYKEQK",
                             {{0, 15.994915, "Oxidation"},
                              {3, 79.966331, "Phosphorylation"}});
  ms::Peptide parsed;
  ASSERT_TRUE(ms::Peptide::parse(original.annotation(), parsed));
  EXPECT_EQ(parsed.annotation(), original.annotation());
  EXPECT_NEAR(parsed.mass(), original.mass(), 1e-6);
  ASSERT_EQ(parsed.modifications().size(), 2U);
  EXPECT_EQ(parsed.modifications()[0].name, "Oxidation");
}

TEST(PeptideParse, RejectsMalformed) {
  ms::Peptide out;
  EXPECT_FALSE(ms::Peptide::parse("", out));
  EXPECT_FALSE(ms::Peptide::parse("PEP[Oxidation", out));
  EXPECT_FALSE(ms::Peptide::parse("PEP[Oxidation]", out));       // no @pos
  EXPECT_FALSE(ms::Peptide::parse("PEP[NoSuchMod@1]", out));
  EXPECT_FALSE(ms::Peptide::parse("PEP[Oxidation@x]", out));
  EXPECT_FALSE(ms::Peptide::parse("PEP[Oxidation@9]", out));     // OOB pos
}

// ---------- Gray-coded storage ----------

TEST(GrayCoding, EncodeDecodeRoundTrip) {
  for (int v = 0; v < 8; ++v) {
    EXPECT_EQ(rram::decode_level(
                  rram::encode_level(v, rram::LevelCoding::kGray),
                  rram::LevelCoding::kGray),
              v);
    EXPECT_EQ(rram::encode_level(v, rram::LevelCoding::kBinary), v);
  }
}

TEST(GrayCoding, AdjacentLevelsDifferInOneBit) {
  for (int v = 0; v + 1 < 8; ++v) {
    const int a = rram::encode_level(v, rram::LevelCoding::kGray);
    const int b = rram::encode_level(v + 1, rram::LevelCoding::kGray);
    EXPECT_EQ(__builtin_popcount(static_cast<unsigned>(a ^ b)), 1) << v;
  }
}

TEST(GrayCoding, PackUnpackRoundTripBothCodings) {
  util::BitVec hv(300);
  hv.randomize(5);
  for (const auto coding :
       {rram::LevelCoding::kBinary, rram::LevelCoding::kGray}) {
    for (const int bits : {1, 2, 3}) {
      const auto levels = rram::pack_levels(hv, bits, coding);
      EXPECT_EQ(rram::unpack_levels(levels, bits, hv.size(), coding), hv);
    }
  }
}

TEST(GrayCoding, ReducesStorageBerAt3Bits) {
  // Adjacent-level misreads dominate; Gray coding converts multi-bit
  // flips into single-bit flips, so BER must drop.
  const rram::CellConfig cell = rram::CellConfig::for_bits(3);
  rram::HypervectorStore binary(cell, 3, rram::LevelCoding::kBinary);
  rram::HypervectorStore gray(cell, 3, rram::LevelCoding::kGray);
  for (int i = 0; i < 12; ++i) {
    util::BitVec hv(4096);
    hv.randomize(static_cast<std::uint64_t>(i) + 400);
    binary.store(hv);
    gray.store(hv);
  }
  binary.age(86400.0);
  gray.age(86400.0);
  EXPECT_LT(gray.bit_error_rate(), binary.bit_error_rate());
}

// ---------- Chip mapper ----------

TEST(Mapper, LayoutArithmetic) {
  rram::ChipConfig chip;  // 48 arrays of 256x256, 128 pairs
  const auto plan = accel::plan_search_mapping(1000, 8192, chip, 64);
  EXPECT_EQ(plan.vertical_tiles, 64U);    // 8192 / 128 pairs
  EXPECT_EQ(plan.column_blocks, 4U);      // ceil(1000 / 256)
  EXPECT_EQ(plan.arrays_needed, 256U);
  EXPECT_EQ(plan.chips_needed, 6U);       // ceil(256 / 48)
  EXPECT_EQ(plan.phases_per_candidate, 128U);
  EXPECT_EQ(plan.cells_used, 1000ULL * 8192 * 2);
  EXPECT_GT(plan.chip_utilization, 0.0);
  EXPECT_LE(plan.chip_utilization, 1.0);
}

TEST(Mapper, RejectsBadInputs) {
  rram::ChipConfig chip;
  EXPECT_THROW((void)accel::plan_search_mapping(0, 8192, chip, 64),
               std::invalid_argument);
  EXPECT_THROW((void)accel::plan_search_mapping(10, 8192, chip, 7),
               std::invalid_argument);
  // An array of fewer than two rows holds no differential pair; every
  // layout divides by the pairs per column.
  for (const std::size_t rows : {0U, 1U}) {
    chip.array.rows = rows;
    EXPECT_THROW((void)accel::plan_search_mapping(10, 8192, chip, 64),
                 std::invalid_argument);
    EXPECT_THROW((void)accel::references_per_chip(8192, chip),
                 std::invalid_argument);
  }
}

TEST(Mapper, LatencyScalesWithCandidatesAndRows) {
  rram::ChipConfig chip;
  const auto plan64 = accel::plan_search_mapping(10000, 8192, chip, 64);
  const auto plan16 = accel::plan_search_mapping(10000, 8192, chip, 16);
  const double t64 = accel::query_latency_s(plan64, 3000, 32, 100e-9);
  const double t64_more = accel::query_latency_s(plan64, 6000, 32, 100e-9);
  const double t16 = accel::query_latency_s(plan16, 3000, 32, 100e-9);
  EXPECT_NEAR(t64_more / t64, 2.0, 1e-9);
  EXPECT_GT(t16, t64);  // fewer rows per phase → more phases → slower
}

TEST(Mapper, EnergyMatchesPerfModelPerPhaseCost) {
  rram::ChipConfig chip;
  const auto plan = accel::plan_search_mapping(1000, 8192, chip, 64);
  const double e = accel::query_energy_j(plan, 100, 0.225e-12, 2.0e-12);
  // 100 candidates × 128 phases × (128 cells × 0.225 pJ + 2 pJ)
  const double expected = 100.0 * 128.0 * (128.0 * 0.225e-12 + 2.0e-12);
  EXPECT_NEAR(e, expected, expected * 1e-9);
}

// ---------- Report writers ----------

TEST(Report, TsvHasHeaderAndRows) {
  std::vector<core::Psm> psms(2);
  psms[0].query_id = 1;
  psms[0].peptide = "PEPTIDEK";
  psms[0].score = 0.9;
  psms[1].query_id = 2;
  psms[1].peptide = "OTHERK";
  psms[1].score = 0.5;
  psms[1].is_decoy = true;

  std::stringstream ss;
  core::write_psm_tsv(ss, psms);
  const std::string text = ss.str();
  EXPECT_NE(text.find("query_id\tpeptide"), std::string::npos);
  EXPECT_NE(text.find("PEPTIDEK"), std::string::npos);
  // 1 header + 2 rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(Report, SummaryContainsCounts) {
  core::PipelineResult result;
  result.queries_in = 10;
  result.queries_searched = 9;
  result.library_targets = 100;
  result.library_decoys = 100;
  core::Psm p;
  p.mass_shift = 42.0;
  result.accepted.push_back(p);
  std::stringstream ss;
  core::write_summary(ss, result);
  EXPECT_NE(ss.str().find("identifications:   1"), std::string::npos);
  EXPECT_NE(ss.str().find("with mass shift: 1"), std::string::npos);
}

// ---------- Write-verify programming ----------

TEST(WriteVerify, MoreIterationsTightenLevels) {
  rram::CellConfig loose = rram::CellConfig::for_bits(3);
  loose.write_verify_iterations = 1;
  rram::CellConfig tight = loose;
  tight.write_verify_iterations = 5;
  tight.verify_tolerance_us = 0.8;

  const auto residual_rms = [](const rram::CellConfig& cfg) {
    util::Xoshiro256 rng(9);
    double acc = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      const int level = static_cast<int>(rng.below(cfg.levels));
      const double g = rram::program_cell(cfg, level, rng);
      const double e = g - cfg.level_conductance(level);
      acc += e * e;
    }
    return std::sqrt(acc / n);
  };
  EXPECT_LT(residual_rms(tight), residual_rms(loose) * 0.8);
}

TEST(WriteVerify, PulseCountReflectsRetries) {
  rram::CellConfig cfg = rram::CellConfig::for_bits(3);
  cfg.write_verify_iterations = 5;
  cfg.verify_tolerance_us = 0.5;
  util::Xoshiro256 rng(10);
  int pulses = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    (void)rram::program_cell(cfg, static_cast<int>(rng.below(8)), rng,
                             &pulses);
  }
  EXPECT_GT(pulses, n);          // some cells needed retries
  EXPECT_LE(pulses, 5 * n);      // bounded by the iteration cap
}

TEST(WriteVerify, ImprovesStorageBer) {
  rram::CellConfig tight = rram::CellConfig::for_bits(3);
  tight.write_verify_iterations = 5;
  tight.verify_tolerance_us = 0.6;
  rram::HypervectorStore loose_store(rram::CellConfig::for_bits(3), 4);
  rram::HypervectorStore tight_store(tight, 4);
  for (int i = 0; i < 12; ++i) {
    util::BitVec hv(4096);
    hv.randomize(static_cast<std::uint64_t>(i) + 800);
    loose_store.store(hv);
    tight_store.store(hv);
  }
  loose_store.age(3600.0);
  tight_store.age(3600.0);
  EXPECT_LT(tight_store.bit_error_rate(), loose_store.bit_error_rate());
}

// ---------- Charge-tolerant search ----------

TEST(ChargeTolerant, RecoversMisassignedCharges) {
  ms::WorkloadConfig wcfg;
  wcfg.reference_count = 300;
  wcfg.query_count = 120;
  wcfg.min_charge = 2;
  wcfg.max_charge = 2;
  wcfg.unmatched_fraction = 0.0;
  wcfg.seed = 3131;
  ms::Workload wl = ms::generate_workload(wcfg);

  // Corrupt the recorded charge of half the queries (2 → 3) while keeping
  // the observed m/z: the derived neutral mass becomes wrong by 1.5x.
  for (std::size_t i = 0; i < wl.queries.size(); i += 2) {
    wl.queries[i].precursor_charge = 3;
    wl.queries[i].precursor_mz =
        wl.queries[i].precursor_mz;  // m/z unchanged, charge reinterpreted
  }

  core::PipelineConfig cfg;
  cfg.encoder.dim = 2048;
  cfg.encoder.bins = cfg.preprocess.bin_count();
  cfg.encoder.chunks = 128;
  cfg.seed = 6;

  core::Pipeline strict(cfg);
  strict.set_library(wl.references);
  const std::size_t strict_ids = strict.run(wl.queries).identifications();

  core::PipelineConfig tolerant_cfg = cfg;
  tolerant_cfg.charge_tolerant = true;
  core::Pipeline tolerant(tolerant_cfg);
  tolerant.set_library(wl.references);
  const std::size_t tolerant_ids =
      tolerant.run(wl.queries).identifications();

  // The tolerant search must recover a substantial share of the corrupted
  // half that the strict search loses.
  EXPECT_GT(tolerant_ids, strict_ids + wl.queries.size() / 8);
}

TEST(ChargeTolerant, NoRegressionOnCleanData) {
  ms::WorkloadConfig wcfg;
  wcfg.reference_count = 200;
  wcfg.query_count = 80;
  wcfg.seed = 3232;
  const ms::Workload wl = ms::generate_workload(wcfg);

  core::PipelineConfig cfg;
  cfg.encoder.dim = 2048;
  cfg.encoder.bins = cfg.preprocess.bin_count();
  cfg.encoder.chunks = 128;
  core::Pipeline strict(cfg);
  strict.set_library(wl.references);
  const std::size_t base = strict.run(wl.queries).identifications();

  core::PipelineConfig tolerant_cfg = cfg;
  tolerant_cfg.charge_tolerant = true;
  core::Pipeline tolerant(tolerant_cfg);
  tolerant.set_library(wl.references);
  // FDR may shave a couple due to extra decoy exposure, but not more.
  EXPECT_GE(tolerant.run(wl.queries).identifications() + 4, base);
}

// ---------- Rescoring cascade ----------

TEST(Rescoring, TopKRescoreKeepsOrImprovesIdentifications) {
  ms::WorkloadConfig wcfg;
  wcfg.reference_count = 300;
  wcfg.query_count = 120;
  wcfg.seed = 2121;
  // Noisier queries so the HD top-1 is sometimes wrong and rescoring has
  // headroom.
  wcfg.query_synthesis.keep_probability = 0.75;
  wcfg.query_synthesis.noise_peaks = 12;
  const ms::Workload wl = ms::generate_workload(wcfg);

  core::PipelineConfig base;
  base.encoder.dim = 1024;  // deliberately low-D so HD alone struggles
  base.encoder.bins = base.preprocess.bin_count();
  base.encoder.chunks = 128;
  base.seed = 5;

  core::Pipeline plain(base);
  plain.set_library(wl.references);
  const auto r_plain = plain.run(wl.queries);

  core::PipelineConfig cascade_cfg = base;
  cascade_cfg.rescore_top_k = 8;
  core::Pipeline cascade(cascade_cfg);
  cascade.set_library(wl.references);
  const auto r_cascade = cascade.run(wl.queries);

  // Rescoring with the exact shifted dot product should not lose
  // identifications, and typically gains some at low dimension.
  EXPECT_GE(r_cascade.identifications() + 2, r_plain.identifications());
}

TEST(Rescoring, ScoresAreShiftedDotValues) {
  ms::WorkloadConfig wcfg;
  wcfg.reference_count = 100;
  wcfg.query_count = 30;
  wcfg.seed = 77;
  const ms::Workload wl = ms::generate_workload(wcfg);

  core::PipelineConfig cfg;
  cfg.encoder.dim = 2048;
  cfg.encoder.bins = cfg.preprocess.bin_count();
  cfg.encoder.chunks = 128;
  cfg.rescore_top_k = 4;
  core::Pipeline pipeline(cfg);
  pipeline.set_library(wl.references);
  const auto result = pipeline.run(wl.queries);
  for (const auto& p : result.psms) {
    EXPECT_GE(p.score, 0.0);
    EXPECT_LE(p.score, 1.0 + 1e-9);  // unit-norm dot products
  }
}

}  // namespace
}  // namespace oms
