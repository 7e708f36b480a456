// Round-trip contract of the persistent LibraryIndex: a pipeline
// constructed from LibraryIndex::open returns bit-identical PipelineResults
// to one built from the original spectra — for every backend, on both the
// mmap and the in-memory load path — while performing zero reference
// encode calls. Also locks down artifact determinism (same configuration →
// byte-identical file) and the zero-copy view property of the loaded
// hypervectors.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>

#include "core/pipeline.hpp"
#include "core/query_engine.hpp"
#include "index/index_builder.hpp"
#include "index/library_index.hpp"
#include "ms/synthetic.hpp"

namespace {

using namespace oms;

core::PipelineConfig test_config(const std::string& backend,
                                 std::uint32_t dim = 2048) {
  core::PipelineConfig cfg;
  cfg.encoder.dim = dim;
  cfg.encoder.bins = cfg.preprocess.bin_count();
  cfg.encoder.chunks = dim / 32;
  cfg.backend_name = backend;
  cfg.rescore_top_k = 4;
  cfg.seed = 20240715;
  return cfg;
}

ms::Workload small_workload(std::size_t refs = 300, std::size_t queries = 60,
                            std::uint64_t seed = 5) {
  ms::WorkloadConfig cfg;
  cfg.reference_count = refs;
  cfg.query_count = queries;
  cfg.seed = seed;
  return ms::generate_workload(cfg);
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

void expect_identical(const core::PipelineResult& a,
                      const core::PipelineResult& b) {
  ASSERT_EQ(a.psms.size(), b.psms.size());
  ASSERT_EQ(a.accepted.size(), b.accepted.size());
  EXPECT_EQ(a.queries_in, b.queries_in);
  EXPECT_EQ(a.queries_searched, b.queries_searched);
  EXPECT_EQ(a.library_targets, b.library_targets);
  EXPECT_EQ(a.library_decoys, b.library_decoys);
  for (std::size_t i = 0; i < a.psms.size(); ++i) {
    EXPECT_EQ(a.psms[i].query_id, b.psms[i].query_id) << "psm " << i;
    EXPECT_EQ(a.psms[i].peptide, b.psms[i].peptide) << "psm " << i;
    EXPECT_EQ(a.psms[i].score, b.psms[i].score) << "psm " << i;
    EXPECT_EQ(a.psms[i].is_decoy, b.psms[i].is_decoy) << "psm " << i;
    EXPECT_EQ(a.psms[i].mass_shift, b.psms[i].mass_shift) << "psm " << i;
    EXPECT_EQ(a.psms[i].reference_index, b.psms[i].reference_index)
        << "psm " << i;
  }
  EXPECT_EQ(a.identification_set(), b.identification_set());
}

/// (backend name, BackendOptions::max_refs_per_shard): every backend, plus
/// rram-statistical cut into several chip slices.
using BackendCase = std::tuple<const char*, std::size_t>;
class IndexRoundTrip : public testing::TestWithParam<BackendCase> {};

TEST_P(IndexRoundTrip, LoadPathIsBitIdenticalWithZeroEncodes) {
  const auto [name, width] = GetParam();
  const std::string backend = name + std::to_string(width);
  const auto workload = small_workload();
  auto cfg = test_config(name, 2048);
  cfg.backend_options.max_refs_per_shard = width;

  // Reference behavior: everything derived from spectra in-process.
  core::Pipeline from_spectra(cfg);
  from_spectra.set_library(workload.references);
  EXPECT_GT(from_spectra.reference_encode_count(), 0U);
  const auto want = from_spectra.run(workload.queries);

  // Persist, then cold-start a second pipeline from the artifact.
  const std::string path = temp_path("roundtrip_" + backend + ".omsx");
  const index::IndexBuilder builder(cfg);
  const auto stats = builder.build(workload.references, path);
  EXPECT_EQ(stats.entries, from_spectra.library().size());
  EXPECT_GT(stats.file_bytes, 0U);

  for (const bool force_in_memory : {false, true}) {
    SCOPED_TRACE(force_in_memory ? "in-memory" : "mmap");
    index::OpenOptions opts;
    opts.force_in_memory = force_in_memory;
    auto idx = std::make_shared<index::LibraryIndex>(
        index::LibraryIndex::open(path, opts));
    EXPECT_EQ(idx->mapped(), !force_in_memory);
    ASSERT_EQ(idx->size(), from_spectra.library().size());

    core::Pipeline from_index(cfg);
    from_index.set_library(idx);
    // The zero-re-encoding cold-start contract.
    EXPECT_EQ(from_index.reference_encode_count(), 0U);

    // The adopted hypervectors are zero-copy views over the container...
    ASSERT_EQ(from_index.reference_hvs().size(),
              from_spectra.reference_hvs().size());
    for (const util::BitVec& hv : from_index.reference_hvs()) {
      EXPECT_TRUE(hv.is_view());
    }
    // ...with exactly the bits the in-process encode produced.
    for (std::size_t i = 0; i < from_index.reference_hvs().size(); ++i) {
      ASSERT_EQ(from_index.reference_hvs()[i], from_spectra.reference_hvs()[i])
          << "hypervector " << i;
    }

    // The layout detection over the exposed views sees the word block as
    // one contiguous reference-major extent, starting at the mapped block,
    // on both the mmap and in-memory paths.
    const hd::RefView detected = hd::RefView::from_span(idx->hypervectors());
    ASSERT_TRUE(detected.contiguous());
    const hd::RefExtent& whole = detected.extents().front();
    EXPECT_EQ(whole.words, idx->hypervector(0).words().data());
    EXPECT_EQ(whole.stride, idx->words_per_hv());
    EXPECT_EQ(whole.rows, idx->size());
    EXPECT_EQ(whole.base, 0u);
    EXPECT_EQ(detected.dim(), idx->dim());

    const auto got = from_index.run(workload.queries);
    expect_identical(want, got);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, IndexRoundTrip,
                         testing::Values(BackendCase{"ideal-hd", 0},
                                         BackendCase{"rram-statistical", 0},
                                         BackendCase{"rram-statistical", 150}));

TEST(IndexRoundTrip, EncodeCounterResetsWhenWarmPipelineAdoptsIndex) {
  // A warm replica that switches from in-process encoding to the artifact
  // must still observe the zero-re-encoding contract on the counter.
  const auto workload = small_workload(60, 10, 4);
  const auto cfg = test_config("ideal-hd");
  const std::string path = temp_path("warm_switch.omsx");
  index::IndexBuilder(cfg).build(workload.references, path);

  core::Pipeline pipeline(cfg);
  pipeline.set_library(workload.references);
  EXPECT_GT(pipeline.reference_encode_count(), 0U);
  const auto want = pipeline.run(workload.queries);

  auto idx = std::make_shared<index::LibraryIndex>(
      index::LibraryIndex::open(path));
  pipeline.set_library(idx);
  EXPECT_EQ(pipeline.reference_encode_count(), 0U);
  const auto got = pipeline.run(workload.queries);
  expect_identical(want, got);
  std::remove(path.c_str());
}

TEST(IndexRoundTrip, LoadedLibraryMatchesBuiltLibrary) {
  const auto workload = small_workload(120, 0, 3);
  const auto cfg = test_config("ideal-hd");
  core::Pipeline pipeline(cfg);
  pipeline.set_library(workload.references);

  const std::string path = temp_path("roundtrip_entries.omsx");
  index::IndexBuilder::write_from_pipeline(pipeline, path);
  const auto idx = index::LibraryIndex::open(path);

  const ms::SpectralLibrary& a = pipeline.library();
  const ms::SpectralLibrary& b = idx.library();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.target_count(), b.target_count());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].precursor_mass, b[i].precursor_mass);
    EXPECT_EQ(a[i].precursor_charge, b[i].precursor_charge);
    EXPECT_EQ(a[i].is_decoy, b[i].is_decoy);
    EXPECT_EQ(a[i].peptide, b[i].peptide);
    EXPECT_EQ(a[i].bins, b[i].bins);
    EXPECT_EQ(a[i].weights, b[i].weights);
    EXPECT_EQ(pipeline.reference_hvs()[i], idx.hypervectors()[i]);
  }
  // The mapped mass axis answers mass_window exactly like the library.
  for (const double center : {900.0, 1500.0, 2500.0}) {
    EXPECT_EQ(idx.mass_window(center, 500.0), a.mass_window(center, 500.0));
    EXPECT_EQ(idx.mass_window(center, 0.05), a.mass_window(center, 0.05));
  }
  std::remove(path.c_str());
}

TEST(IndexRoundTrip, SameConfigurationYieldsByteIdenticalArtifacts) {
  const auto workload = small_workload(80, 0, 21);
  const auto cfg = test_config("ideal-hd");
  const std::string path_a = temp_path("det_a.omsx");
  const std::string path_b = temp_path("det_b.omsx");
  index::IndexBuilder(cfg).build(workload.references, path_a);
  index::IndexBuilder(cfg).build(workload.references, path_b);

  std::ifstream fa(path_a, std::ios::binary);
  std::ifstream fb(path_b, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(fa)), {});
  const std::string bytes_b((std::istreambuf_iterator<char>(fb)), {});
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(IndexRoundTrip, BuilderMatchesWriteFromPipeline) {
  // IndexBuilder encodes through the cheapest backend of the same trait;
  // the artifact must still be byte-identical to persisting a live
  // pipeline that used the real backend.
  const auto workload = small_workload(80, 0, 22);
  auto cfg = test_config("rram-statistical");
  cfg.backend_options.max_refs_per_shard = 64;

  core::Pipeline pipeline(cfg);
  pipeline.set_library(workload.references);
  const std::string path_a = temp_path("from_pipeline.omsx");
  index::IndexBuilder::write_from_pipeline(pipeline, path_a);

  const std::string path_b = temp_path("from_builder.omsx");
  index::IndexBuilder(cfg).build(workload.references, path_b);

  std::ifstream fa(path_a, std::ios::binary);
  std::ifstream fb(path_b, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(fa)), {});
  const std::string bytes_b((std::istreambuf_iterator<char>(fb)), {});
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(IndexRoundTrip, StreamingEngineMatchesOnLoadPath) {
  // The staged QueryEngine over a loaded index reproduces the synchronous
  // run — the query-side encode stage works off the index's encoder state.
  const auto workload = small_workload(150, 40, 8);
  const auto cfg = test_config("rram-statistical");

  core::Pipeline from_spectra(cfg);
  from_spectra.set_library(workload.references);
  const auto want = from_spectra.run(workload.queries);

  const std::string path = temp_path("roundtrip_stream.omsx");
  index::IndexBuilder(cfg).build(workload.references, path);
  auto idx = std::make_shared<index::LibraryIndex>(
      index::LibraryIndex::open(path));
  core::Pipeline from_index(cfg);
  from_index.set_library(idx);

  core::QueryEngineConfig ecfg;
  ecfg.block_size = 7;
  ecfg.stage_threads = 3;
  core::QueryEngine engine(from_index, ecfg);
  engine.submit_batch(workload.queries);
  const auto got = engine.drain();
  expect_identical(want, got);
  EXPECT_EQ(from_index.reference_encode_count(), 0U);
  std::remove(path.c_str());
}

}  // namespace
