// Segment-layer contracts (index/manifest.hpp, index/segmented_library.hpp,
// IndexBuilder::append/compact):
//
//   * Manifest round-trip: save/load preserves every field, the combined
//     hash names a generation (changes on every append and compaction),
//     and corruption — torn payload, flipped bytes, missing or stale
//     segment files — fails loudly at open, never silently.
//   * Growth keystone: a library grown as base + appended segments returns
//     bit-identical PipelineResults to a one-shot build over the union,
//     for every registered backend, with zero reference re-encodes on the
//     load path.
//   * Compaction: rewrites all segments into one with zero encode calls,
//     byte-identical to a one-shot artifact of the union; search results
//     are unchanged and the one-extent reference view is restored.
//   * Guard rails: append validates the fingerprint against the manifest
//     and refuses injected_ber libraries (the error realization is
//     batch-sequential, so incremental growth would change stored bytes).
//   * serve::LibraryCache keys manifests by generation: an append
//     invalidates cached entries instead of serving stale segments.
//
// Runs under the `io` ctest label (filename prefix).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "hd/kernels.hpp"
#include "hd/search.hpp"
#include "index/index_builder.hpp"
#include "index/library_index.hpp"
#include "index/manifest.hpp"
#include "index/segmented_library.hpp"
#include "ms/synthetic.hpp"
#include "serve/library_cache.hpp"
#include "util/bitvec.hpp"

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

/// Splits the reference set into `parts` contiguous slices.
std::vector<std::vector<ms::Spectrum>> split(
    const std::vector<ms::Spectrum>& refs, std::size_t parts) {
  std::vector<std::vector<ms::Spectrum>> out;
  const std::size_t chunk = (refs.size() + parts - 1) / parts;
  for (std::size_t i = 0; i < refs.size(); i += chunk) {
    const std::size_t end = std::min(refs.size(), i + chunk);
    out.emplace_back(refs.begin() + static_cast<std::ptrdiff_t>(i),
                     refs.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return out;
}

/// Builds base + (parts-1) appended segments under `man_path`.
void grow_in_parts(const index::IndexBuilder& builder,
                   const std::vector<ms::Spectrum>& refs, std::size_t parts,
                   const std::string& man_path) {
  std::remove(man_path.c_str());
  for (const auto& part : split(refs, parts)) {
    (void)builder.append(part, man_path);
  }
}

/// Removes the manifest and every segment it lists.
void remove_segmented(const std::string& man_path) {
  if (!std::filesystem::exists(man_path)) return;
  const auto man = index::Manifest::load(man_path);
  const auto dir = std::filesystem::path(man_path).parent_path();
  for (const auto& seg : man.segments) std::filesystem::remove(dir / seg.name);
  std::remove(man_path.c_str());
}

std::string read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(f)), {});
}

TEST(IndexSegment, ManifestRoundTripAndGenerationHash) {
  const auto workload = small_workload(120, 0, 31);
  const auto cfg = test_config("ideal-hd");
  const std::string man_path = temp_path("seg_manifest_rt.omsman");
  const index::IndexBuilder builder(cfg);
  grow_in_parts(builder, workload.references, 2, man_path);

  const auto man = index::Manifest::load(man_path);
  ASSERT_EQ(man.segments.size(), 2u);
  EXPECT_TRUE(man.fingerprint == index::fingerprint_of(cfg));
  EXPECT_EQ(man.next_sequence, 2u);
  // Bases are the running concatenation offsets.
  EXPECT_EQ(man.segments[0].base, 0u);
  EXPECT_EQ(man.segments[1].base, man.segments[0].entry_count);
  EXPECT_EQ(man.total_entries(),
            man.segments[0].entry_count + man.segments[1].entry_count);

  // save → load is lossless, including the generation hash.
  const std::string copy_path = temp_path("seg_manifest_copy.omsman");
  man.save(copy_path);
  const auto copy = index::Manifest::load(copy_path);
  ASSERT_EQ(copy.segments.size(), man.segments.size());
  for (std::size_t i = 0; i < man.segments.size(); ++i) {
    EXPECT_EQ(copy.segments[i].name, man.segments[i].name);
    EXPECT_EQ(copy.segments[i].entry_count, man.segments[i].entry_count);
    EXPECT_EQ(copy.segments[i].base, man.segments[i].base);
    EXPECT_EQ(copy.segments[i].file_size, man.segments[i].file_size);
    EXPECT_EQ(copy.segments[i].table_checksum, man.segments[i].table_checksum);
  }
  EXPECT_EQ(copy.combined_hash(), man.combined_hash());
  std::remove(copy_path.c_str());

  // Every append moves the generation.
  const auto gen_before = man.combined_hash();
  (void)builder.append(small_workload(40, 0, 32).references, man_path);
  EXPECT_NE(index::Manifest::load(man_path).combined_hash(), gen_before);

  // Magic detection tells manifests and monolithic indexes apart.
  EXPECT_TRUE(index::is_manifest_file(man_path));
  const std::string idx_path = temp_path("seg_manifest_mono.omsx");
  (void)builder.build(workload.references, idx_path);
  EXPECT_FALSE(index::is_manifest_file(idx_path));
  EXPECT_FALSE(index::is_manifest_file(temp_path("seg_missing.omsman")));
  std::remove(idx_path.c_str());
  remove_segmented(man_path);
}

TEST(IndexSegment, CorruptionFailsLoudly) {
  const auto workload = small_workload(100, 0, 33);
  const auto cfg = test_config("ideal-hd");
  const std::string man_path = temp_path("seg_corrupt.omsman");
  const index::IndexBuilder builder(cfg);
  grow_in_parts(builder, workload.references, 2, man_path);
  const std::string good = read_bytes(man_path);
  const auto man = index::Manifest::load(man_path);

  // Truncated header.
  {
    std::ofstream f(man_path, std::ios::binary | std::ios::trunc);
    f.write(good.data(), 32);
  }
  EXPECT_THROW((void)index::Manifest::load(man_path), std::runtime_error);

  // Flipped payload byte → checksum mismatch.
  {
    std::string bad = good;
    bad[bad.size() - 1] ^= 0x40;
    std::ofstream f(man_path, std::ios::binary | std::ios::trunc);
    f.write(bad.data(), static_cast<std::streamsize>(bad.size()));
  }
  EXPECT_THROW((void)index::Manifest::load(man_path), std::runtime_error);

  // Restore the manifest, then corrupt a segment: open must reject it.
  {
    std::ofstream f(man_path, std::ios::binary | std::ios::trunc);
    f.write(good.data(), static_cast<std::streamsize>(good.size()));
  }
  const auto dir = std::filesystem::path(man_path).parent_path();
  const std::string seg_path = (dir / man.segments[1].name).string();
  const std::string seg_bytes = read_bytes(seg_path);
  {
    std::string bad = seg_bytes;
    bad[bad.size() / 2] ^= 0x01;
    std::ofstream f(seg_path, std::ios::binary | std::ios::trunc);
    f.write(bad.data(), static_cast<std::streamsize>(bad.size()));
  }
  EXPECT_THROW((void)index::SegmentedLibrary::open(man_path),
               std::runtime_error);

  // A stale segment (right format, wrong file — here: truncated) is
  // caught by the manifest's size/table cross-checks.
  {
    std::ofstream f(seg_path, std::ios::binary | std::ios::trunc);
    f.write(seg_bytes.data(),
            static_cast<std::streamsize>(seg_bytes.size() / 2));
  }
  EXPECT_THROW((void)index::SegmentedLibrary::open(man_path), std::exception);

  // A missing segment too.
  std::remove(seg_path.c_str());
  EXPECT_THROW((void)index::SegmentedLibrary::open(man_path), std::exception);
  {
    std::ofstream f(seg_path, std::ios::binary | std::ios::trunc);
    f.write(seg_bytes.data(), static_cast<std::streamsize>(seg_bytes.size()));
  }
  remove_segmented(man_path);
}

class SegmentedVsOneShot : public testing::TestWithParam<const char*> {};

TEST_P(SegmentedVsOneShot, BitIdenticalAcrossAppendsAndCompaction) {
  const std::string backend = GetParam();
  const bool circuit = backend == "rram-circuit";
  const auto workload =
      circuit ? small_workload(40, 12, 9) : small_workload();
  auto cfg = test_config(backend, circuit ? 512 : 2048);
  if (backend == "sharded") {
    cfg.backend_options.max_refs_per_shard = 150;
  }

  // Reference behavior: one-shot, everything in-process.
  core::Pipeline one_shot(cfg);
  one_shot.set_library(workload.references);
  const auto want = one_shot.run(workload.queries);

  // Base + two appended segments under a manifest.
  const std::string man_path =
      temp_path("seg_grow_" + backend + ".omsman");
  const index::IndexBuilder builder(cfg);
  grow_in_parts(builder, workload.references, 3, man_path);
  ASSERT_EQ(index::Manifest::load(man_path).segments.size(), 3u);

  auto segmented = std::make_shared<index::SegmentedLibrary>(
      index::SegmentedLibrary::open(man_path));
  ASSERT_EQ(segmented->size(), one_shot.library().size());
  EXPECT_EQ(segmented->segment_count(), 3u);

  core::Pipeline from_segments(cfg);
  from_segments.set_library(segmented);
  EXPECT_EQ(from_segments.reference_encode_count(), 0u);

  // The merged logical library presents the one-shot mass-sorted order:
  // same entries, same hypervector bits, same global reference indices.
  const ms::SpectralLibrary& a = one_shot.library();
  const ms::SpectralLibrary& b = from_segments.library();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.target_count(), b.target_count());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].id, b[i].id) << "entry " << i;
    ASSERT_EQ(a[i].is_decoy, b[i].is_decoy) << "entry " << i;
    ASSERT_EQ(a[i].precursor_mass, b[i].precursor_mass) << "entry " << i;
  }
  ASSERT_EQ(one_shot.reference_hvs().size(),
            from_segments.reference_hvs().size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(one_shot.reference_hvs()[i], from_segments.reference_hvs()[i])
        << "hypervector " << i;
  }

  const auto got = from_segments.run(workload.queries);
  expect_identical(want, got);

  // Compaction: zero encodes, results unchanged, fast path restored.
  const auto stats = builder.compact(man_path);
  EXPECT_EQ(stats.entries, a.size());
  const auto compacted_man = index::Manifest::load(man_path);
  ASSERT_EQ(compacted_man.segments.size(), 1u);
  EXPECT_EQ(compacted_man.total_entries(), a.size());

  auto compacted = std::make_shared<index::SegmentedLibrary>(
      index::SegmentedLibrary::open(man_path));
  core::Pipeline from_compacted(cfg);
  from_compacted.set_library(compacted);
  EXPECT_EQ(from_compacted.reference_encode_count(), 0u);
  expect_identical(want, from_compacted.run(workload.queries));

  remove_segmented(man_path);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SegmentedVsOneShot,
                         testing::Values("ideal-hd", "rram-statistical",
                                         "rram-circuit", "sharded"));

TEST(IndexSegment, CompactionIsByteIdenticalToOneShotArtifact) {
  const auto workload = small_workload(150, 0, 34);
  const auto cfg = test_config("ideal-hd");
  const index::IndexBuilder builder(cfg);

  const std::string man_path = temp_path("seg_compact.omsman");
  grow_in_parts(builder, workload.references, 3, man_path);
  // Old segment files are superseded and must be gone afterwards.
  const auto before = index::Manifest::load(man_path);
  (void)builder.compact(man_path);
  const auto after = index::Manifest::load(man_path);
  ASSERT_EQ(after.segments.size(), 1u);
  const auto dir = std::filesystem::path(man_path).parent_path();
  for (const auto& seg : before.segments) {
    EXPECT_FALSE(std::filesystem::exists(dir / seg.name)) << seg.name;
  }

  const std::string one_shot_path = temp_path("seg_compact_oneshot.omsx");
  (void)builder.build(workload.references, one_shot_path);
  const std::string compacted_bytes =
      read_bytes((dir / after.segments[0].name).string());
  const std::string one_shot_bytes = read_bytes(one_shot_path);
  EXPECT_FALSE(compacted_bytes.empty());
  EXPECT_EQ(compacted_bytes, one_shot_bytes);

  std::remove(one_shot_path.c_str());
  remove_segmented(man_path);
}

TEST(IndexSegment, OneExtentViewLostOnSegmentsRestoredByCompaction) {
  const auto workload = small_workload(120, 0, 35);
  const auto cfg = test_config("ideal-hd");
  const index::IndexBuilder builder(cfg);
  const std::string man_path = temp_path("seg_matrix.omsman");
  grow_in_parts(builder, workload.references, 2, man_path);

  {
    const auto lib = index::SegmentedLibrary::open(man_path);
    ASSERT_EQ(lib.segment_count(), 2u);
    // Word blocks live in two disjoint mappings interleaved by mass: no
    // single contiguous extent exists...
    EXPECT_FALSE(hd::RefView::from_span(lib.hypervectors()).contiguous());
    // ...but the piecewise view still covers every row with block-sweep
    // extents — fragmentation costs extents, not the SIMD kernel.
    const hd::RefView& view = lib.ref_view();
    ASSERT_TRUE(view.valid());
    EXPECT_EQ(view.count(), lib.size());
    EXPECT_GT(view.extent_count(), 1u);
    EXPECT_FALSE(view.contiguous());
  }
  (void)builder.compact(man_path);
  {
    const auto lib = index::SegmentedLibrary::open(man_path);
    ASSERT_EQ(lib.segment_count(), 1u);
    EXPECT_TRUE(hd::RefView::from_span(lib.hypervectors()).contiguous());
    // One segment degenerates to the monolithic layout: a single extent
    // over the segment's mapped word block.
    EXPECT_TRUE(lib.ref_view().contiguous());
    EXPECT_EQ(lib.ref_view().extent_count(), 1u);
    EXPECT_EQ(lib.ref_view().extents().front().words,
              lib.segment(0).hypervectors().front().words().data());
  }
  remove_segmented(man_path);
}

// A monolithic OMSXIDX1 file is a one-segment library: open() tells it
// from a manifest by magic, and the result aliases the index (entries,
// hypervector views, mass axis) instead of copying it — and searches
// bit-identically to adopting the index directly.
TEST(IndexSegment, MonolithicIndexOpensAsOneSegmentAlias) {
  const auto workload = small_workload(200, 40, 43);
  const std::string idx_path = temp_path("seg_monolithic.omsx");
  for (const char* backend : {"ideal-hd", "rram-statistical"}) {
    const auto cfg = test_config(backend);
    const index::IndexBuilder builder(cfg);
    (void)builder.build(workload.references, idx_path);

    const auto lib = std::make_shared<const index::SegmentedLibrary>(
        index::SegmentedLibrary::open(idx_path));
    ASSERT_EQ(lib->segment_count(), 1u);
    EXPECT_EQ(lib->ref_view().extent_count(), 1u);
    EXPECT_EQ(&lib->library(), &lib->segment(0).library());
    EXPECT_EQ(lib->hypervectors().data(),
              lib->segment(0).hypervectors().data());
    EXPECT_EQ(lib->mass_axis().data(), lib->segment(0).mass_axis().data());
    EXPECT_EQ(lib->size(), lib->segment(0).size());
    EXPECT_EQ(lib->locate(7).segment, 0u);
    EXPECT_EQ(lib->locate(7).local, 7u);
    EXPECT_EQ(lib->generation(), 0u);  // never grows; keyed by path
    // There is no segment list to rewrite.
    EXPECT_THROW((void)builder.compact(idx_path), std::runtime_error);

    core::Pipeline from_index(cfg);
    from_index.set_library(std::make_shared<const index::LibraryIndex>(
        index::LibraryIndex::open(idx_path)));
    core::Pipeline from_library(cfg);
    from_library.set_library(lib);
    EXPECT_EQ(from_library.reference_encode_count(), 0u);
    expect_identical(from_index.run(workload.queries),
                     from_library.run(workload.queries));
  }
  std::remove(idx_path.c_str());
}

// Piecewise-sweep bit-identity: for every backend and every segment count
// in {1, 2, 5}, the full pipeline over a segmented library — whose
// exact-HD sweeps now run per-extent on hd::RefView — must match the
// in-process one-shot run PSM for PSM. (The encoder pins pipeline dims to
// multiples of 64; ragged-tail-word coverage at non-multiple-of-64 dims
// lives in the kernel-level piecewise tests below and in
// property_sweeps_test's PiecewiseLayoutSweep.)
class PiecewiseSweep : public testing::TestWithParam<const char*> {};

TEST_P(PiecewiseSweep, BitIdenticalToMonolithicAcrossSegmentCounts) {
  const std::string backend = GetParam();
  const bool circuit = backend == "rram-circuit";
  const std::uint32_t dim = circuit ? 512 : 2048;
  const auto workload =
      circuit ? small_workload(40, 12, 11) : small_workload(260, 50, 11);
  auto cfg = test_config(backend, dim);
  if (backend == "sharded") cfg.backend_options.max_refs_per_shard = 90;

  core::Pipeline one_shot(cfg);
  one_shot.set_library(workload.references);
  const auto want = one_shot.run(workload.queries);

  const index::IndexBuilder builder(cfg);
  for (const std::size_t parts : {1u, 2u, 5u}) {
    const std::string man_path = temp_path("seg_piecewise_" + backend + "_" +
                                           std::to_string(parts) + ".omsman");
    grow_in_parts(builder, workload.references, parts, man_path);

    auto lib = std::make_shared<index::SegmentedLibrary>(
        index::SegmentedLibrary::open(man_path));
    ASSERT_EQ(lib->segment_count(), parts);
    const hd::RefView& view = lib->ref_view();
    ASSERT_TRUE(view.valid());
    EXPECT_EQ(view.count(), lib->size());
    EXPECT_EQ(view.dim(), dim);
    EXPECT_EQ(view.contiguous(), parts == 1) << parts << " segments";
    // The extents partition [0, count) in ascending base order — the
    // invariant that keeps the per-extent sweep's visit order (and thus
    // the equal-score tie-break) identical to the monolithic scan.
    std::size_t next = 0;
    for (const hd::RefExtent& e : view.extents()) {
      ASSERT_EQ(e.base, next);
      ASSERT_GT(e.rows, 0u);
      next = e.base + e.rows;
    }
    EXPECT_EQ(next, view.count());

    core::Pipeline from_segments(cfg);
    from_segments.set_library(lib);
    EXPECT_EQ(from_segments.reference_encode_count(), 0u);
    expect_identical(want, from_segments.run(workload.queries));
    remove_segmented(man_path);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, PiecewiseSweep,
                         testing::Values("ideal-hd", "rram-statistical",
                                         "rram-circuit", "sharded"));

TEST(IndexSegment, PiecewiseBatchedSweepMatchesMonolithicCopy) {
  // Kernel-level check, below the pipeline: batched search over a
  // 5-segment library's piecewise view vs (a) a one-extent view over a
  // monolithic contiguous copy and (b) the per-query span oracle over the
  // same rows.
  const auto workload = small_workload(220, 0, 41);
  const auto cfg = test_config("ideal-hd", 2048);
  const index::IndexBuilder builder(cfg);
  const std::string man_path = temp_path("seg_piecewise_kernel.omsman");
  grow_in_parts(builder, workload.references, 5, man_path);
  const auto lib = index::SegmentedLibrary::open(man_path);
  const hd::RefView& view = lib.ref_view();
  ASSERT_TRUE(view.valid());
  ASSERT_GT(view.extent_count(), 1u);

  // Monolithic copy: the exact bytes, one contiguous block.
  const std::size_t wc = view.word_count();
  std::vector<std::uint64_t> flat(view.count() * wc);
  for (std::size_t i = 0; i < view.count(); ++i) {
    std::memcpy(flat.data() + i * wc, view.row(i), wc * sizeof(std::uint64_t));
  }
  std::vector<util::BitVec> flat_views;
  for (std::size_t i = 0; i < view.count(); ++i) {
    flat_views.push_back(util::BitVec::view(flat.data() + i * wc, view.dim()));
  }
  const hd::RefView mono = hd::RefView::from_span(flat_views);
  ASSERT_TRUE(mono.contiguous());

  std::vector<util::BitVec> queries(16);
  std::vector<hd::BatchQuery> batch;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    queries[q] = util::BitVec(view.dim());
    queries[q].randomize(1234 + q);
    // Ranges straddle extent boundaries at various offsets.
    const std::size_t first = (q * 13) % (view.count() / 2);
    const std::size_t last = view.count() - (q * 7) % (view.count() / 3);
    batch.push_back({&queries[q], first, last, q});
  }

  const auto piecewise = hd::top_k_search_batch(batch, view, 6);
  const auto contiguous = hd::top_k_search_batch(batch, mono, 6);
  ASSERT_EQ(piecewise.size(), batch.size());
  for (std::size_t q = 0; q < batch.size(); ++q) {
    EXPECT_EQ(piecewise[q],
              hd::top_k_search(queries[q], lib.hypervectors(), batch[q].first,
                               batch[q].last, 6))
        << "query " << q;
    EXPECT_EQ(piecewise[q], contiguous[q]) << "query " << q;
    // And the per-query piecewise overload agrees with the batch.
    EXPECT_EQ(piecewise[q],
              hd::top_k_search(queries[q], view, batch[q].first,
                               batch[q].last, 6))
        << "query " << q;
  }
  remove_segmented(man_path);
}

TEST(IndexSegment, AppendCostIsTheBatchNotTheLibrary) {
  const auto cfg = test_config("ideal-hd");
  const index::IndexBuilder builder(cfg);
  const std::string man_path = temp_path("seg_append_stats.omsman");
  std::remove(man_path.c_str());

  const auto base = small_workload(200, 0, 36).references;
  const auto batch = small_workload(40, 0, 37).references;
  const auto s1 = builder.append(base, man_path);
  EXPECT_EQ(s1.targets_in, base.size());
  const auto s2 = builder.append(batch, man_path);
  // The appended segment holds only the new spectra (plus their decoys) —
  // the existing 200-reference base was neither read back nor re-encoded.
  EXPECT_EQ(s2.targets_in, batch.size());
  EXPECT_LE(s2.entries, 2 * batch.size());
  EXPECT_LT(s2.file_bytes, s1.file_bytes);
  EXPECT_EQ(index::Manifest::load(man_path).total_entries(),
            s1.entries + s2.entries);
  remove_segmented(man_path);
}

TEST(IndexSegment, AppendValidatesFingerprintAndRefusesInjectedBer) {
  const auto cfg = test_config("ideal-hd");
  const index::IndexBuilder builder(cfg);
  const std::string man_path = temp_path("seg_guard.omsman");
  std::remove(man_path.c_str());
  const auto refs = small_workload(60, 0, 38).references;
  (void)builder.append(refs, man_path);

  // A config drift (different pipeline seed) is a different fingerprint:
  // the append must fail before writing anything.
  auto drifted = cfg;
  drifted.seed = 999;
  const auto man_before = index::Manifest::load(man_path);
  EXPECT_THROW((void)index::IndexBuilder(drifted).append(refs, man_path),
               std::invalid_argument);
  EXPECT_EQ(index::Manifest::load(man_path).combined_hash(),
            man_before.combined_hash());

  // injected_ber draws one batch-sequential error realization across the
  // whole library: growing it segment-wise would change stored bytes, so
  // append refuses outright (even for the very first segment).
  auto ber = cfg;
  ber.injected_ber = 0.001;
  const std::string ber_path = temp_path("seg_ber.omsman");
  std::remove(ber_path.c_str());
  EXPECT_THROW((void)index::IndexBuilder(ber).append(refs, ber_path),
               std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(ber_path));
  remove_segmented(man_path);
}

TEST(IndexSegment, LibraryCacheKeysManifestsByGeneration) {
  const auto cfg = test_config("ideal-hd");
  const index::IndexBuilder builder(cfg);
  const std::string man_path = temp_path("seg_cache.omsman");
  std::remove(man_path.c_str());
  (void)builder.append(small_workload(80, 0, 39).references, man_path);

  serve::LibraryCache cache;
  auto first = cache.lease(man_path, cfg);
  ASSERT_TRUE(first.segmented != nullptr);
  EXPECT_EQ(first.segmented->generation(),
            index::Manifest::load(man_path).combined_hash());
  EXPECT_FALSE(first.cache_hit);
  auto second = cache.lease(man_path, cfg);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.segmented.get(), first.segmented.get());

  // Growing the library is a new generation: the next lease must NOT be
  // served the stale two-segment-old mapping.
  (void)builder.append(small_workload(30, 0, 40).references, man_path);
  auto third = cache.lease(man_path, cfg);
  EXPECT_FALSE(third.cache_hit);
  ASSERT_TRUE(third.segmented != nullptr);
  EXPECT_NE(third.segmented.get(), first.segmented.get());
  EXPECT_GT(third.segmented->size(), first.segmented->size());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);

  remove_segmented(man_path);
}

}  // namespace
