// Cold-start latency: how long until a fresh process answers its first
// query, comparing the legacy path (synthesize decoys + preprocess +
// encode the whole library in-process) against loading a persistent
// index::LibraryIndex (mmap the word block, zero encode calls). This is
// the restarted-replica story behind the ROADMAP's heavy-traffic serving
// goal: the paper's "encode offline, store in memory" data flow (§4)
// turned into an artifact.
//
// Also reports index build throughput (spectra/sec through
// index::IndexBuilder) and the artifact size. Emits machine-readable
// BENCH_index_coldstart.json next to the table.
//
// Usage: index_coldstart [--scale=1.0] [--refs=6000] [--queries=8]
//                        [--dim=8192] [--reps=3]
//                        [--out=BENCH_index_coldstart.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "hd/search.hpp"
#include "index/index_builder.hpp"
#include "index/library_index.hpp"
#include "index/manifest.hpp"
#include "index/segmented_library.hpp"
#include "util/bitvec.hpp"

namespace {

/// One timed IndexBuilder::append of a fixed batch onto a segmented
/// library with `base_refs` already-encoded references. Append cost must
/// track the batch, not the base — that is the whole point of segments.
struct AppendMeasurement {
  std::size_t base_refs = 0;
  std::size_t batch_refs = 0;
  double append_s = 0.0;   ///< Wall clock for the append call.
  double encode_s = 0.0;   ///< Encode share (new spectra only).
  std::size_t segment_bytes = 0;
};

struct Measurement {
  std::string backend;
  std::size_t references = 0;   ///< Target spectra (pre-decoy).
  std::size_t entries = 0;      ///< Library entries (with decoys).
  double build_first_psm_s = 0.0;  ///< set_library(spectra) + first query.
  double load_first_psm_s = 0.0;   ///< open + set_library(index) + query.
  double index_build_s = 0.0;
  double index_spectra_per_sec = 0.0;
  std::size_t index_bytes = 0;
  bool mapped = false;

  [[nodiscard]] double speedup() const noexcept {
    return load_first_psm_s > 0.0 ? build_first_psm_s / load_first_psm_s
                                  : 0.0;
  }
};

/// Batched exact-search throughput over one multi-segment library: the
/// piecewise extent sweep over the fragmented mapping, and the contiguous
/// sweep after compaction.
struct MultisegMeasurement {
  std::size_t segments = 0;
  std::size_t extents = 0;       ///< Piecewise view extents pre-compaction.
  std::size_t rows = 0;          ///< Library entries swept.
  double piecewise_qps = 0.0;
  double contiguous_qps = 0.0;   ///< Post-compaction (1 extent).
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void write_json(const std::string& path,
                const std::vector<Measurement>& results,
                const std::vector<AppendMeasurement>& appends,
                const MultisegMeasurement& multiseg, std::size_t dim) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"index_coldstart\",\n  \"dim\": " << dim
      << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    out << "    {\"backend\": \"" << m.backend
        << "\", \"references\": " << m.references
        << ", \"entries\": " << m.entries
        << ", \"build_first_psm_seconds\": " << m.build_first_psm_s
        << ", \"load_first_psm_seconds\": " << m.load_first_psm_s
        << ", \"coldstart_speedup\": " << m.speedup()
        << ", \"index_build_seconds\": " << m.index_build_s
        << ", \"index_build_spectra_per_sec\": " << m.index_spectra_per_sec
        << ", \"index_file_bytes\": " << m.index_bytes
        << ", \"mmap\": " << (m.mapped ? "true" : "false")
        << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"append\": [\n";
  for (std::size_t i = 0; i < appends.size(); ++i) {
    const AppendMeasurement& a = appends[i];
    out << "    {\"base_references\": " << a.base_refs
        << ", \"batch_references\": " << a.batch_refs
        << ", \"append_seconds\": " << a.append_s
        << ", \"append_encode_seconds\": " << a.encode_s
        << ", \"segment_bytes\": " << a.segment_bytes << "}"
        << (i + 1 < appends.size() ? "," : "") << "\n";
  }
  // Time appending the SAME batch onto a small vs a large base: near 1.0
  // means append cost scales with the new spectra, not the library size.
  const double ratio =
      appends.size() >= 2 && appends.front().append_s > 0.0
          ? appends.back().append_s / appends.front().append_s
          : 0.0;
  out << "  ],\n  \"append_large_over_small_ratio\": " << ratio
      << ",\n  \"multiseg\": {\"segments\": " << multiseg.segments
      << ", \"extents\": " << multiseg.extents
      << ", \"rows\": " << multiseg.rows
      << ", \"piecewise_qps\": " << multiseg.piecewise_qps
      << ", \"contiguous_qps\": " << multiseg.contiguous_qps
      << "}\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const oms::util::Cli cli(argc, argv);
  const double scale = cli.get_scaled("scale", 1.0);
  const auto n_refs = static_cast<std::size_t>(cli.get(
      "refs", static_cast<long>(std::max(1500.0, 6000.0 * scale))));
  const auto n_queries =
      static_cast<std::size_t>(cli.get("queries", 8L));
  const auto dim = static_cast<std::uint32_t>(cli.get("dim", 8192L));
  const auto reps = std::max<std::size_t>(
      1, static_cast<std::size_t>(cli.get("reps", 3L)));
  const std::string out_path =
      cli.get("out", std::string("BENCH_index_coldstart.json"));

  oms::bench::print_header(
      "Cold start: build-from-spectra vs load-from-index",
      "the paper's encode-offline/store-in-memory data flow (§4) as a "
      "persistent artifact");

  oms::ms::WorkloadConfig data_cfg;
  data_cfg.reference_count = n_refs;
  data_cfg.query_count = n_queries;
  data_cfg.seed = 11;
  const auto workload = oms::ms::generate_workload(data_cfg);
  std::printf("workload: %zu references, first-PSM probe of %zu queries, "
              "D=%u\n\n",
              workload.references.size(), workload.queries.size(), dim);

  const char* backends[] = {"ideal-hd", "rram-statistical", "sharded"};
  std::vector<Measurement> results;
  oms::util::Table table({"backend", "build→PSM (s)", "load→PSM (s)",
                          "speedup", "build (spec/s)", "file (MB)"});

  for (const char* backend : backends) {

    oms::core::PipelineConfig cfg = oms::bench::paper_pipeline_config(dim);
    cfg.backend_name = backend;
    if (std::string(backend) == "sharded") {
      cfg.backend_options.max_refs_per_shard =
          std::max<std::size_t>(1, 2 * workload.references.size() / 4);
    }

    Measurement m;
    m.backend = backend;
    m.references = workload.references.size();

    // --- legacy path: everything re-derived in-process ------------------
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      oms::core::Pipeline pipeline(cfg);
      pipeline.set_library(workload.references);
      const auto r = pipeline.run(workload.queries);
      const double secs = seconds_since(t0);
      m.build_first_psm_s =
          rep == 0 ? secs : std::min(m.build_first_psm_s, secs);
      if (rep == 0) m.entries = pipeline.library().size();
      (void)r;
    }

    // --- build the artifact once -----------------------------------------
    const std::string index_path = "/tmp/omshd_coldstart_" +
                                   std::string(backend) + ".omsx";
    const oms::index::IndexBuilder builder(cfg);
    const auto build_stats = builder.build(workload.references, index_path);
    m.index_build_s = build_stats.encode_seconds + build_stats.write_seconds;
    m.index_spectra_per_sec = build_stats.spectra_per_sec();
    m.index_bytes = build_stats.file_bytes;

    // --- cold start from the artifact ------------------------------------
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      auto idx = std::make_shared<oms::index::LibraryIndex>(
          oms::index::LibraryIndex::open(index_path));
      oms::core::Pipeline pipeline(cfg);
      pipeline.set_library(idx);
      const auto r = pipeline.run(workload.queries);
      const double secs = seconds_since(t0);
      m.load_first_psm_s =
          rep == 0 ? secs : std::min(m.load_first_psm_s, secs);
      if (rep == 0) m.mapped = idx->mapped();
      (void)r;
    }
    std::remove(index_path.c_str());

    results.push_back(m);
    table.add_row({m.backend, oms::util::Table::fmt(m.build_first_psm_s, 3),
                   oms::util::Table::fmt(m.load_first_psm_s, 3),
                   oms::util::Table::fmt(m.speedup(), 1),
                   oms::util::Table::fmt(m.index_spectra_per_sec, 0),
                   oms::util::Table::fmt(
                       static_cast<double>(m.index_bytes) / 1048576.0, 2)});
  }

  std::printf("%s\n", table.str().c_str());

  // --- segmented append: cost scales with the batch, not the base -------
  // Append one fixed batch of fresh spectra onto a small and onto a large
  // segmented library; comparable wall times show the incremental-growth
  // claim (only the new spectra are encoded; existing segments are
  // untouched on disk).
  oms::core::PipelineConfig append_cfg = oms::bench::paper_pipeline_config(dim);
  append_cfg.backend_name = "ideal-hd";
  const oms::index::IndexBuilder append_builder(append_cfg);

  const std::size_t batch_n = std::max<std::size_t>(64, n_refs / 8);
  oms::ms::WorkloadConfig batch_cfg;
  batch_cfg.reference_count = batch_n;
  batch_cfg.query_count = 0;
  batch_cfg.seed = 12;
  const auto batch = oms::ms::generate_workload(batch_cfg).references;

  std::vector<AppendMeasurement> appends;
  const std::size_t bases[] = {std::max<std::size_t>(batch_n, n_refs / 4),
                               n_refs};
  for (const std::size_t base_n : bases) {
    const std::string man_path =
        "/tmp/omshd_coldstart_append_" + std::to_string(base_n) + ".omsman";
    std::remove(man_path.c_str());
    const std::vector<oms::ms::Spectrum> base(
        workload.references.begin(),
        workload.references.begin() + static_cast<std::ptrdiff_t>(base_n));
    (void)append_builder.append(base, man_path);  // seeds the manifest

    AppendMeasurement a;
    a.base_refs = base_n;
    a.batch_refs = batch_n;
    const auto t0 = std::chrono::steady_clock::now();
    const auto stats = append_builder.append(batch, man_path);
    a.append_s = seconds_since(t0);
    a.encode_s = stats.encode_seconds;
    a.segment_bytes = stats.file_bytes;
    appends.push_back(a);

    const auto man = oms::index::Manifest::load(man_path);
    const auto dir = std::filesystem::path(man_path).parent_path();
    for (const auto& seg : man.segments) {
      std::filesystem::remove(dir / seg.name);
    }
    std::remove(man_path.c_str());

    std::printf("append %zu spectra onto %zu-ref base: %.3f s "
                "(encode %.3f s, segment %.2f MB)\n",
                batch_n, base_n, a.append_s, a.encode_s,
                static_cast<double>(a.segment_bytes) / 1048576.0);
  }
  if (appends.size() == 2 && appends.front().append_s > 0.0) {
    std::printf("append time large-base / small-base: %.2fx "
                "(≈1.0 ⇒ cost follows the batch, not the library)\n\n",
                appends.back().append_s / appends.front().append_s);
  }

  // --- multi-segment search throughput ----------------------------------
  // One library grown as two appended halves: its word rows live in two
  // disjoint mappings interleaved by mass, so its view has many extents.
  // Compare the batched exact sweep over that piecewise view with the
  // one-extent sweep after compaction.
  MultisegMeasurement ms_m;
  {
    oms::core::PipelineConfig seg_cfg =
        oms::bench::paper_pipeline_config(dim);
    seg_cfg.backend_name = "ideal-hd";
    const oms::index::IndexBuilder seg_builder(seg_cfg);
    const std::string man_path = "/tmp/omshd_coldstart_multiseg.omsman";
    std::remove(man_path.c_str());
    const std::size_t half = workload.references.size() / 2;
    (void)seg_builder.append(
        std::vector<oms::ms::Spectrum>(
            workload.references.begin(),
            workload.references.begin() + static_cast<std::ptrdiff_t>(half)),
        man_path);
    (void)seg_builder.append(
        std::vector<oms::ms::Spectrum>(
            workload.references.begin() + static_cast<std::ptrdiff_t>(half),
            workload.references.end()),
        man_path);

    const auto cleanup = [&man_path] {
      const auto man = oms::index::Manifest::load(man_path);
      const auto dir = std::filesystem::path(man_path).parent_path();
      for (const auto& seg : man.segments) {
        std::filesystem::remove(dir / seg.name);
      }
      std::remove(man_path.c_str());
    };

    const auto lib = oms::index::SegmentedLibrary::open(man_path);
    ms_m.segments = lib.segment_count();
    ms_m.extents = lib.ref_view().extent_count();
    ms_m.rows = lib.size();

    // Random probe hypervectors with paper-shaped mass windows (±500 Da
    // around masses spread across the axis); content-independent, so both
    // layouts sweep identical candidate ranges.
    constexpr std::size_t kProbes = 64;
    constexpr std::size_t kTopK = 4;
    std::vector<oms::util::BitVec> probes(kProbes);
    std::vector<oms::hd::BatchQuery> batch;
    for (std::size_t q = 0; q < kProbes; ++q) {
      probes[q] = oms::util::BitVec(dim);
      probes[q].randomize(8800 + q);
      const double mass =
          lib.mass_axis()[(q * lib.size()) / kProbes];
      const auto [first, last] = lib.mass_window(mass, 500.0);
      batch.push_back({&probes[q], first, last, q});
    }

    const auto time_qps = [&](auto&& sweep) {
      constexpr std::size_t kIters = 5;
      double best = 0.0;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t it = 0; it < kIters; ++it) sweep();
        const double secs = seconds_since(t0);
        if (secs > 0.0) {
          best = std::max(
              best, static_cast<double>(kProbes * kIters) / secs);
        }
      }
      return best;
    };

    // Sanity first: both layouts must agree bit for bit with the
    // per-query span oracle.
    std::vector<std::vector<oms::hd::SearchHit>> want;
    for (const oms::hd::BatchQuery& q : batch) {
      want.push_back(oms::hd::top_k_search(*q.hv, lib.hypervectors(), q.first,
                                           q.last, kTopK));
    }
    if (oms::hd::top_k_search_batch(batch, lib.ref_view(), kTopK) != want) {
      std::fprintf(stderr,
                   "FATAL: piecewise sweep diverged from the span oracle\n");
      cleanup();
      return 1;
    }

    ms_m.piecewise_qps = time_qps([&] {
      (void)oms::hd::top_k_search_batch(batch, lib.ref_view(), kTopK);
    });

    (void)seg_builder.compact(man_path);
    const auto compacted = oms::index::SegmentedLibrary::open(man_path);
    if (oms::hd::top_k_search_batch(batch, compacted.ref_view(), kTopK) !=
        want) {
      std::fprintf(stderr,
                   "FATAL: compacted sweep diverged from the span oracle\n");
      cleanup();
      return 1;
    }
    ms_m.contiguous_qps = time_qps([&] {
      (void)oms::hd::top_k_search_batch(batch, compacted.ref_view(), kTopK);
    });
    cleanup();

    std::printf(
        "multi-segment batched search (%zu rows, %zu segments, %zu "
        "extents):\n"
        "  piecewise RefView    %10.0f q/s\n"
        "  compacted contiguous %10.0f q/s\n\n",
        ms_m.rows, ms_m.segments, ms_m.extents, ms_m.piecewise_qps,
        ms_m.contiguous_qps);
  }

  write_json(out_path, results, appends, ms_m, dim);
  std::printf("wrote %s\n", out_path.c_str());
  std::printf(
      "Expected shape: load→PSM is well under build→PSM for every backend\n"
      "(the load path maps the word block and encodes only the probe\n"
      "queries). The gap is widest where reference encoding dominates —\n"
      "IMC-model backends pay calibration + keyed noise per reference on\n"
      "the build path.\n");
  return 0;
}
