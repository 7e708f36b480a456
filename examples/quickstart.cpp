// Quickstart: the smallest end-to-end use of the library.
//
//   1. Generate a synthetic spectral library + query set (stand-in for
//      real mzML/MGF data — see examples/library_tools.cpp for file IO).
//   2. Build the OMS pipeline: preprocess → HD encode → Hamming search
//      over a ±500 Da precursor window → target-decoy FDR filter.
//   3. Print the identification summary and a few example matches.
//
// The search substrate is picked by name through the backend registry, and
// the streaming query engine is tunable from the command line:
//
//   ./build/examples/quickstart --backend=rram-statistical \
//       --batch-size=32 --threads=4
//
// --batch-size sets the query-block size the engine admits per search
// pass; --threads sizes the global thread pool the engine's blocks run on
// (and how many of them run at once).
//
// Build-once / load-many: --index-out=FILE persists the encoded library as
// a LibraryIndex after the first run; --index-in=FILE cold-starts from
// that artifact instead of re-encoding (identical results, zero encode
// calls on the reference side).
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/query_engine.hpp"
#include "index/index_builder.hpp"
#include "index/library_index.hpp"
#include "ms/synthetic.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  const oms::util::Cli cli(argc, argv);
  const std::string backend = cli.get("backend", std::string("ideal-hd"));
  const auto batch_size = static_cast<std::size_t>(cli.get("batch-size", 64L));
  const auto threads = static_cast<std::size_t>(cli.get("threads", 0L));
  const std::string index_in = cli.get("index-in", std::string());
  const std::string index_out = cli.get("index-out", std::string());
  // Size the shared pool before anything touches it (0 = all cores).
  oms::util::ThreadPool::set_global_threads(threads);

  // --- 1. Data: 2000 reference peptides, 300 query spectra, ~45% of which
  // carry a post-translational modification the library does not contain.
  oms::ms::WorkloadConfig data_cfg;
  data_cfg.reference_count = 2000;
  data_cfg.query_count = 300;
  data_cfg.seed = 7;
  const oms::ms::Workload workload = oms::ms::generate_workload(data_cfg);
  std::printf("library: %zu peptides   queries: %zu spectra (%zu modified)\n",
              workload.references.size(), workload.queries.size(),
              workload.modified_query_count());

  // --- 2. Pipeline at the paper's operating point: D = 8192, 3-bit IDs.
  oms::core::PipelineConfig cfg;
  cfg.encoder.dim = 8192;
  cfg.encoder.bins = cfg.preprocess.bin_count();
  cfg.encoder.chunks = 256;
  cfg.encoder.id_precision = oms::hd::IdPrecision::k3Bit;
  cfg.oms_window_da = 500.0;  // open modification search window
  cfg.fdr_threshold = 0.01;   // accept at 1% FDR
  cfg.backend_name = backend;

  oms::core::Pipeline pipeline(cfg);
  try {
    if (!index_in.empty()) {
      // Cold start from the persisted artifact: entries + hypervectors
      // come off the mapped file, nothing is re-encoded.
      auto idx = std::make_shared<oms::index::LibraryIndex>(
          oms::index::LibraryIndex::open(index_in));
      pipeline.set_library(idx);
      std::printf("loaded index %s: %zu entries, %zu bytes (%s), "
                  "%zu reference encodes\n",
                  index_in.c_str(), idx->size(), idx->file_size(),
                  idx->mapped() ? "mmap" : "in-memory",
                  pipeline.reference_encode_count());
    } else {
      pipeline.set_library(workload.references);
    }
  } catch (const std::exception& e) {
    // Typo'd --backend, unreadable/corrupt --index-in, or an index built
    // under a different configuration: fail with the story.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("search backend: %s\n", pipeline.backend_name().c_str());
  if (!index_out.empty()) {
    const auto st =
        oms::index::IndexBuilder::write_from_pipeline(pipeline, index_out);
    std::printf("persisted index %s: %zu entries, %zu bytes\n",
                index_out.c_str(), st.entries, st.file_bytes);
  }

  // --- 3. Stream the queries through the engine and report. The engine
  // runs `batch_size`-query blocks (preprocess → encode → search →
  // rescore) on the pool; results are bit-identical to pipeline.run.
  oms::core::QueryEngineConfig ecfg;
  ecfg.block_size = batch_size;
  // Each block fans its queries out over the pool itself; a handful of
  // blocks at once saturates it without oversubscribing.
  ecfg.stage_threads = std::min<std::size_t>(
      8, oms::util::ThreadPool::global().thread_count());
  oms::core::QueryEngine engine(pipeline, ecfg);
  engine.submit_batch(workload.queries);
  const oms::core::PipelineResult result = engine.drain();
  const oms::core::QueryEngineStats es = engine.stats();
  std::printf("streamed %zu queries in %zu blocks of %zu (%zu stage threads)\n",
              es.submitted, es.blocks, es.block_size, es.stage_threads);
  std::printf("searched %zu queries against %zu targets + %zu decoys\n",
              result.queries_searched, result.library_targets,
              result.library_decoys);
  std::printf("identified %zu peptides at 1%% FDR\n\n",
              result.identifications());

  std::printf("first few identifications:\n");
  std::printf("  query   peptide               similarity  mass shift (Da)\n");
  for (std::size_t i = 0; i < result.accepted.size() && i < 8; ++i) {
    const auto& p = result.accepted[i];
    std::printf("  %-7u %-21s %.4f      %+.3f\n", p.query_id,
                p.peptide.c_str(), p.score, p.mass_shift);
  }

  // --print-psms: one sorted, round-trippable line per accepted PSM, in
  // the serve-layer protocol's PSM format — so a solo quickstart run can
  // be diffed against examples/search_server output (the CI smoke test).
  if (cli.has("print-psms")) {
    std::vector<std::string> lines;
    lines.reserve(result.accepted.size());
    for (const auto& p : result.accepted) {
      char buf[320];
      std::snprintf(buf, sizeof buf, "PSM %u %s %.17g %.17g", p.query_id,
                    p.peptide.c_str(), p.score, p.mass_shift);
      lines.emplace_back(buf);
    }
    std::sort(lines.begin(), lines.end());
    for (const std::string& l : lines) std::printf("%s\n", l.c_str());
  }
  return 0;
}
