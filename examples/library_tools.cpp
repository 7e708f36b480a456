// Spectral-library tooling: build an annotated library, write it to MGF
// and (subset-)mzML, read both back, and run a search against the
// round-tripped library — the workflow for using this codebase with real
// data files.
//
// Usage: library_tools [--out=/tmp] [--peptides=500]
//                      [--index-out=FILE] [--index-in=FILE]
//
// --index-out persists the encoded library as a full LibraryIndex
// artifact; --index-in searches from a previously persisted artifact
// instead of re-encoding (the build-once/load-many flow).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "core/pipeline.hpp"
#include "index/index_builder.hpp"
#include "index/library_index.hpp"
#include "ms/mgf.hpp"
#include "ms/mzml.hpp"
#include "ms/synthetic.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  const oms::util::Cli cli(argc, argv);
  const std::string out_dir = cli.get("out", std::string("/tmp"));
  const auto n_peptides =
      static_cast<std::size_t>(cli.get("peptides", 500L));

  // Build an annotated reference library.
  const auto peptides =
      oms::ms::generate_tryptic_peptides(n_peptides, 7, 25, 2024);
  const oms::ms::SynthesisParams params{};
  std::vector<oms::ms::Spectrum> library;
  std::uint32_t id = 0;
  for (const auto& pep : peptides) {
    library.push_back(oms::ms::synthesize_spectrum(pep, 2, params, 3, id++));
  }

  // Write both formats.
  const std::string mgf_path = out_dir + "/oms_library.mgf";
  const std::string mzml_path = out_dir + "/oms_library.mzML";
  oms::ms::write_mgf_file(mgf_path, library);
  oms::ms::write_mzml_file(mzml_path, library);
  std::printf("wrote %zu spectra to:\n  %s\n  %s\n", library.size(),
              mgf_path.c_str(), mzml_path.c_str());

  // Read back and verify.
  const auto from_mgf = oms::ms::read_mgf_file(mgf_path);
  const auto from_mzml = oms::ms::read_mzml_file(mzml_path);
  std::printf("read back: %zu (MGF), %zu (mzML)\n", from_mgf.size(),
              from_mzml.size());

  // Queries: noisy replicas of 50 library peptides.
  oms::ms::SynthesisParams query_params;
  query_params.mz_jitter = 0.01;
  query_params.keep_probability = 0.8;
  query_params.noise_peaks = 10;
  std::vector<oms::ms::Spectrum> queries;
  for (std::size_t i = 0; i < 50 && i < peptides.size(); ++i) {
    queries.push_back(oms::ms::synthesize_spectrum(peptides[i * 7 % peptides.size()],
                                                   2, query_params, 9, id++));
  }

  // Search against the mzML round-tripped library — or, with --index-in,
  // against a previously persisted LibraryIndex (zero re-encoding).
  const std::string index_in = cli.get("index-in", std::string());
  const std::string index_out = cli.get("index-out", std::string());
  oms::core::PipelineConfig cfg;
  cfg.encoder.dim = 4096;
  cfg.encoder.bins = cfg.preprocess.bin_count();
  cfg.encoder.chunks = 128;
  oms::core::Pipeline pipeline(cfg);
  try {
    if (!index_in.empty()) {
      auto idx = std::make_shared<oms::index::LibraryIndex>(
          oms::index::LibraryIndex::open(index_in));
      pipeline.set_library(idx);
      std::printf("loaded index %s: %zu entries (%s)\n", index_in.c_str(),
                  idx->size(), idx->mapped() ? "mmap" : "in-memory");
    } else {
      pipeline.set_library(from_mzml);
    }
  } catch (const std::exception& e) {
    // Unreadable --index-in or one built under a different configuration.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const auto result = pipeline.run(queries);
  std::printf("searched %zu queries against the round-tripped library: "
              "%zu identified at 1%% FDR\n",
              queries.size(), result.identifications());

  // Persist the full search artifact: entries + hypervector word block +
  // fingerprint, reloadable with LibraryIndex::open / --index-in. Runs
  // when the user asked for it (--index-out) or as a throwaway demo on
  // the build path — never on a pure --index-in load, where rewriting
  // (and cleaning up) a default path could clobber the user's artifact.
  const bool demo_persist = index_out.empty() && index_in.empty();
  const std::string index_path =
      index_out.empty() ? out_dir + "/oms_library.omsx" : index_out;
  if (!index_out.empty() || demo_persist) {
    const auto build_stats =
        oms::index::IndexBuilder::write_from_pipeline(pipeline, index_path);
    const auto reopened = oms::index::LibraryIndex::open(index_path);
    // The reloaded word block must hold exactly the vectors the pipeline
    // encoded: the artifact replaces re-encoding, so any drift is a bug.
    const auto encoded = pipeline.reference_hvs();
    const auto stored = reopened.hypervectors();
    if (!std::equal(encoded.begin(), encoded.end(), stored.begin(),
                    stored.end())) {
      std::fprintf(stderr, "error: %s reloads different hypervectors\n",
                   index_path.c_str());
      return 1;
    }
    std::printf("library index persisted: %zu entries, %zu bytes (%s), "
                "reload OK (%zu hypervectors identical, %s)\n",
                build_stats.entries, build_stats.file_bytes,
                index_path.c_str(), stored.size(),
                reopened.mapped() ? "mmap" : "in-memory");
  }

  std::remove(mgf_path.c_str());
  std::remove(mzml_path.c_str());
  if (demo_persist) std::remove(index_path.c_str());
  return 0;
}
