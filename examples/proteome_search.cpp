// Proteome-to-identification workflow: the full path a real experiment
// takes from a protein database to identified (possibly modified)
// peptides.
//
//   FASTA proteome  --tryptic digest-->  peptides
//   peptides        --spectrum synth-->  reference spectral library
//   "instrument"    ----------------->   query spectra (some modified)
//   pipeline        ----------------->   identifications + TSV report
//
// Usage: proteome_search [--proteins=150] [--out=/tmp/psms.tsv]
//                        [--backend=ideal-hd|rram-statistical|...]
//                        [--batch-size=64] [--threads=0] [--rolling-fdr]
//                        [--index-out=FILE] [--index-in=FILE]
//
// --batch-size is the streaming engine's query-block size; --threads sizes
// the global thread pool (0 = all cores). --rolling-fdr switches the
// engine to the Rolling emission policy: identifications print the moment
// their q-value provably clears the FDR threshold, mid-run, instead of
// only after the final drain — the final PSM list is bit-identical either
// way. --index-out persists the encoded library as a LibraryIndex;
// --index-in cold-starts from one (build once, load many — the restarted
// replica skips digest→synthesize→encode entirely on the reference side).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "core/pipeline.hpp"
#include "core/query_engine.hpp"
#include "core/report.hpp"
#include "index/index_builder.hpp"
#include "index/library_index.hpp"
#include "ms/fasta.hpp"
#include "ms/modifications.hpp"
#include "ms/synthesizer.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  const oms::util::Cli cli(argc, argv);
  const auto n_proteins =
      static_cast<std::size_t>(cli.get("proteins", 150L));
  const std::string out_path = cli.get("out", std::string());
  const std::string backend = cli.get("backend", std::string("ideal-hd"));
  const auto batch_size = static_cast<std::size_t>(cli.get("batch-size", 64L));
  const auto threads = static_cast<std::size_t>(cli.get("threads", 0L));
  const bool rolling_fdr = cli.has("rolling-fdr");
  const std::string index_in = cli.get("index-in", std::string());
  const std::string index_out = cli.get("index-out", std::string());
  oms::util::ThreadPool::set_global_threads(threads);

  // 1. A synthetic proteome, digested with trypsin (1 missed cleavage).
  const auto proteome = oms::ms::generate_proteome(n_proteins, 350, 99);
  oms::ms::DigestConfig digest_cfg;
  const auto peptides = oms::ms::digest_proteome(proteome, digest_cfg);
  std::printf("digested %zu proteins -> %zu unique tryptic peptides\n",
              proteome.size(), peptides.size());

  // 2. Reference library: one consensus spectrum per peptide — skipped
  // entirely when a persisted index supplies the reference side (query
  // ids continue from where the reference ids would have ended, so PSMs
  // match the build-path run line for line).
  const oms::ms::SynthesisParams ref_params{};
  std::vector<oms::ms::Spectrum> references;
  std::uint32_t id = static_cast<std::uint32_t>(peptides.size());
  if (index_in.empty()) {
    id = 0;
    for (const auto& pep : peptides) {
      references.push_back(
          oms::ms::synthesize_spectrum(pep, 2, ref_params, 13, id++));
    }
  }

  // 3. "Run the instrument": noisy spectra of library peptides, 40% with
  // a random PTM the library does not contain.
  oms::ms::SynthesisParams query_params;
  query_params.mz_jitter = 0.01;
  query_params.keep_probability = 0.85;
  query_params.noise_peaks = 10;
  oms::util::Xoshiro256 rng(7);
  std::vector<oms::ms::Spectrum> queries;
  const auto mods = oms::ms::common_modifications();
  for (std::size_t i = 0; i < peptides.size() && queries.size() < 400;
       i += 3) {
    oms::ms::Peptide pep = peptides[i];
    if (rng.bernoulli(0.4)) {
      const auto& mod = mods[rng.below(mods.size())];
      for (std::size_t r = 0; r < pep.sequence().size(); ++r) {
        if (mod.applies_to(pep.sequence()[r])) {
          pep = oms::ms::Peptide(pep.sequence(),
                                 {{r, mod.delta_mass, mod.name}});
          break;
        }
      }
    }
    queries.push_back(
        oms::ms::synthesize_spectrum(pep, 2, query_params, 29, id++));
  }
  std::printf("synthesized %zu query spectra\n", queries.size());

  // 4. Search with the HD pipeline (top-8 rescoring cascade enabled).
  oms::core::PipelineConfig cfg;
  cfg.encoder.dim = 8192;
  cfg.encoder.bins = cfg.preprocess.bin_count();
  cfg.encoder.chunks = 256;
  cfg.rescore_top_k = 8;
  cfg.backend_name = backend;
  oms::core::Pipeline pipeline(cfg);
  try {
    if (!index_in.empty()) {
      auto idx = std::make_shared<oms::index::LibraryIndex>(
          oms::index::LibraryIndex::open(index_in));
      pipeline.set_library(idx);
      std::printf("loaded index %s: %zu entries (%s), zero re-encoding "
                  "(%zu reference encodes)\n",
                  index_in.c_str(), idx->size(),
                  idx->mapped() ? "mmap" : "in-memory",
                  pipeline.reference_encode_count());
    } else {
      pipeline.set_library(references);
    }
  } catch (const std::exception& e) {
    // Typo'd --backend (the registry's message lists every valid name),
    // an unreadable/corrupt --index-in, or an index built under a
    // different configuration.
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

  // Stream the instrument's output through the query engine — the
  // serving path a real deployment uses; bit-identical to pipeline.run.
  oms::core::QueryEngineConfig ecfg;
  ecfg.block_size = batch_size;
  // Each block fans its queries out over the pool itself; a handful of
  // blocks at once saturates it without oversubscribing.
  ecfg.stage_threads = std::min<std::size_t>(
      8, oms::util::ThreadPool::global().thread_count());
  if (rolling_fdr) {
    // Rolling FDR: the emission stage releases each hit as soon as its
    // q-value can no longer rise above the threshold, while later query
    // blocks are still in flight. The instrument run and the confident
    // identifications overlap instead of being serialized.
    ecfg.emit_policy = oms::core::EmitPolicy::Rolling;
    ecfg.on_accept = [](const oms::core::Psm& p) {
      std::printf("  hit  query=%u  %-24s score=%.4f  shift=%+.2f Da\n",
                  p.query_id, p.peptide.c_str(), p.score, p.mass_shift);
    };
    std::printf("rolling FDR at q<=%.3g over %zu queries:\n",
                cfg.fdr_threshold, queries.size());
  }
  oms::core::QueryEngine engine(pipeline, ecfg);
  engine.submit_batch(queries);
  // Every query is in: closing bounds the stream, so confident hits
  // release as the in-flight blocks resolve.
  engine.close_stream();
  const auto result = engine.drain();
  const auto es = engine.stats();
  std::printf("streamed %zu queries in %zu blocks of %zu\n", es.submitted,
              es.blocks, es.block_size);
  if (rolling_fdr) {
    std::printf("rolling emission: %zu of %zu accepted PSMs released "
                "before drain\n",
                es.early_emitted, result.accepted.size());
  }

  oms::core::write_summary(std::cout, result);

  // 5. Export PSMs.
  if (!out_path.empty()) {
    oms::core::write_psm_tsv_file(out_path, result.psms);
    std::printf("wrote %zu PSMs to %s\n", result.psms.size(),
                out_path.c_str());
  }
  return 0;
}
