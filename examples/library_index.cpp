// Tooling for the persistent library artifacts: build a monolithic index,
// grow a segmented library by appending, compact it back to one segment,
// inspect sections/fingerprints/manifests, or verify integrity. Run with
// --help (or no subcommand) for the full usage text.
//
// `build` synthesizes a tryptic reference library (or reads --mgf) and
// streams the single-file index: mass-sorted entries, encoded hypervector
// word block, precursor-mass axis, preprocess+encoder fingerprint,
// per-section checksums. `append` encodes ONLY the given spectra into a
// fresh immutable segment next to an "OMSXMAN1" manifest (created on the
// first append), so growing a library costs the new spectra, not a full
// rebuild. `compact` rewrites all segments into one — byte-identical to a
// one-shot build, restoring the contiguous SIMD sweep — and `inspect` /
// `verify` accept either a monolithic index or a manifest (detected by
// magic). `verify` exits non-zero on corruption — wire it into deployment
// health checks.
#include <cstdio>
#include <exception>
#include <string>

#include "index/index_builder.hpp"
#include "index/library_index.hpp"
#include "index/manifest.hpp"
#include "index/segmented_library.hpp"
#include "ms/mgf.hpp"
#include "ms/synthetic.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

using oms::index::LibraryIndex;
using oms::index::SegmentedLibrary;

constexpr const char kUsage[] =
    "usage: library_index <build|append|compact|inspect|verify> [options]\n"
    "\n"
    "  build   --out=FILE [--mgf=IN] [--peptides=N] [--backend=NAME]\n"
    "          [--dim=D] [--threads=N]\n"
    "      One-shot monolithic index: synthesize N tryptic references\n"
    "      (or read --mgf) and stream the single-file OMSXIDX1 artifact.\n"
    "\n"
    "  append  --manifest=FILE [--mgf=IN] [--peptides=N] [--id-base=K]\n"
    "          [--data-seed=S] [--backend=NAME] [--dim=D] [--threads=N]\n"
    "      Encode ONLY the given spectra into a fresh immutable segment\n"
    "      next to the manifest, then publish the extended manifest\n"
    "      atomically. The first append creates the manifest. Synthetic\n"
    "      spectra ids are offset by --id-base so repeated appends stay\n"
    "      unique; vary --data-seed to append different spectra.\n"
    "\n"
    "  compact --manifest=FILE [--backend=NAME] [--dim=D]\n"
    "      Rewrite all segments into one (no re-encoding; byte-identical\n"
    "      to a one-shot build of the union) and delete the old segments.\n"
    "      Search results are identical before and after.\n"
    "\n"
    "  inspect --in=FILE\n"
    "      FILE may be a monolithic index or a manifest (detected by\n"
    "      magic): prints header, sections or segment list, fingerprint.\n"
    "\n"
    "  verify  --in=FILE\n"
    "      Re-walks every checksum and per-entry invariant of the index\n"
    "      (or of every segment of a manifest); non-zero exit on\n"
    "      corruption.\n"
    "\n"
    "append/compact must run under the same configuration that built the\n"
    "library (--backend/--dim shape the fingerprint); a mismatch fails\n"
    "loudly before anything is written.\n";

void print_fingerprint(const oms::index::IndexFingerprint& fp) {
  std::printf("fingerprint:\n");
  std::printf("  preprocess   mz=[%.1f, %.1f] bin=%.3f top%u min%u%s%s\n",
              fp.pre_min_mz, fp.pre_max_mz, fp.pre_bin_width,
              fp.pre_max_peaks, fp.pre_min_peaks,
              fp.pre_sqrt_intensity ? " sqrt" : "",
              fp.pre_remove_precursor ? " -precursor" : "");
  std::printf("  encoder      %s D=%u bins=%u levels=%u chunks=%u "
              "prec=%u seed=%llu\n",
              oms::hd::to_string(
                  static_cast<oms::hd::EncoderKind>(fp.enc_kind)),
              fp.enc_dim, fp.enc_bins, fp.enc_levels, fp.enc_chunks,
              fp.enc_id_precision,
              static_cast<unsigned long long>(fp.enc_seed));
  std::printf("  encoding     %s decoys=%s seed=%llu ber=%g\n",
              fp.imc_encoding ? "imc-statistical" : "exact-digital",
              fp.add_decoys ? "yes" : "no",
              static_cast<unsigned long long>(fp.pipeline_seed),
              fp.injected_ber);
}

int inspect(const LibraryIndex& idx) {
  std::printf("%s: LibraryIndex v%u, %zu bytes, %s\n", idx.path().c_str(),
              idx.version(), idx.file_size(),
              idx.mapped() ? "mmap" : "in-memory");
  std::printf("entries: %zu (%zu targets, %zu decoys)   D=%u   "
              "word block @%llu (%zu-byte aligned)\n",
              idx.size(), idx.target_count(), idx.size() - idx.target_count(),
              idx.dim(),
              static_cast<unsigned long long>(idx.word_block_offset()),
              idx.word_block_offset() % 64 == 0 ? std::size_t{64}
                                                : std::size_t{8});
  std::printf("sections:\n");
  for (const auto& s : idx.sections()) {
    std::printf("  %-12s offset=%-10llu size=%-10llu fnv=%016llx\n",
                oms::index::section_name(s.id),
                static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.size),
                static_cast<unsigned long long>(s.checksum));
  }
  print_fingerprint(idx.fingerprint());
  if (!idx.mass_axis().empty()) {
    std::printf("mass axis: [%.2f, %.2f] Da\n", idx.mass_axis().front(),
                idx.mass_axis().back());
  }
  return 0;
}

int inspect_manifest(const std::string& path) {
  const oms::index::Manifest m = oms::index::Manifest::load(path);
  std::printf("%s: segmented library manifest, %zu segment(s), "
              "%llu entries, next-seq=%llu, generation=%016llx\n",
              path.c_str(), m.segments.size(),
              static_cast<unsigned long long>(m.total_entries()),
              static_cast<unsigned long long>(m.next_sequence),
              static_cast<unsigned long long>(m.combined_hash()));
  for (const auto& s : m.segments) {
    std::printf("  %-28s base=%-8llu entries=%-8llu %llu bytes  "
                "table=%016llx\n",
                s.name.c_str(), static_cast<unsigned long long>(s.base),
                static_cast<unsigned long long>(s.entry_count),
                static_cast<unsigned long long>(s.file_size),
                static_cast<unsigned long long>(s.table_checksum));
  }
  print_fingerprint(m.fingerprint);

  // The merged mass order interleaves segments, so the sweep layer sees a
  // piecewise view (hd::RefView) rather than one contiguous block. Show
  // how fragmented it actually is — many short extents is the signal that
  // a compaction would restore the one-extent view.
  const SegmentedLibrary lib = SegmentedLibrary::open(path);
  const oms::hd::RefView& view = lib.ref_view();
  std::printf("piecewise view: %zu extent(s) over %zu rows (%s; mean run "
              "%.1f rows)\n",
              view.extent_count(), view.count(),
              view.contiguous() ? "contiguous" : "fragmented",
              view.extent_count() == 0
                  ? 0.0
                  : static_cast<double>(view.count()) /
                        static_cast<double>(view.extent_count()));
  constexpr std::size_t kMaxRows = 20;
  const auto extents = view.extents();
  for (std::size_t e = 0; e < extents.size() && e < kMaxRows; ++e) {
    std::printf("  extent %-4zu base=%-8zu rows=%-8zu segment=%u\n", e,
                extents[e].base, extents[e].rows,
                lib.locate(extents[e].base).segment);
  }
  if (extents.size() > kMaxRows) {
    std::printf("  ... +%zu more extent(s)\n", extents.size() - kMaxRows);
  }
  return 0;
}

/// Reference spectra for build/append: --mgf, or a synthesized tryptic
/// set. --id-base offsets synthetic ids so successive appends never
/// collide; --data-seed varies the spectra themselves.
std::vector<oms::ms::Spectrum> load_references(const oms::util::Cli& cli) {
  const std::string mgf = cli.get("mgf", std::string());
  if (!mgf.empty()) {
    auto refs = oms::ms::read_mgf_file(mgf);
    std::printf("read %zu reference spectra from %s\n", refs.size(),
                mgf.c_str());
    return refs;
  }
  oms::ms::WorkloadConfig data_cfg;
  data_cfg.reference_count =
      static_cast<std::size_t>(cli.get("peptides", 2000L));
  data_cfg.query_count = 0;
  data_cfg.seed = static_cast<std::uint64_t>(cli.get("data-seed", 7L));
  auto refs = oms::ms::generate_workload(data_cfg).references;
  const auto id_base = static_cast<std::uint32_t>(cli.get("id-base", 0L));
  for (auto& s : refs) s.id += id_base;
  std::printf("synthesized %zu reference spectra (ids from %u)\n",
              refs.size(), id_base);
  return refs;
}

oms::core::PipelineConfig pipeline_config(const oms::util::Cli& cli) {
  oms::core::PipelineConfig cfg;
  cfg.encoder.dim = static_cast<std::uint32_t>(cli.get("dim", 8192L));
  cfg.encoder.bins = cfg.preprocess.bin_count();
  cfg.encoder.chunks = cfg.encoder.dim / 32;
  cfg.backend_name = cli.get("backend", std::string("ideal-hd"));
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  const oms::util::Cli cli(argc, argv);
  if (cmd != "build" && cmd != "append" && cmd != "compact" &&
      cmd != "inspect" && cmd != "verify") {
    std::fputs(kUsage, cmd == "--help" || cmd == "help" ? stdout : stderr);
    return cmd == "--help" || cmd == "help" ? 0 : 2;
  }

  try {
    oms::util::ThreadPool::set_global_threads(
        static_cast<std::size_t>(cli.get("threads", 0L)));

    if (cmd == "build") {
      const std::string out = cli.get("out", std::string("library.omsx"));
      const oms::index::IndexBuilder builder(pipeline_config(cli));
      const auto stats = builder.build(load_references(cli), out);
      std::printf(
          "built %s: %zu entries, %zu bytes\n"
          "encode %.2fs (%.0f spectra/sec), write %.2fs\n",
          out.c_str(), stats.entries, stats.file_bytes,
          stats.encode_seconds, stats.spectra_per_sec(),
          stats.write_seconds);
      return 0;
    }

    if (cmd == "append" || cmd == "compact") {
      const std::string manifest = cli.get("manifest", std::string());
      if (manifest.empty()) {
        std::fprintf(stderr, "error: --manifest=FILE is required\n");
        return 2;
      }
      const oms::index::IndexBuilder builder(pipeline_config(cli));
      if (cmd == "append") {
        const auto stats = builder.append(load_references(cli), manifest);
        std::printf(
            "appended segment to %s: %zu new entries, %zu bytes\n"
            "encode %.2fs (%.0f spectra/sec), write %.2fs\n",
            manifest.c_str(), stats.entries, stats.file_bytes,
            stats.encode_seconds, stats.spectra_per_sec(),
            stats.write_seconds);
      } else {
        const auto stats = builder.compact(manifest);
        std::printf(
            "compacted %s: %zu entries into one segment, %zu bytes "
            "(open+merge %.2fs, write %.2fs, zero re-encodes)\n",
            manifest.c_str(), stats.entries, stats.file_bytes,
            stats.encode_seconds, stats.write_seconds);
      }
      return 0;
    }

    const std::string in = cli.get("in", std::string());
    if (in.empty()) {
      std::fprintf(stderr, "error: --in=FILE is required\n");
      return 2;
    }

    if (oms::index::is_manifest_file(in)) {
      if (cmd == "inspect") return inspect_manifest(in);
      // verify: open every segment (structure + section checksums +
      // manifest consistency), then re-walk the deep invariants.
      const SegmentedLibrary lib = SegmentedLibrary::open(in);
      for (std::size_t s = 0; s < lib.segment_count(); ++s) {
        lib.segment(s).verify_deep();
      }
      std::printf("%s: OK (%zu segments, %zu entries)\n", in.c_str(),
                  lib.segment_count(), lib.size());
      return 0;
    }

    const LibraryIndex idx = LibraryIndex::open(in);
    if (cmd == "inspect") return inspect(idx);

    // verify: open() already checked structure + section checksums;
    // re-walk them plus the per-entry invariants.
    idx.verify_deep();
    std::printf("%s: OK (%zu entries, %zu sections, %zu bytes)\n",
                in.c_str(), idx.size(), idx.sections().size(),
                idx.file_size());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
