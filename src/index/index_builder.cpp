#include "index/index_builder.hpp"

#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

#include "index/manifest.hpp"
#include "index/segmented_library.hpp"
#include "index/writer.hpp"
#include "util/rng.hpp"

namespace oms::index {
namespace {

[[nodiscard]] std::uint64_t mix_double(std::uint64_t acc, double v) noexcept {
  return util::hash_combine(acc, std::bit_cast<std::uint64_t>(v));
}

/// `cfg` with its backend replaced by the canonical backend of its
/// encoding trait. The stored bytes depend on the backend only through
/// that trait, so a library configured for a runtime-registered substrate
/// is the one persisted for "rram-statistical" or "ideal-hd", and is built
/// without constructing that substrate.
[[nodiscard]] core::PipelineConfig canonical_build_config(
    const core::PipelineConfig& cfg) {
  const bool imc = core::BackendRegistry::instance().imc_encoding(
      core::Pipeline::backend_name(cfg));
  core::PipelineConfig out = cfg;
  out.backend_name = imc ? "rram-statistical" : "ideal-hd";
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// "<manifest stem>.seg-NNNN.omsx" from the manifest's monotonic sequence
/// counter — never reused, so compacted-away names cannot collide.
[[nodiscard]] std::string segment_name(const std::string& manifest_path,
                                       std::uint64_t sequence) {
  char suffix[32];
  std::snprintf(suffix, sizeof suffix, ".seg-%04llu.omsx",
                static_cast<unsigned long long>(sequence));
  return std::filesystem::path(manifest_path).stem().string() + suffix;
}

/// The manifest row pinning a freshly written segment's identity.
[[nodiscard]] ManifestSegment segment_row(const std::string& name,
                                          const LibraryIndex& seg,
                                          std::uint64_t base) {
  ManifestSegment row;
  row.name = name;
  row.entry_count = seg.size();
  row.base = base;
  row.file_size = seg.file_size();
  row.table_checksum = section_table_hash(seg.sections());
  return row;
}

}  // namespace

std::uint64_t device_hash(const rram::ArrayConfig& a) noexcept {
  std::uint64_t x = util::hash_combine(0x4445564943453031ULL,  // "DEVICE01"
                                       a.rows, a.cols);
  x = util::hash_combine(x, static_cast<std::uint64_t>(a.adc_bits));
  x = mix_double(x, a.v_pulse);
  x = mix_double(x, a.ir_alpha);
  x = mix_double(x, a.sense_sigma);
  x = mix_double(x, a.wire_sigma);
  x = mix_double(x, a.read_time_s);
  x = mix_double(x, a.read_disturb_us);
  const rram::CellConfig& c = a.cell;
  x = util::hash_combine(x, static_cast<std::uint64_t>(c.levels),
                         static_cast<std::uint64_t>(c.write_verify_iterations));
  x = mix_double(x, c.g_min_us);
  x = mix_double(x, c.g_max_us);
  x = mix_double(x, c.sigma_program_us);
  x = mix_double(x, c.relax_sigma_us);
  x = mix_double(x, c.relax_tau_s);
  x = mix_double(x, c.drift_frac);
  x = mix_double(x, c.mid_state_factor);
  x = mix_double(x, c.tail_prob_per_ln);
  x = mix_double(x, c.tail_sigma_us);
  x = mix_double(x, c.common_mode_fraction);
  x = mix_double(x, c.verify_tolerance_us);
  return x;
}

IndexFingerprint fingerprint_of(const core::PipelineConfig& cfg) {
  IndexFingerprint fp;
  const ms::PreprocessConfig& p = cfg.preprocess;
  fp.pre_min_mz = p.min_mz;
  fp.pre_max_mz = p.max_mz;
  fp.pre_bin_width = p.bin_width;
  fp.pre_precursor_window = p.precursor_window;
  fp.pre_min_intensity_ratio = p.min_intensity_ratio;
  fp.pre_max_peaks = static_cast<std::uint32_t>(p.max_peaks);
  fp.pre_min_peaks = static_cast<std::uint32_t>(p.min_peaks);
  fp.pre_sqrt_intensity = p.sqrt_intensity ? 1 : 0;
  fp.pre_remove_precursor = p.remove_precursor ? 1 : 0;

  const hd::EncoderConfig& e = cfg.encoder;
  fp.enc_dim = e.dim;
  fp.enc_bins = e.bins;
  fp.enc_levels = e.levels;
  fp.enc_chunks = e.chunks;
  fp.enc_id_precision = static_cast<std::uint32_t>(e.id_precision);
  fp.enc_kind = static_cast<std::uint32_t>(hd::EncoderKind::kIdLevel);
  fp.enc_seed = e.seed;

  const bool imc = core::BackendRegistry::instance().imc_encoding(
      core::Pipeline::backend_name(cfg));
  fp.imc_encoding = imc ? 1 : 0;
  fp.add_decoys = cfg.add_decoys ? 1 : 0;
  fp.pipeline_seed = cfg.seed;
  fp.injected_ber = cfg.injected_ber;
  if (imc) {
    fp.calibration_samples = cfg.backend_options.calibration_samples;
    fp.device_hash = device_hash(cfg.backend_options.array);
  }
  return fp;
}

void validate_fingerprint(const IndexFingerprint& fp,
                          const core::PipelineConfig& cfg) {
  const IndexFingerprint want = fingerprint_of(cfg);
  if (fp == want) return;

  std::string fields;
  const auto differs = [&fields](bool mismatch, const char* name) {
    if (mismatch) {
      if (!fields.empty()) fields += ", ";
      fields += name;
    }
  };
  differs(fp.pre_min_mz != want.pre_min_mz ||
              fp.pre_max_mz != want.pre_max_mz ||
              fp.pre_bin_width != want.pre_bin_width ||
              fp.pre_precursor_window != want.pre_precursor_window ||
              fp.pre_min_intensity_ratio != want.pre_min_intensity_ratio ||
              fp.pre_max_peaks != want.pre_max_peaks ||
              fp.pre_min_peaks != want.pre_min_peaks ||
              fp.pre_sqrt_intensity != want.pre_sqrt_intensity ||
              fp.pre_remove_precursor != want.pre_remove_precursor,
          "preprocess");
  differs(fp.enc_dim != want.enc_dim, "encoder.dim");
  differs(fp.enc_bins != want.enc_bins, "encoder.bins");
  differs(fp.enc_levels != want.enc_levels, "encoder.levels");
  differs(fp.enc_chunks != want.enc_chunks, "encoder.chunks");
  differs(fp.enc_id_precision != want.enc_id_precision,
          "encoder.id_precision");
  differs(fp.enc_kind != want.enc_kind, "encoder.kind");
  differs(fp.enc_seed != want.enc_seed, "encoder.seed");
  differs(fp.imc_encoding != want.imc_encoding, "imc_encoding");
  differs(fp.add_decoys != want.add_decoys, "add_decoys");
  differs(fp.pipeline_seed != want.pipeline_seed, "seed");
  differs(fp.injected_ber != want.injected_ber, "injected_ber");
  differs(fp.calibration_samples != want.calibration_samples,
          "calibration_samples");
  differs(fp.device_hash != want.device_hash, "device model");
  if (fields.empty()) fields = "reserved fields";
  throw std::invalid_argument(
      "library index fingerprint mismatch (" + fields +
      ") — this artifact was built under a different configuration; "
      "rebuild it or adjust the pipeline to match");
}

std::uint64_t fingerprint_hash(const IndexFingerprint& fp) noexcept {
  std::uint64_t x = 0x46494E4745525031ULL;  // "FINGERP1"
  x = mix_double(x, fp.pre_min_mz);
  x = mix_double(x, fp.pre_max_mz);
  x = mix_double(x, fp.pre_bin_width);
  x = mix_double(x, fp.pre_precursor_window);
  x = util::hash_combine(x, fp.enc_seed, fp.pipeline_seed);
  x = mix_double(x, fp.injected_ber);
  x = util::hash_combine(x, fp.calibration_samples, fp.device_hash);
  x = util::hash_combine(
      x, static_cast<std::uint64_t>(
             std::bit_cast<std::uint32_t>(fp.pre_min_intensity_ratio)));
  x = util::hash_combine(x, fp.pre_max_peaks, fp.pre_min_peaks);
  x = util::hash_combine(x, fp.pre_sqrt_intensity, fp.pre_remove_precursor);
  x = util::hash_combine(x, fp.enc_dim, fp.enc_bins);
  x = util::hash_combine(x, fp.enc_levels, fp.enc_chunks);
  x = util::hash_combine(x, fp.enc_id_precision, fp.enc_kind);
  x = util::hash_combine(x, fp.imc_encoding, fp.add_decoys);
  return x;
}

IndexBuilder::IndexBuilder(const core::PipelineConfig& cfg) : cfg_(cfg) {}

BuildStats IndexBuilder::build(const std::vector<ms::Spectrum>& targets,
                               const std::string& path) const {
  const auto t0 = std::chrono::steady_clock::now();
  core::Pipeline pipeline(canonical_build_config(cfg_));
  pipeline.set_library(targets);
  BuildStats stats;
  stats.encode_seconds = seconds_since(t0);
  stats.targets_in = targets.size();
  stats.entries = pipeline.library().size();

  const auto t1 = std::chrono::steady_clock::now();
  // Fingerprint with the *caller's* configuration: same trait, and the
  // loaded artifact must validate against what the caller will run.
  write_index_file(path, pipeline.library(), pipeline.reference_hvs(),
                   fingerprint_of(cfg_));
  stats.write_seconds = seconds_since(t1);
  stats.file_bytes =
      static_cast<std::size_t>(std::filesystem::file_size(path));
  return stats;
}

BuildStats IndexBuilder::append(const std::vector<ms::Spectrum>& spectra,
                                const std::string& manifest_path) const {
  if (cfg_.injected_ber != 0.0) {
    throw std::invalid_argument(
        "IndexBuilder::append: injected_ber draws one batch-sequential "
        "error realization over the whole reference set, which a "
        "segment-at-a-time build cannot reproduce — build the library "
        "monolithically for BER robustness experiments");
  }

  Manifest manifest;
  if (std::filesystem::exists(manifest_path)) {
    manifest = Manifest::load(manifest_path);
    // An append under a drifted configuration would poison every future
    // open; fail with the mismatched fields listed.
    validate_fingerprint(manifest.fingerprint, cfg_);
  } else {
    manifest.fingerprint = fingerprint_of(cfg_);
  }

  const auto t0 = std::chrono::steady_clock::now();
  core::Pipeline pipeline(canonical_build_config(cfg_));
  pipeline.set_library(spectra);
  BuildStats stats;
  stats.encode_seconds = seconds_since(t0);
  stats.targets_in = spectra.size();
  stats.entries = pipeline.library().size();

  const auto t1 = std::chrono::steady_clock::now();
  const std::filesystem::path dir =
      std::filesystem::path(manifest_path).parent_path();
  const std::string name = segment_name(manifest_path, manifest.next_sequence);
  const std::string seg_path = (dir / name).string();
  write_index_file(seg_path, pipeline.library(), pipeline.reference_hvs(),
                   manifest.fingerprint);

  // Re-open the artifact to pin its on-disk identity in the manifest row,
  // then publish. A crash between the two leaves an orphan segment file
  // and an untouched manifest — wasted bytes, never a wrong search.
  const LibraryIndex seg = LibraryIndex::open(seg_path);
  manifest.segments.push_back(
      segment_row(name, seg, manifest.total_entries()));
  manifest.next_sequence += 1;
  manifest.save(manifest_path);
  stats.write_seconds = seconds_since(t1);
  stats.file_bytes = seg.file_size();
  return stats;
}

BuildStats IndexBuilder::compact(const std::string& manifest_path) const {
  const auto t0 = std::chrono::steady_clock::now();
  // SegmentedLibrary::open also takes a monolithic index, which has no
  // segment list to rewrite.
  if (!is_manifest_file(manifest_path)) {
    throw std::runtime_error("IndexBuilder::compact: " + manifest_path +
                             " is not a manifest");
  }
  const SegmentedLibrary lib = SegmentedLibrary::open(manifest_path);
  validate_fingerprint(lib.fingerprint(), cfg_);

  BuildStats stats;
  stats.entries = lib.size();
  stats.encode_seconds = seconds_since(t0);  // open + merge; zero encodes

  // The merged entries and merged hypervector views stream through the
  // same deterministic writer a one-shot build() uses, so the compacted
  // segment is byte-identical to the monolithic artifact.
  const auto t1 = std::chrono::steady_clock::now();
  const std::filesystem::path dir =
      std::filesystem::path(manifest_path).parent_path();
  const std::string name =
      segment_name(manifest_path, lib.manifest().next_sequence);
  const std::string seg_path = (dir / name).string();
  write_index_file(seg_path, lib.library(), lib.hypervectors(),
                   lib.fingerprint());

  const LibraryIndex seg = LibraryIndex::open(seg_path);
  Manifest next;
  next.fingerprint = lib.fingerprint();
  next.next_sequence = lib.manifest().next_sequence + 1;
  next.segments.push_back(segment_row(name, seg, 0));
  next.save(manifest_path);

  // Old segments go only after the new manifest is durably in place;
  // a concurrent reader that already opened them keeps its mappings.
  for (const ManifestSegment& row : lib.manifest().segments) {
    std::error_code ignored;
    std::filesystem::remove(dir / row.name, ignored);
  }
  stats.write_seconds = seconds_since(t1);
  stats.file_bytes = seg.file_size();
  return stats;
}

BuildStats IndexBuilder::write_from_pipeline(const core::Pipeline& pipeline,
                                             const std::string& path) {
  if (pipeline.library().empty()) {
    throw std::logic_error(
        "IndexBuilder::write_from_pipeline: set_library() first");
  }
  const auto t0 = std::chrono::steady_clock::now();
  write_index_file(path, pipeline.library(), pipeline.reference_hvs(),
                   fingerprint_of(pipeline.config()));
  BuildStats stats;
  stats.entries = pipeline.library().size();
  stats.write_seconds = seconds_since(t0);
  stats.file_bytes =
      static_cast<std::size_t>(std::filesystem::file_size(path));
  return stats;
}

}  // namespace oms::index
