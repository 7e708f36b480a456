// Build side of the persistent LibraryIndex, and the fingerprint contract
// between a pipeline configuration and an on-disk artifact.
//
// IndexBuilder runs exactly the reference-side work Pipeline::set_library
// performs — preprocess targets, synthesize decoys, parallel-encode over
// util::ThreadPool (exact digital or through the IMC statistical model,
// per the backend registry's encoding trait) — then streams the artifact
// to disk through index::write_index. Because it *is* the pipeline's own
// build path, a pipeline that later loads the file gets bit-identical
// hypervectors to one that encoded in-process.
//
// fingerprint_of / validate_fingerprint define what "the same
// configuration" means: preprocessing, encoder config + kind, the
// IMC-vs-exact encoding trait (with the device model hashed in when IMC),
// decoy generation, the pipeline seed, and injected BER. Any drift throws
// with the mismatched fields listed — a stale index never silently serves.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "index/format.hpp"

namespace oms::index {

/// Fingerprint of everything in `cfg` that shapes a reference library's
/// entries and encoded hypervectors. Consults the backend registry for the
/// IMC-encoding trait, so it must run after any runtime backend
/// registration the configuration relies on.
[[nodiscard]] IndexFingerprint fingerprint_of(const core::PipelineConfig& cfg);

/// Throws std::invalid_argument listing every mismatched field when `fp`
/// (from a loaded index) does not match fingerprint_of(cfg).
void validate_fingerprint(const IndexFingerprint& fp,
                          const core::PipelineConfig& cfg);

/// Order-sensitive hash of the device model the IMC encoder calibrates
/// against, field by field (not raw struct bytes, so padding never leaks
/// in). Persisted as IndexFingerprint::device_hash.
[[nodiscard]] std::uint64_t device_hash(const rram::ArrayConfig& a) noexcept;

/// Canonical order-sensitive digest of a fingerprint, hashed field by
/// field — never over the raw struct bytes, so padding (present or added
/// by a future format revision) can never leak into a cache key. Two
/// value-equal fingerprints hash equal regardless of how they were
/// produced (fingerprint_of, a mapped artifact, a manifest).
[[nodiscard]] std::uint64_t fingerprint_hash(
    const IndexFingerprint& fp) noexcept;

struct BuildStats {
  std::size_t targets_in = 0;     ///< Target spectra handed to build().
  std::size_t entries = 0;        ///< Library entries written (with decoys).
  std::size_t file_bytes = 0;     ///< Size of the artifact.
  double encode_seconds = 0.0;    ///< Preprocess + decoys + encode + backend.
  double write_seconds = 0.0;     ///< Streaming the container to disk.

  /// Index build throughput over the encode phase.
  [[nodiscard]] double spectra_per_sec() const noexcept {
    return encode_seconds > 0.0
               ? static_cast<double>(entries) / encode_seconds
               : 0.0;
  }
};

class IndexBuilder {
 public:
  /// The configuration fingerprinted into the artifact. Only the encoding
  /// trait of `cfg.backend_name` matters for the stored bytes, so building
  /// with any backend of the same trait yields an identical file.
  explicit IndexBuilder(const core::PipelineConfig& cfg);

  /// Preprocesses, decoy-augments, and parallel-encodes `targets`, then
  /// writes the single-file index to `path`.
  BuildStats build(const std::vector<ms::Spectrum>& targets,
                   const std::string& path) const;

  /// Persists the already-built library of a live pipeline (zero encode
  /// calls). Throws std::logic_error before Pipeline::set_library.
  static BuildStats write_from_pipeline(const core::Pipeline& pipeline,
                                        const std::string& path);

  /// Appends `spectra` to the segmented library whose manifest lives at
  /// `manifest_path` — preprocessing, decoy-augmenting, and encoding ONLY
  /// the new spectra into one fresh immutable segment next to the
  /// manifest, then atomically publishing the extended manifest. Creates
  /// the manifest when the file does not exist yet, so the first append
  /// is also how a segmented library is born. Append cost scales with
  /// `spectra`, not with the library's total size. Throws
  /// std::invalid_argument when an existing manifest's fingerprint does
  /// not match this configuration, or when cfg.injected_ber != 0 (the
  /// BER realization is drawn batch-sequentially over the whole reference
  /// set and cannot be reproduced segment by segment).
  BuildStats append(const std::vector<ms::Spectrum>& spectra,
                    const std::string& manifest_path) const;

  /// Rewrites all of a segmented library's segments into a single fresh
  /// segment — zero encode calls, byte-identical to a one-shot build()
  /// of the union (restoring the one-extent reference view a
  /// multi-segment library gives up) — publishes the one-segment
  /// manifest, then removes the superseded segment files. Search results
  /// are bit-identical before and after. Throws std::runtime_error when
  /// `manifest_path` is not a manifest.
  BuildStats compact(const std::string& manifest_path) const;

 private:
  core::PipelineConfig cfg_;
};

}  // namespace oms::index
