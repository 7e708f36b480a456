// Persistent LibraryIndex: the build-once, load-many search artifact.
//
// A LibraryIndex is everything a search process needs, in one versioned
// file (src/index/format.hpp): the mass-sorted BinnedSpectrum entries
// (peaks, precursor masses, target/decoy flags, ids, annotations), the
// encoded hypervectors as one contiguous 64-byte-aligned word block, the
// precursor-mass axis for mass_window queries, and the fingerprint of the
// preprocess + encoder configuration that produced it — each section
// checksummed so truncation or corruption fails loudly at open().
//
// open() maps the file read-only (util::MappedFile) and exposes the
// hypervectors as zero-copy util::BitVec views over the mapped words — no
// per-entry word allocation, no re-encoding, so a restarted replica is
// searchable as soon as the first pages fault in. Platforms without mmap
// (and callers passing force_in_memory) get the same container through an
// owned in-memory image; both paths return bit-identical search results.
//
// The hypervectors sit contiguously, so RefView::from_span(hypervectors())
// (hd/kernels.hpp) is one extent over the mapped block — the layout the SIMD
// sweeps consume. Searches run over index::SegmentedLibrary, the one library
// type, which opens a monolithic file as a one-segment library that aliases
// this index (no copy). Typical flow (see also index::IndexBuilder and
// examples/library_index):
//
//   auto lib = std::make_shared<const oms::index::SegmentedLibrary>(
//       oms::index::SegmentedLibrary::open("library.omsx"));
//   oms::core::Pipeline pipeline(cfg);
//   pipeline.set_library(lib);          // zero encode calls; fingerprint
//                                       // mismatches throw
//   auto result = pipeline.run(queries);
//
// The index is immutable after open() and safe to share across any number
// of concurrent readers (pipelines, threads, processes via the same file).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "index/format.hpp"
#include "ms/library.hpp"
#include "util/bitvec.hpp"
#include "util/mapped_file.hpp"

namespace oms::index {

struct OpenOptions {
  /// Skip mmap and read the whole file into an owned (8-byte aligned)
  /// buffer. The fallback for platforms/filesystems without mmap, chosen
  /// automatically there; forcing it is mainly for tests and for callers
  /// that prefer page-in-all-at-once behavior.
  bool force_in_memory = false;
  /// Verify every section checksum at open. Costs one streaming pass over
  /// the file; leave on unless cold-start latency matters more than
  /// catching silent corruption at load time (`library_index verify` can
  /// audit later).
  bool verify_checksums = true;
};

/// One parsed section-table row (for inspect tooling and tests).
struct SectionInfo {
  std::uint32_t id = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
};

class LibraryIndex {
 public:
  /// Opens and validates an index file. Structural problems (bad magic,
  /// version, endianness, header flags, truncation, inconsistent sections,
  /// checksum mismatches) throw std::runtime_error naming the cause.
  [[nodiscard]] static LibraryIndex open(const std::string& path,
                                         const OpenOptions& opts = {});

  /// Parses an already-loaded image (tests, corruption injection). The
  /// image must be 8-byte aligned, which util::MappedFile guarantees.
  [[nodiscard]] static LibraryIndex from_image(util::MappedFile image,
                                               const OpenOptions& opts = {});

  LibraryIndex(LibraryIndex&&) = default;
  LibraryIndex& operator=(LibraryIndex&&) = default;
  LibraryIndex(const LibraryIndex&) = delete;
  LibraryIndex& operator=(const LibraryIndex&) = delete;

  /// Fingerprint of the configuration that built this index.
  [[nodiscard]] const IndexFingerprint& fingerprint() const noexcept {
    return meta_->fingerprint;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(meta_->entry_count);
  }
  [[nodiscard]] std::uint32_t dim() const noexcept { return meta_->dim; }
  [[nodiscard]] std::size_t words_per_hv() const noexcept {
    return meta_->words_per_hv;
  }
  [[nodiscard]] std::size_t target_count() const noexcept {
    return static_cast<std::size_t>(meta_->target_count);
  }

  /// The materialized spectral library (mass-sorted, identical to what
  /// Pipeline::set_library(spectra) would have built).
  [[nodiscard]] const ms::SpectralLibrary& library() const noexcept {
    return library_;
  }

  /// Zero-copy views over the mapped word block, aligned with library()
  /// order. Valid as long as this index lives.
  [[nodiscard]] std::span<const util::BitVec> hypervectors() const noexcept {
    return hv_views_;
  }

  /// Raw view of one hypervector's mapped words.
  [[nodiscard]] util::ConstBitVec hypervector(std::size_t i) const noexcept {
    return {hv_words_ + i * meta_->words_per_hv, meta_->dim};
  }

  /// The mapped precursor-mass axis (sorted ascending).
  [[nodiscard]] std::span<const double> mass_axis() const noexcept {
    return {mass_axis_, size()};
  }

  /// Index range [first, last) of entries with precursor mass within
  /// [mass - tolerance, mass + tolerance], straight off the mapped axis.
  [[nodiscard]] std::pair<std::size_t, std::size_t> mass_window(
      double mass, double tolerance) const noexcept;

  /// True when the bytes are an actual file mapping (zero-copy), false on
  /// the in-memory fallback path.
  [[nodiscard]] bool mapped() const noexcept { return image_.mapped(); }
  [[nodiscard]] std::size_t file_size() const noexcept {
    return image_.size();
  }
  /// Absolute file offset of the hypervector word block (64-byte aligned
  /// by the format; asserted at open).
  [[nodiscard]] std::uint64_t word_block_offset() const noexcept {
    return word_block_offset_;
  }
  [[nodiscard]] std::span<const SectionInfo> sections() const noexcept {
    return sections_;
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint32_t version() const noexcept { return version_; }

  /// Re-walks every section checksum plus per-entry invariants the fast
  /// open path skips (hypervector tail bits zero, peak bins sorted).
  /// Throws std::runtime_error on the first violation.
  void verify_deep() const;

 private:
  LibraryIndex() = default;

  void parse(const OpenOptions& opts);
  [[nodiscard]] const SectionRecord* find_section(std::uint32_t id) const;

  util::MappedFile image_;
  std::string path_;
  std::uint32_t version_ = 0;
  const IndexMeta* meta_ = nullptr;
  const std::uint64_t* hv_words_ = nullptr;
  const double* mass_axis_ = nullptr;
  std::uint64_t word_block_offset_ = 0;
  std::vector<SectionInfo> sections_;
  std::vector<util::BitVec> hv_views_;
  ms::SpectralLibrary library_;
};

}  // namespace oms::index
