// SegmentedLibrary: the one library type searches run over — a manifest of
// immutable LibraryIndex segments, opened and searched as ONE logical
// library. A monolithic "OMSXIDX1" file is simply a one-segment library:
// open() tells the two apart by magic (is_manifest_file) and wraps a
// monolithic index under a synthesized one-row manifest, and of() does the
// same for an index that is already open.
//
// Each segment is a complete "OMSXIDX1" artifact (index/library_index.hpp)
// mapped through util::MappedFile and held by shared_ptr. With one segment
// the library *aliases* that segment — library(), hypervectors() and
// mass_axis() are the segment's own, so wrapping costs no copy. With
// several, open() k-way-merges the segments' sorted precursor-mass axes
// into one global mass-sorted order (ties broken by manifest order, then
// local order) and presents merged entries, a merged mass axis, and
// zero-copy hypervector views in that order. For libraries whose precursor
// masses are pairwise distinct across segment boundaries — every
// synthesized and real-spectrum workload in this repo — the merged order
// is exactly the order a one-shot IndexBuilder::build of the union would
// produce, so global reference indices (and with them the keyed search
// noise of accel::ImcSearchEngine and `Psm::reference_index`)
// carry over unchanged and search results are bit-identical to the
// monolithic artifact. Exactly-equal masses across segments order
// manifest-wise here versus build-interleave-wise one-shot; compaction
// (which rewrites through the one-shot writer) canonicalizes such ties.
//
// The mapped word blocks of different segments are disjoint allocations,
// but the merged order decomposes into runs of same-segment rows, each a
// contiguous slice of one mapped block. ref_view() exposes exactly that
// piecewise layout as an hd::RefView (built once at open; one extent for
// one segment), so the SIMD sweeps keep running block-wise across segment
// boundaries; compaction (IndexBuilder::compact) collapses the view back
// to a single extent.
//
// Segments are immutable and the manifest swaps atomically, so a
// SegmentedLibrary is safe to share across any number of concurrent
// readers, and stays valid even while append/compact produce the next
// generation alongside it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hd/kernels.hpp"
#include "index/library_index.hpp"
#include "index/manifest.hpp"
#include "ms/library.hpp"
#include "util/bitvec.hpp"

namespace oms::index {

class SegmentedLibrary {
 public:
  /// Where a global (merged-order) reference index lives.
  struct Location {
    std::uint32_t segment = 0;  ///< Manifest position.
    std::uint64_t local = 0;    ///< Entry index within that segment.
  };

  /// Opens the library at `path`: a manifest, or a monolithic index (see
  /// of()), told apart by magic. For a manifest every segment is opened
  /// and validated: per-segment fingerprints must equal the manifest's,
  /// entry counts, file sizes and section-table hashes must match the
  /// manifest rows (a swapped or rewritten segment fails loudly), and
  /// every segment must be a full-entries index. Throws std::runtime_error
  /// on any violation; `opts` is forwarded to each segment open.
  [[nodiscard]] static SegmentedLibrary open(const std::string& path,
                                             const OpenOptions& opts = {});

  /// Wraps an open monolithic index as a one-segment library under a
  /// synthesized one-row manifest, aliasing its entries, hypervectors and
  /// mass axis. Throws std::invalid_argument for a null index.
  [[nodiscard]] static SegmentedLibrary of(
      std::shared_ptr<const LibraryIndex> index);

  SegmentedLibrary(SegmentedLibrary&&) = default;
  SegmentedLibrary& operator=(SegmentedLibrary&&) = default;
  SegmentedLibrary(const SegmentedLibrary&) = delete;
  SegmentedLibrary& operator=(const SegmentedLibrary&) = delete;

  [[nodiscard]] const IndexFingerprint& fingerprint() const noexcept {
    return manifest_.fingerprint;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return hypervectors().size();
  }
  [[nodiscard]] std::uint32_t dim() const noexcept {
    return manifest_.fingerprint.enc_dim;
  }

  /// The logical library (global mass-sorted order) — what
  /// Pipeline::library() serves. Segment 0's own library when there is
  /// one segment.
  [[nodiscard]] const ms::SpectralLibrary& library() const noexcept {
    return single() ? segments_.front()->library() : library_;
  }

  /// Zero-copy views into the segments' mapped word blocks, in global
  /// order. Valid as long as this object lives.
  [[nodiscard]] std::span<const util::BitVec> hypervectors() const noexcept {
    return single() ? segments_.front()->hypervectors()
                    : std::span<const util::BitVec>(hv_views_);
  }

  /// Piecewise reference view over the same rows: one contiguous extent
  /// per maximal run of same-segment rows in the merged order (a
  /// one-segment library is a single extent). Built once at open; valid
  /// as long as this object lives, and stable across moves (extents point
  /// into the mapped blocks, which never relocate).
  [[nodiscard]] const hd::RefView& ref_view() const noexcept {
    return ref_view_;
  }

  [[nodiscard]] std::span<const double> mass_axis() const noexcept {
    return single() ? segments_.front()->mass_axis()
                    : std::span<const double>(mass_axis_);
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> mass_window(
      double mass, double tolerance) const noexcept {
    return library().mass_window(mass, tolerance);
  }

  [[nodiscard]] Location locate(std::size_t global) const noexcept {
    return single() ? Location{0, global} : locations_[global];
  }
  [[nodiscard]] std::size_t segment_count() const noexcept {
    return segments_.size();
  }
  [[nodiscard]] const LibraryIndex& segment(std::size_t i) const noexcept {
    return *segments_[i];
  }
  [[nodiscard]] const Manifest& manifest() const noexcept { return manifest_; }
  /// The generation identity (Manifest::combined_hash of what was opened,
  /// synthesized for a monolithic index).
  [[nodiscard]] std::uint64_t combined_hash() const noexcept {
    return manifest_.combined_hash();
  }
  /// What library_generation() read for this library's path: the
  /// manifest's combined_hash, or 0 for a monolithic index (whose
  /// identity is its path — it never grows).
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  SegmentedLibrary() = default;

  [[nodiscard]] bool single() const noexcept { return segments_.size() == 1; }

  std::string path_;
  Manifest manifest_;
  std::uint64_t generation_ = 0;
  std::vector<std::shared_ptr<const LibraryIndex>> segments_;
  // Merged copies; empty for a one-segment library, which aliases its
  // segment instead.
  std::vector<util::BitVec> hv_views_;  ///< Global order; view copies.
  std::vector<double> mass_axis_;
  std::vector<Location> locations_;     ///< Global index → segment slot.
  ms::SpectralLibrary library_;
  hd::RefView ref_view_;                ///< Piecewise layout, global order.
};

}  // namespace oms::index
