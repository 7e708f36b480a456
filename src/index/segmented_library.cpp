#include "index/segmented_library.hpp"

#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>

namespace oms::index {
namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("segmented library " + path + ": " + what);
}

}  // namespace

SegmentedLibrary SegmentedLibrary::open(const std::string& path,
                                        const OpenOptions& opts) {
  if (!is_manifest_file(path)) {
    return of(std::make_shared<const LibraryIndex>(
        LibraryIndex::open(path, opts)));
  }
  SegmentedLibrary lib;
  lib.path_ = path;
  lib.manifest_ = Manifest::load(path);
  lib.generation_ = lib.manifest_.combined_hash();
  if (lib.manifest_.segments.empty()) fail(path, "manifest lists no segments");

  const std::filesystem::path dir =
      std::filesystem::path(path).parent_path();
  lib.segments_.reserve(lib.manifest_.segments.size());
  for (const ManifestSegment& row : lib.manifest_.segments) {
    const std::string seg_path = (dir / row.name).string();
    auto seg = std::make_shared<const LibraryIndex>(
        LibraryIndex::open(seg_path, opts));
    // The manifest row is the append-time identity of the segment; any
    // drift means the file was swapped or rewritten behind the manifest.
    if (!(seg->fingerprint() == lib.manifest_.fingerprint)) {
      fail(path, "segment " + row.name +
                     " was built under a different configuration than "
                     "the manifest records");
    }
    if (seg->size() != row.entry_count) {
      fail(path, "segment " + row.name + " entry count drifted");
    }
    if (seg->file_size() != row.file_size) {
      fail(path, "segment " + row.name + " file size drifted");
    }
    if (section_table_hash(seg->sections()) != row.table_checksum) {
      fail(path, "segment " + row.name + " section table drifted");
    }
    lib.segments_.push_back(std::move(seg));
  }

  if (lib.single()) {
    lib.ref_view_ = hd::RefView::from_span(lib.hypervectors());
    return lib;
  }

  // Merge the per-segment sorted mass axes into one global mass-sorted
  // order (ties → lowest manifest position, then local order). For
  // pairwise-distinct masses this IS the one-shot build order, which is
  // what keeps reference indices — and the index-keyed noise of the IMC
  // backends — bit-identical to a monolithic artifact.
  const auto& segs = lib.segments_;
  std::size_t total = 0;
  for (const auto& seg : segs) total += seg->size();
  lib.hv_views_.reserve(total);
  lib.mass_axis_.reserve(total);
  lib.locations_.reserve(total);
  std::vector<ms::BinnedSpectrum> merged;
  merged.reserve(total);

  std::vector<std::size_t> heads(segs.size(), 0);
  for (std::size_t g = 0; g < total; ++g) {
    std::size_t best = segs.size();
    double best_mass = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < segs.size(); ++s) {
      if (heads[s] >= segs[s]->size()) continue;
      const double mass = segs[s]->mass_axis()[heads[s]];
      if (mass < best_mass) {
        best = s;
        best_mass = mass;
      }
    }
    const std::size_t local = heads[best]++;
    lib.hv_views_.push_back(segs[best]->hypervectors()[local]);
    lib.mass_axis_.push_back(best_mass);
    lib.locations_.push_back(
        Location{static_cast<std::uint32_t>(best), local});
    merged.push_back(segs[best]->library()[local]);
  }

  // Already mass-sorted, so the constructor's stable sort is a no-op and
  // the merge order (including tie order) survives verbatim.
  lib.library_ = ms::SpectralLibrary(std::move(merged));

  // Piecewise layout of the merged order: maximal runs of same-segment
  // rows coalesce into one extent each. The extents point into the mapped
  // blocks, so the view survives moves of this object.
  lib.ref_view_ = hd::RefView::from_span(lib.hv_views_);
  return lib;
}

SegmentedLibrary SegmentedLibrary::of(
    std::shared_ptr<const LibraryIndex> index) {
  if (!index) {
    throw std::invalid_argument("SegmentedLibrary::of: null index");
  }
  SegmentedLibrary lib;
  lib.path_ = index->path();
  lib.manifest_.fingerprint = index->fingerprint();
  lib.manifest_.segments.push_back(ManifestSegment{
      std::filesystem::path(index->path()).filename().string(), index->size(),
      0, index->file_size(), section_table_hash(index->sections())});
  lib.ref_view_ = hd::RefView::from_span(index->hypervectors());
  lib.segments_.push_back(std::move(index));
  return lib;
}

}  // namespace oms::index
