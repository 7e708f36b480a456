#include "index/library_index.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace oms::index {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("library index: " + what);
}

}  // namespace

LibraryIndex LibraryIndex::open(const std::string& path,
                                const OpenOptions& opts) {
  util::MappedFile image = opts.force_in_memory ? util::MappedFile::read(path)
                                                : util::MappedFile::open(path);
  LibraryIndex index = from_image(std::move(image), opts);
  index.path_ = path;
  return index;
}

LibraryIndex LibraryIndex::from_image(util::MappedFile image,
                                      const OpenOptions& opts) {
  LibraryIndex index;
  index.image_ = std::move(image);
  index.parse(opts);
  return index;
}

const SectionRecord* LibraryIndex::find_section(std::uint32_t id) const {
  const auto* table = reinterpret_cast<const SectionRecord*>(
      image_.data() + sizeof(FileHeader));
  const auto* hdr = reinterpret_cast<const FileHeader*>(image_.data());
  for (std::uint32_t s = 0; s < hdr->section_count; ++s) {
    if (table[s].id == id) return &table[s];
  }
  return nullptr;
}

void LibraryIndex::parse(const OpenOptions& opts) {
  if (image_.size() < sizeof(FileHeader)) {
    fail("truncated file (smaller than the header)");
  }
  const auto* hdr = reinterpret_cast<const FileHeader*>(image_.data());
  if (hdr->magic != kMagic) {
    fail("bad magic (not a LibraryIndex container)");
  }
  if (hdr->endian != kEndianTag) {
    fail("endianness mismatch (index written on an incompatible host)");
  }
  if (hdr->version != kFormatVersion) {
    fail("unsupported format version " + std::to_string(hdr->version) +
         " (this build reads version " + std::to_string(kFormatVersion) + ")");
  }
  if (hdr->flags != kFlagHasEntries) {
    fail("unsupported header flags " + std::to_string(hdr->flags) +
         " (a library index has flags " + std::to_string(kFlagHasEntries) +
         "; hypervector-only caches are no longer readable — rebuild "
         "the index)");
  }
  // Bytes beyond the recorded size are ignored; anything shorter than it
  // is truncation.
  if (hdr->file_size > image_.size()) {
    fail("truncated file (header records " + std::to_string(hdr->file_size) +
         " bytes, got " + std::to_string(image_.size()) + ")");
  }
  if (hdr->section_count == 0 || hdr->section_count > 64) {
    fail("implausible section count");
  }
  const std::size_t container_size = hdr->file_size;
  const std::size_t table_end =
      sizeof(FileHeader) + hdr->section_count * sizeof(SectionRecord);
  if (table_end > container_size) {
    fail("truncated section table");
  }
  version_ = hdr->version;

  const auto* table = reinterpret_cast<const SectionRecord*>(
      image_.data() + sizeof(FileHeader));
  sections_.reserve(hdr->section_count);
  for (std::uint32_t s = 0; s < hdr->section_count; ++s) {
    const SectionRecord& rec = table[s];
    if (rec.offset % kSectionAlignment != 0) {
      fail(std::string(section_name(rec.id)) + " section is misaligned");
    }
    if (rec.offset < table_end || rec.offset > container_size ||
        rec.size > container_size - rec.offset) {
      fail(std::string(section_name(rec.id)) +
           " section exceeds the file bounds");
    }
    for (const SectionInfo& seen : sections_) {
      if (seen.id == rec.id) {
        fail(std::string(section_name(rec.id)) + " section appears twice");
      }
    }
    if (opts.verify_checksums &&
        fnv1a64(image_.data() + rec.offset, rec.size) != rec.checksum) {
      fail(std::string(section_name(rec.id)) +
           " section checksum mismatch (corrupted file)");
    }
    sections_.push_back({rec.id, rec.offset, rec.size, rec.checksum});
  }

  const auto require = [this](std::uint32_t id) {
    const SectionRecord* rec = find_section(id);
    if (rec == nullptr) {
      fail(std::string(section_name(id)) + " section is missing");
    }
    return rec;
  };

  // --- meta ---------------------------------------------------------------
  const SectionRecord* meta_rec = require(kMeta);
  if (meta_rec->size != sizeof(IndexMeta)) {
    fail("meta section has the wrong size");
  }
  meta_ = reinterpret_cast<const IndexMeta*>(image_.data() + meta_rec->offset);
  const auto count = static_cast<std::size_t>(meta_->entry_count);
  const std::size_t wpv = meta_->words_per_hv;
  if (meta_->dim == 0 || wpv != (std::size_t{meta_->dim} + 63) / 64) {
    fail("meta section records an inconsistent dimension/word count");
  }

  // --- hypervector word block ---------------------------------------------
  const SectionRecord* hv_rec = require(kHvWords);
  if (hv_rec->offset % kWordBlockAlignment != 0) {
    fail("hv-words block is not 64-byte aligned");
  }
  // Division form, not `count * wpv * 8 != size`: a crafted entry_count
  // must not be able to wrap the multiplication and sail past this check
  // into a giant allocation — every count-derived size below is bounded
  // by a section that already fit inside the file.
  const std::size_t hv_stride = wpv * sizeof(std::uint64_t);
  if (hv_rec->size % hv_stride != 0 || hv_rec->size / hv_stride != count) {
    fail("hv-words section size does not match entry count × words/hv");
  }
  hv_words_ = reinterpret_cast<const std::uint64_t*>(image_.data() +
                                                     hv_rec->offset);
  word_block_offset_ = hv_rec->offset;
  hv_views_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    hv_views_.push_back(util::BitVec::view(hv_words_ + i * wpv, meta_->dim));
  }

  // --- entries + satellite sections ---------------------------------------
  const SectionRecord* ent_rec = require(kEntries);
  const SectionRecord* pep_rec = require(kPeptides);
  const SectionRecord* bin_rec = require(kPeakBins);
  const SectionRecord* wgt_rec = require(kPeakWeights);
  const SectionRecord* axis_rec = require(kMassAxis);
  if (ent_rec->size % sizeof(EntryRecord) != 0 ||
      ent_rec->size / sizeof(EntryRecord) != count) {
    fail("entries section size does not match the entry count");
  }
  if (axis_rec->size % sizeof(double) != 0 ||
      axis_rec->size / sizeof(double) != count) {
    fail("mass-axis section size does not match the entry count");
  }
  const auto total_peaks = static_cast<std::size_t>(meta_->total_peaks);
  if (bin_rec->size % sizeof(std::uint32_t) != 0 ||
      bin_rec->size / sizeof(std::uint32_t) != total_peaks ||
      wgt_rec->size % sizeof(float) != 0 ||
      wgt_rec->size / sizeof(float) != total_peaks) {
    fail("peak section sizes do not match the recorded peak total");
  }
  if (pep_rec->size != meta_->peptide_bytes) {
    fail("peptides section size does not match the recorded byte total");
  }

  const auto* entries =
      reinterpret_cast<const EntryRecord*>(image_.data() + ent_rec->offset);
  const auto* peptides =
      reinterpret_cast<const char*>(image_.data() + pep_rec->offset);
  const auto* bins =
      reinterpret_cast<const std::uint32_t*>(image_.data() + bin_rec->offset);
  const auto* weights =
      reinterpret_cast<const float*>(image_.data() + wgt_rec->offset);
  mass_axis_ =
      reinterpret_cast<const double*>(image_.data() + axis_rec->offset);

  // Materialize the spectral library in stored (mass-sorted) order. The
  // SpectralLibrary constructor re-runs its stable sort, which is an exact
  // no-op on sorted input, so entry i keeps hypervector i.
  std::vector<ms::BinnedSpectrum> specs(count);
  for (std::size_t i = 0; i < count; ++i) {
    const EntryRecord& e = entries[i];
    if (e.peak_count > total_peaks ||
        e.peak_offset > total_peaks - e.peak_count) {
      fail("entry " + std::to_string(i) + " peaks exceed the peak sections");
    }
    if (e.peptide_length > meta_->peptide_bytes ||
        e.peptide_offset > meta_->peptide_bytes - e.peptide_length) {
      fail("entry " + std::to_string(i) +
           " annotation exceeds the peptides section");
    }
    if (i > 0 && entries[i - 1].precursor_mass > e.precursor_mass) {
      fail("entries are not sorted by precursor mass");
    }
    if (mass_axis_[i] != e.precursor_mass) {
      fail("mass axis disagrees with entry " + std::to_string(i));
    }
    ms::BinnedSpectrum& s = specs[i];
    s.id = e.id;
    s.precursor_mass = e.precursor_mass;
    s.precursor_charge = e.precursor_charge;
    s.is_decoy = (e.flags & kEntryFlagDecoy) != 0;
    s.peptide.assign(peptides + e.peptide_offset, e.peptide_length);
    s.bins.assign(bins + e.peak_offset, bins + e.peak_offset + e.peak_count);
    s.weights.assign(weights + e.peak_offset,
                     weights + e.peak_offset + e.peak_count);
  }
  library_ = ms::SpectralLibrary(std::move(specs));
  if (library_.target_count() !=
      static_cast<std::size_t>(meta_->target_count)) {
    fail("target count disagrees with the entry decoy flags");
  }
}

std::pair<std::size_t, std::size_t> LibraryIndex::mass_window(
    double mass, double tolerance) const noexcept {
  const std::span<const double> axis = mass_axis();
  const auto lo =
      std::lower_bound(axis.begin(), axis.end(), mass - tolerance);
  const auto hi =
      std::upper_bound(axis.begin(), axis.end(), mass + tolerance);
  return {static_cast<std::size_t>(lo - axis.begin()),
          static_cast<std::size_t>(hi - axis.begin())};
}

void LibraryIndex::verify_deep() const {
  for (const SectionInfo& s : sections_) {
    if (fnv1a64(image_.data() + s.offset, s.size) != s.checksum) {
      fail(std::string(section_name(s.id)) + " section checksum mismatch");
    }
  }
  // Tail bits beyond dim must be zero (popcounts and stored checksums
  // depend on it).
  const std::size_t wpv = words_per_hv();
  const std::size_t tail = meta_->dim & 63;
  if (tail != 0 && wpv > 0) {
    const std::uint64_t mask = ~((1ULL << tail) - 1);
    for (std::size_t i = 0; i < size(); ++i) {
      if ((hv_words_[i * wpv + wpv - 1] & mask) != 0) {
        fail("hypervector " + std::to_string(i) + " has non-zero tail bits");
      }
    }
  }
  for (std::size_t i = 0; i < library_.size(); ++i) {
    const ms::BinnedSpectrum& s = library_[i];
    if (!std::is_sorted(s.bins.begin(), s.bins.end())) {
      fail("entry " + std::to_string(i) + " peak bins are not sorted");
    }
  }
}

}  // namespace oms::index
