#include "index/writer.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <system_error>
#include <vector>

namespace oms::index {
namespace {

/// Tracks one section while its payload streams out. All offsets are
/// relative to the container start, so a container embedded at any stream
/// position reads back correctly once the reader's image begins there.
class SectionWriter {
 public:
  SectionWriter(std::ostream& out, std::vector<SectionRecord>& table,
                std::uint64_t start)
      : out_(out), table_(table), start_(start) {}

  /// Pads to `alignment` and opens a section.
  void begin(std::uint32_t id, std::size_t alignment) {
    pad_to(alignment);
    current_ = SectionRecord{};
    current_.id = id;
    current_.offset = static_cast<std::uint64_t>(out_.tellp()) - start_;
    current_.checksum = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  }

  void write(const void* data, std::size_t size) {
    if (size == 0) return;  // empty spans may hand over a null pointer
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(size));
    current_.checksum = fnv1a64(data, size, current_.checksum);
    current_.size += size;
  }

  void end() { table_.push_back(current_); }

  void pad_to(std::size_t alignment) {
    static constexpr char zeros[kWordBlockAlignment] = {};
    const auto pos = static_cast<std::size_t>(out_.tellp()) - start_;
    const std::size_t rem = pos % alignment;
    if (rem != 0) {
      out_.write(zeros, static_cast<std::streamsize>(alignment - rem));
    }
  }

 private:
  std::ostream& out_;
  std::vector<SectionRecord>& table_;
  std::uint64_t start_;
  SectionRecord current_{};
};

}  // namespace

void write_index(std::ostream& out, const ms::SpectralLibrary& library,
                 std::span<const util::BitVec> hvs,
                 const IndexFingerprint& fingerprint) {
  const std::uint32_t dim = fingerprint.enc_dim;
  if (dim == 0) {
    throw std::invalid_argument("index writer: fingerprint has dim == 0");
  }
  for (const util::BitVec& hv : hvs) {
    if (hv.size() != dim) {
      throw std::invalid_argument(
          "index writer: hypervector dimension mismatch");
    }
  }
  if (library.size() != hvs.size()) {
    throw std::invalid_argument(
        "index writer: entry/hypervector count mismatch");
  }

  IndexMeta meta;
  meta.entry_count = hvs.size();
  meta.dim = dim;
  meta.words_per_hv = (dim + 63) / 64;
  meta.target_count = library.target_count();
  meta.fingerprint = fingerprint;

  constexpr std::size_t section_count = 7;
  const auto start = static_cast<std::uint64_t>(out.tellp());

  // Header + table placeholder; both are rewritten once sizes and
  // checksums are known.
  FileHeader header;
  header.section_count = static_cast<std::uint32_t>(section_count);
  header.flags = kFlagHasEntries;
  out.write(reinterpret_cast<const char*>(&header), sizeof header);
  std::vector<SectionRecord> table;
  table.reserve(section_count);
  {
    const std::vector<SectionRecord> zeros(section_count);
    out.write(reinterpret_cast<const char*>(zeros.data()),
              static_cast<std::streamsize>(section_count *
                                           sizeof(SectionRecord)));
  }

  SectionWriter w(out, table, start);

  std::uint64_t total_peaks = 0;
  std::uint64_t peptide_bytes = 0;
  for (const ms::BinnedSpectrum& s : library.entries()) {
    total_peaks += s.bins.size();
    peptide_bytes += s.peptide.size();
  }
  meta.total_peaks = total_peaks;
  meta.peptide_bytes = peptide_bytes;

  w.begin(kMeta, kSectionAlignment);
  w.write(&meta, sizeof meta);
  w.end();

  w.begin(kEntries, kSectionAlignment);
  std::uint64_t peak_offset = 0;
  std::uint64_t peptide_offset = 0;
  for (const ms::BinnedSpectrum& s : library.entries()) {
    EntryRecord rec;
    rec.precursor_mass = s.precursor_mass;
    rec.peak_offset = peak_offset;
    rec.peptide_offset = peptide_offset;
    rec.id = s.id;
    rec.precursor_charge = s.precursor_charge;
    rec.peak_count = static_cast<std::uint32_t>(s.bins.size());
    rec.peptide_length = static_cast<std::uint32_t>(s.peptide.size());
    rec.flags = s.is_decoy ? kEntryFlagDecoy : 0;
    w.write(&rec, sizeof rec);
    peak_offset += s.bins.size();
    peptide_offset += s.peptide.size();
  }
  w.end();

  w.begin(kPeptides, kSectionAlignment);
  for (const ms::BinnedSpectrum& s : library.entries()) {
    w.write(s.peptide.data(), s.peptide.size());
  }
  w.end();

  w.begin(kPeakBins, kSectionAlignment);
  for (const ms::BinnedSpectrum& s : library.entries()) {
    w.write(s.bins.data(), s.bins.size() * sizeof(std::uint32_t));
  }
  w.end();

  w.begin(kPeakWeights, kSectionAlignment);
  for (const ms::BinnedSpectrum& s : library.entries()) {
    w.write(s.weights.data(), s.weights.size() * sizeof(float));
  }
  w.end();

  w.begin(kMassAxis, kSectionAlignment);
  for (const ms::BinnedSpectrum& s : library.entries()) {
    w.write(&s.precursor_mass, sizeof(double));
  }
  w.end();

  w.begin(kHvWords, kWordBlockAlignment);
  for (const util::BitVec& hv : hvs) {
    w.write(hv.words().data(), hv.word_count() * sizeof(std::uint64_t));
  }
  w.end();

  w.pad_to(kSectionAlignment);
  header.file_size = static_cast<std::uint64_t>(out.tellp()) - start;

  // Patch in the header and the completed section table.
  out.seekp(static_cast<std::streamoff>(start));
  out.write(reinterpret_cast<const char*>(&header), sizeof header);
  out.write(reinterpret_cast<const char*>(table.data()),
            static_cast<std::streamsize>(table.size() *
                                         sizeof(SectionRecord)));
  out.seekp(static_cast<std::streamoff>(start + header.file_size));
  if (!out) {
    throw std::runtime_error("index writer: stream write failed");
  }
}

void write_index_file(const std::string& path,
                      const ms::SpectralLibrary& library,
                      std::span<const util::BitVec> hvs,
                      const IndexFingerprint& fingerprint) {
  // Stream into a sibling temp file and rename into place: truncating
  // `path` directly would rip the pages out from under any live mapping
  // of the old artifact (including the very pipeline being persisted when
  // --index-in and --index-out name the same file), and a crash mid-write
  // must never leave a torn container behind.
  const std::string tmp = path + ".tmp";
  try {
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) {
        throw std::runtime_error("index writer: cannot write " + tmp);
      }
      write_index(out, library, hvs, fingerprint);
      out.flush();
      if (!out) {
        throw std::runtime_error("index writer: write failed for " + tmp);
      }
    }
    std::filesystem::rename(tmp, path);
  } catch (...) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw;
  }
}

}  // namespace oms::index
