#include "index/manifest.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "index/index_builder.hpp"
#include "util/rng.hpp"

namespace oms::index {
namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("manifest " + path + ": " + what);
}

}  // namespace

Manifest Manifest::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(path, "cannot open");

  ManifestHeader header;
  in.read(reinterpret_cast<char*>(&header), sizeof header);
  if (!in) fail(path, "truncated header");
  if (header.magic != kManifestMagic) fail(path, "bad magic");
  if (header.endian != kEndianTag) {
    fail(path, "byte order mismatch (written on a different endianness)");
  }
  if (header.version != kManifestVersion) {
    fail(path, "unsupported version " + std::to_string(header.version));
  }
  // Check both header counts before trusting either: the payload must fit
  // in the bytes the file still holds (so nothing is allocated for a size
  // the file cannot back), and the segment table and fingerprint in the
  // payload, bounded by division so a huge count cannot wrap.
  const std::streamoff here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff end = in.tellg();
  in.seekg(here);
  if (!in || here < 0 || end < here) fail(path, "cannot size the file");
  const auto left = static_cast<std::uint64_t>(end - here);
  if (header.payload_bytes > left) {
    fail(path, "payload_bytes " + std::to_string(header.payload_bytes) +
                   " exceeds the " + std::to_string(left) +
                   " bytes after the header");
  }
  if (header.payload_bytes < sizeof(IndexFingerprint) ||
      header.segment_count >
          (header.payload_bytes - sizeof(IndexFingerprint)) /
              sizeof(SegmentRecord)) {
    fail(path, "segment_count " + std::to_string(header.segment_count) +
                   " does not fit payload_bytes " +
                   std::to_string(header.payload_bytes));
  }
  const std::uint64_t min_payload =
      header.segment_count * sizeof(SegmentRecord) + sizeof(IndexFingerprint);

  std::vector<char> payload(header.payload_bytes);
  in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!in) fail(path, "truncated payload");
  if (fnv1a64(payload.data(), payload.size()) != header.payload_checksum) {
    fail(path, "payload checksum mismatch (corrupt or torn write)");
  }

  Manifest m;
  m.next_sequence = header.next_sequence;
  const char* p = payload.data();
  std::vector<SegmentRecord> records(header.segment_count);
  std::memcpy(records.data(), p, records.size() * sizeof(SegmentRecord));
  p += records.size() * sizeof(SegmentRecord);
  std::memcpy(&m.fingerprint, p, sizeof(IndexFingerprint));
  p += sizeof(IndexFingerprint);
  const std::size_t name_bytes = header.payload_bytes - min_payload;

  std::uint64_t base = 0;
  m.segments.reserve(records.size());
  for (const SegmentRecord& rec : records) {
    if (rec.name_offset + static_cast<std::uint64_t>(rec.name_length) >
        name_bytes) {
      fail(path, "segment name slice out of range");
    }
    if (rec.base != base) {
      fail(path, "inconsistent segment bases (manifest edited by hand?)");
    }
    base += rec.entry_count;
    m.segments.push_back(ManifestSegment{
        std::string(p + rec.name_offset, rec.name_length), rec.entry_count,
        rec.base, rec.file_size, rec.table_checksum});
  }
  return m;
}

void Manifest::save(const std::string& path) const {
  std::vector<SegmentRecord> records;
  records.reserve(segments.size());
  std::string names;
  std::uint64_t base = 0;
  for (const ManifestSegment& s : segments) {
    SegmentRecord rec;
    rec.entry_count = s.entry_count;
    rec.base = base;
    rec.file_size = s.file_size;
    rec.table_checksum = s.table_checksum;
    rec.name_offset = static_cast<std::uint32_t>(names.size());
    rec.name_length = static_cast<std::uint32_t>(s.name.size());
    records.push_back(rec);
    names += s.name;
    base += s.entry_count;
  }

  std::vector<char> payload(records.size() * sizeof(SegmentRecord) +
                            sizeof(IndexFingerprint) + names.size());
  char* p = payload.data();
  std::memcpy(p, records.data(), records.size() * sizeof(SegmentRecord));
  p += records.size() * sizeof(SegmentRecord);
  std::memcpy(p, &fingerprint, sizeof(IndexFingerprint));
  p += sizeof(IndexFingerprint);
  std::memcpy(p, names.data(), names.size());

  ManifestHeader header;
  header.segment_count = segments.size();
  header.next_sequence = next_sequence;
  header.payload_bytes = payload.size();
  header.payload_checksum = fnv1a64(payload.data(), payload.size());

  // Same crash-safety contract as write_index_file: a reader either maps
  // the previous generation or this one, never a torn manifest.
  const std::string tmp = path + ".tmp";
  try {
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) fail(tmp, "cannot write");
      out.write(reinterpret_cast<const char*>(&header), sizeof header);
      out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
      out.flush();
      if (!out) fail(tmp, "write failed");
    }
    std::filesystem::rename(tmp, path);
  } catch (...) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw;
  }
}

std::uint64_t Manifest::total_entries() const noexcept {
  std::uint64_t n = 0;
  for (const ManifestSegment& s : segments) n += s.entry_count;
  return n;
}

std::uint64_t Manifest::combined_hash() const noexcept {
  std::uint64_t x = util::hash_combine(0x4D414E4946455354ULL,  // "MANIFEST"
                                       fingerprint_hash(fingerprint));
  for (const ManifestSegment& s : segments) {
    x = util::hash_combine(x, fnv1a64(s.name.data(), s.name.size()));
    x = util::hash_combine(x, s.entry_count, s.base);
    x = util::hash_combine(x, s.file_size, s.table_checksum);
  }
  return x;
}

bool is_manifest_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  return in && magic == kManifestMagic;
}

std::uint64_t library_generation(const std::string& path) {
  return is_manifest_file(path) ? Manifest::load(path).combined_hash() : 0;
}

std::uint64_t section_table_hash(
    std::span<const SectionInfo> sections) noexcept {
  std::uint64_t x = 0x53454354424C3031ULL;  // "SECTBL01"
  for (const SectionInfo& s : sections) {
    x = util::hash_combine(x, static_cast<std::uint64_t>(s.id), s.offset);
    x = util::hash_combine(x, s.size, s.checksum);
  }
  return x;
}

}  // namespace oms::index
