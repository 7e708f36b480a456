// Manifest of a segmented library: a small versioned file ("OMSXMAN1")
// listing the immutable "OMSXIDX1" segment artifacts that together form
// one logical library (index/segmented_library.hpp).
//
// Layout:
//
//   ManifestHeader        magic, version, endian tag, segment count,
//                         next segment sequence number, payload size +
//                         FNV-1a checksum (truncation fails loudly)
//   payload:
//     SegmentRecord[n]    per-segment entry count, concatenation base,
//                         file size, section-table hash, name slice
//     IndexFingerprint    the one configuration every segment was built
//                         under (segments with a different fingerprint
//                         are rejected at open)
//     name blob           segment file names, relative to the manifest's
//                         directory (a library directory can be moved or
//                         rsync'd wholesale)
//
// The manifest is the only mutable file in a segmented library — segments
// are append-once, read-forever. Every mutation (append, compaction) goes
// through Manifest::save's write-temp-then-rename, so readers either see
// the old generation or the new one, never a torn list. combined_hash()
// digests the fingerprint plus every segment record; it changes on every
// append/compaction and is what serve::LibraryCache keys on.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "index/format.hpp"
#include "index/library_index.hpp"

namespace oms::index {

inline constexpr std::uint64_t kManifestMagic =
    0x314E414D58534D4FULL;  // "OMSXMAN1"
inline constexpr std::uint32_t kManifestVersion = 1;

struct ManifestHeader {
  std::uint64_t magic = kManifestMagic;
  std::uint32_t version = kManifestVersion;
  std::uint32_t endian = kEndianTag;
  std::uint64_t segment_count = 0;
  /// Monotonic sequence for naming fresh segments; never reused, so a
  /// compacted-away segment's name can never collide with a new append.
  std::uint64_t next_sequence = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_checksum = 0;  ///< FNV-1a 64 over the payload.
  std::uint64_t reserved[2] = {0, 0};
};
static_assert(sizeof(ManifestHeader) == 64);

/// One segment row of the on-disk payload. The name lives in the name
/// blob at [name_offset, name_offset + name_length).
struct SegmentRecord {
  std::uint64_t entry_count = 0;
  /// Sum of all prior segments' entry counts — the segment's base in
  /// manifest-concatenation order (consistency-checked at load).
  std::uint64_t base = 0;
  std::uint64_t file_size = 0;
  /// section_table_hash() of the segment at append time; a swapped or
  /// rewritten segment file fails loudly at SegmentedLibrary::open.
  std::uint64_t table_checksum = 0;
  std::uint32_t name_offset = 0;
  std::uint32_t name_length = 0;
};
static_assert(sizeof(SegmentRecord) == 40);

/// In-memory form of one manifest row.
struct ManifestSegment {
  std::string name;  ///< Relative to the manifest's directory.
  std::uint64_t entry_count = 0;
  std::uint64_t base = 0;
  std::uint64_t file_size = 0;
  std::uint64_t table_checksum = 0;
};

struct Manifest {
  std::uint64_t next_sequence = 0;
  IndexFingerprint fingerprint{};
  std::vector<ManifestSegment> segments;

  /// Reads and validates a manifest. Bad magic/version/endianness,
  /// truncation, checksum mismatches, and inconsistent segment bases all
  /// throw std::runtime_error naming the problem.
  [[nodiscard]] static Manifest load(const std::string& path);

  /// Atomically persists (write temp + rename, like write_index_file).
  void save(const std::string& path) const;

  [[nodiscard]] std::uint64_t total_entries() const noexcept;

  /// Digest of the fingerprint and every segment row — the identity of
  /// this library *generation*. Changes on every append or compaction,
  /// so caches keyed on it invalidate cleanly.
  [[nodiscard]] std::uint64_t combined_hash() const noexcept;
};

/// True when `path` exists and starts with the manifest magic — how
/// callers taking "an index or a manifest" (SegmentedLibrary::open, the
/// library_index example) dispatch without a filename convention.
[[nodiscard]] bool is_manifest_file(const std::string& path);

/// Generation of the library at `path`, as SegmentedLibrary::generation()
/// reports it: the manifest's combined_hash(), or 0 for a monolithic index
/// (it never grows, so its path alone names it). serve::LibraryCache keys
/// on this. Throws like Manifest::load on a torn manifest.
[[nodiscard]] std::uint64_t library_generation(const std::string& path);

/// Order-sensitive digest of a segment's parsed section table (id,
/// offset, size, checksum per section) — cheap to recompute at open and
/// covering every payload byte transitively through the per-section
/// checksums.
[[nodiscard]] std::uint64_t section_table_hash(
    std::span<const SectionInfo> sections) noexcept;

}  // namespace oms::index
