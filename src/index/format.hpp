// On-disk layout of the persistent LibraryIndex container (one file, one
// format, version-gated):
//
//   FileHeader            magic "OMSXIDX1", version, endian tag, flags
//   SectionRecord[n]      id, offset, size, FNV-1a checksum per section
//   sections...           each 8-byte aligned; the hypervector word block
//                         64-byte aligned for cache-line/SIMD friendliness
//
// Sections (header flags are exactly kFlagHasEntries; a reader rejects
// any other value):
//   kMeta         IndexMeta: counts + the IndexFingerprint of everything
//                 that shaped the artifact (preprocess config, encoder
//                 config + kind, IMC-vs-exact encoding, decoys, seeds, BER)
//   kEntries      EntryRecord[count] in mass-sorted library order
//   kPeptides     concatenated annotation bytes (EntryRecord offsets)
//   kPeakBins     uint32[total_peaks]   sparse m/z bin indices
//   kPeakWeights  float[total_peaks]    L2-normalized weights
//   kMassAxis     double[count]         sorted precursor masses (the
//                 mass_window axis, redundant with kEntries by design so a
//                 mapped reader can binary-search without touching entries)
//   kHvWords      uint64[count * words_per_hv]  the encoded hypervectors,
//                 entry i at words [i*wpv, (i+1)*wpv), little-endian,
//                 tail bits zero
//
// All integers are little-endian; the endian tag in the header makes a
// byte-swapped reader fail loudly instead of searching garbage. Every
// struct here is a packed-by-layout POD (static_asserts below) so the
// bytes on disk are exactly the bytes in memory on any little-endian host.
#pragma once

#include <cstddef>
#include <cstdint>

#include "hd/encoder.hpp"

namespace oms::index {

inline constexpr std::uint64_t kMagic = 0x3158444958534D4FULL;  // "OMSXIDX1"
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::uint32_t kEndianTag = 0x01020304;
/// File offset alignment of the hypervector word block.
inline constexpr std::size_t kWordBlockAlignment = 64;
/// File offset alignment of every other section.
inline constexpr std::size_t kSectionAlignment = 8;

enum SectionId : std::uint32_t {
  kMeta = 1,
  kEntries = 2,
  kPeptides = 3,
  kPeakBins = 4,
  kPeakWeights = 5,
  kMassAxis = 6,
  kHvWords = 7,
};

[[nodiscard]] constexpr const char* section_name(std::uint32_t id) noexcept {
  switch (id) {
    case kMeta: return "meta";
    case kEntries: return "entries";
    case kPeptides: return "peptides";
    case kPeakBins: return "peak-bins";
    case kPeakWeights: return "peak-weights";
    case kMassAxis: return "mass-axis";
    case kHvWords: return "hv-words";
  }
  return "unknown";
}

/// Header flags. Every container carries its library entries, so this is
/// the one value a reader accepts.
inline constexpr std::uint32_t kFlagHasEntries = 1U << 0;

struct FileHeader {
  std::uint64_t magic = kMagic;
  std::uint32_t version = kFormatVersion;
  std::uint32_t endian = kEndianTag;
  std::uint32_t section_count = 0;
  std::uint32_t flags = 0;
  std::uint64_t file_size = 0;  ///< Total bytes; truncation fails loudly.
  std::uint64_t reserved[4] = {0, 0, 0, 0};
};
static_assert(sizeof(FileHeader) == 64);

struct SectionRecord {
  std::uint32_t id = 0;
  std::uint32_t reserved = 0;
  std::uint64_t offset = 0;    ///< Absolute file offset.
  std::uint64_t size = 0;      ///< Payload bytes (before padding).
  std::uint64_t checksum = 0;  ///< FNV-1a 64 over the payload bytes.
};
static_assert(sizeof(SectionRecord) == 32);

/// Everything that shaped the artifact. A loader compares this against the
/// configuration of the pipeline that wants to search it and fails loudly
/// on any mismatch — a stale or foreign index must never silently serve.
/// Field order groups 8-byte members first so the struct has no padding.
struct IndexFingerprint {
  // Preprocessing (ms::PreprocessConfig).
  double pre_min_mz = 0.0;
  double pre_max_mz = 0.0;
  double pre_bin_width = 0.0;
  double pre_precursor_window = 0.0;
  // Encoder + encoding path.
  std::uint64_t enc_seed = 0;
  std::uint64_t pipeline_seed = 0;
  double injected_ber = 0.0;
  std::uint64_t calibration_samples = 0;
  /// Hash of the device model (rram::ArrayConfig + activated pairs) the
  /// references were IMC-encoded through; 0 when imc_encoding is 0.
  std::uint64_t device_hash = 0;
  std::uint64_t reserved8[2] = {0, 0};
  // 4-byte tail (kept to an even count; no padding).
  float pre_min_intensity_ratio = 0.0F;
  std::uint32_t pre_max_peaks = 0;
  std::uint32_t pre_min_peaks = 0;
  std::uint32_t pre_sqrt_intensity = 0;
  std::uint32_t pre_remove_precursor = 0;
  std::uint32_t enc_dim = 0;
  std::uint32_t enc_bins = 0;
  std::uint32_t enc_levels = 0;
  std::uint32_t enc_chunks = 0;
  std::uint32_t enc_id_precision = 0;
  std::uint32_t enc_kind = 0;  ///< hd::EncoderKind.
  std::uint32_t imc_encoding = 0;
  std::uint32_t add_decoys = 0;
  std::uint32_t reserved4 = 0;

  [[nodiscard]] bool operator==(const IndexFingerprint&) const = default;
};
static_assert(sizeof(IndexFingerprint) == 88 + 56);

/// Payload of the kMeta section.
struct IndexMeta {
  std::uint64_t entry_count = 0;
  std::uint64_t target_count = 0;
  std::uint32_t dim = 0;
  std::uint32_t words_per_hv = 0;
  std::uint64_t total_peaks = 0;
  std::uint64_t peptide_bytes = 0;
  std::uint64_t reserved[2] = {0, 0};
  IndexFingerprint fingerprint;
};
static_assert(sizeof(IndexMeta) == 56 + sizeof(IndexFingerprint));

/// One mass-sorted library entry. Peaks live at element index
/// [peak_offset, peak_offset + peak_count) of the kPeakBins/kPeakWeights
/// sections, the annotation at byte [peptide_offset, +peptide_length) of
/// kPeptides.
struct EntryRecord {
  double precursor_mass = 0.0;
  std::uint64_t peak_offset = 0;
  std::uint64_t peptide_offset = 0;
  std::uint32_t id = 0;
  std::int32_t precursor_charge = 1;
  std::uint32_t peak_count = 0;
  std::uint32_t peptide_length = 0;
  std::uint32_t flags = 0;  ///< bit0: decoy.
  std::uint32_t reserved = 0;
};
static_assert(sizeof(EntryRecord) == 48);

inline constexpr std::uint32_t kEntryFlagDecoy = 1U << 0;

/// FNV-1a 64-bit over a byte range — the per-section checksum.
[[nodiscard]] inline std::uint64_t fnv1a64(
    const void* data, std::size_t size,
    std::uint64_t hash = 0xcbf29ce484222325ULL) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= p[i];
    hash *= 0x00000100000001b3ULL;
  }
  return hash;
}

}  // namespace oms::index
