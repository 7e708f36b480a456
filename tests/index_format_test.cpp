// On-disk format contract of the LibraryIndex container: fail-loud on
// truncation, corruption, bad magic/version/endianness/flags; structural
// mutations (resealed with fresh checksums so they get past the checksum
// gate) are rejected naming their cause, and seeded random mutations
// either fail with std::runtime_error or open into an index that passes
// verify_deep(); fingerprint mismatches reject with the offending fields;
// the writer rejects hypervectors of the wrong dimension; and the
// hypervector word block is 64-byte aligned little-endian words with
// clean tails.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "index/format.hpp"
#include "index/index_builder.hpp"
#include "index/library_index.hpp"
#include "index/writer.hpp"
#include "ms/synthetic.hpp"
#include "util/mapped_file.hpp"

namespace {

using namespace oms;

core::PipelineConfig small_config() {
  core::PipelineConfig cfg;
  cfg.encoder.dim = 1024;
  cfg.encoder.bins = cfg.preprocess.bin_count();
  cfg.encoder.chunks = 64;
  return cfg;
}

/// A small library pipeline (60 targets + 60 decoys) under `cfg`.
std::unique_ptr<core::Pipeline> small_pipeline(
    const core::PipelineConfig& cfg) {
  ms::WorkloadConfig data_cfg;
  data_cfg.reference_count = 60;
  data_cfg.query_count = 0;
  data_cfg.seed = 13;
  const auto workload = ms::generate_workload(data_cfg);
  auto pipeline = std::make_unique<core::Pipeline>(cfg);
  pipeline->set_library(workload.references);
  return pipeline;
}

/// A small index image in memory (via a live pipeline + the stream writer).
std::string build_image(const core::PipelineConfig& cfg) {
  const auto pipeline = small_pipeline(cfg);
  std::stringstream ss;
  index::write_index(ss, pipeline->library(), pipeline->reference_hvs(),
                     index::fingerprint_of(cfg));
  return ss.str();
}

template <typename T>
T read_at(const std::string& bytes, std::size_t offset) {
  T value{};
  std::memcpy(&value, bytes.data() + offset, sizeof value);
  return value;
}

template <typename T>
void write_at(std::string& bytes, std::size_t offset, const T& value) {
  std::memcpy(bytes.data() + offset, &value, sizeof value);
}

/// Byte offset of the section-table record for section `id`.
std::size_t record_offset(const std::string& bytes, std::uint32_t id) {
  const auto hdr = read_at<index::FileHeader>(bytes, 0);
  for (std::uint32_t s = 0; s < hdr.section_count; ++s) {
    const std::size_t at =
        sizeof(index::FileHeader) + s * sizeof(index::SectionRecord);
    if (read_at<index::SectionRecord>(bytes, at).id == id) return at;
  }
  ADD_FAILURE() << "no section " << index::section_name(id);
  return 0;
}

index::SectionRecord section_record(const std::string& bytes,
                                    std::uint32_t id) {
  return read_at<index::SectionRecord>(bytes, record_offset(bytes, id));
}

/// Recomputes the checksum of every section whose record still points
/// inside the image, so a mutation reaches the structural checks behind
/// the checksum gate. Tolerates a mutated header and table.
void reseal(std::string& bytes) {
  if (bytes.size() < sizeof(index::FileHeader)) return;
  const auto hdr = read_at<index::FileHeader>(bytes, 0);
  for (std::uint32_t s = 0; s < hdr.section_count; ++s) {
    const std::size_t at =
        sizeof(index::FileHeader) + s * sizeof(index::SectionRecord);
    if (at + sizeof(index::SectionRecord) > bytes.size()) return;
    auto rec = read_at<index::SectionRecord>(bytes, at);
    if (rec.offset > bytes.size() || rec.size > bytes.size() - rec.offset) {
      continue;
    }
    rec.checksum = index::fnv1a64(bytes.data() + rec.offset, rec.size);
    write_at(bytes, at, rec);
  }
}

/// Offset of IndexMeta field `member` inside the image.
std::size_t meta_field(const std::string& bytes, std::size_t member) {
  return section_record(bytes, index::kMeta).offset + member;
}

index::LibraryIndex open_image(const std::string& bytes,
                               const index::OpenOptions& opts = {}) {
  return index::LibraryIndex::from_image(
      util::MappedFile::from_bytes(bytes.data(), bytes.size()), opts);
}

void expect_open_fails(const std::string& bytes, const std::string& needle) {
  try {
    (void)open_image(bytes);
    FAIL() << "expected std::runtime_error containing \"" << needle << "\"";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(IndexFormat, OpensItsOwnOutput) {
  const auto cfg = small_config();
  const std::string bytes = build_image(cfg);
  const auto idx = open_image(bytes);
  EXPECT_EQ(idx.size(), 120U);  // 60 targets + 60 decoys
  EXPECT_EQ(idx.dim(), 1024U);
  EXPECT_EQ(idx.version(), index::kFormatVersion);
  EXPECT_EQ(idx.sections().size(), 7U);
  EXPECT_NO_THROW(idx.verify_deep());
}

TEST(IndexFormat, RejectsGarbageAndShortFiles) {
  expect_open_fails("not a library index", "truncated");
  expect_open_fails(std::string(200, 'x'), "magic");
}

TEST(IndexFormat, RejectsTruncationAnywhere) {
  const auto cfg = small_config();
  const std::string bytes = build_image(cfg);
  // Chop at several depths: inside the trailing section, mid-file, inside
  // the section table, inside the header.
  for (const double frac : {0.95, 0.5, 0.1, 0.001}) {
    const auto keep = static_cast<std::size_t>(
        static_cast<double>(bytes.size()) * frac);
    SCOPED_TRACE("keep=" + std::to_string(keep));
    EXPECT_THROW((void)open_image(bytes.substr(0, keep)),
                 std::runtime_error);
  }
}

TEST(IndexFormat, RejectsBadMagicVersionEndianness) {
  const auto cfg = small_config();
  const std::string bytes = build_image(cfg);

  std::string bad_magic = bytes;
  bad_magic[0] ^= 0x5A;
  expect_open_fails(bad_magic, "magic");

  std::string bad_version = bytes;
  bad_version[8] = 99;  // FileHeader::version
  expect_open_fails(bad_version, "version");

  std::string bad_endian = bytes;
  // FileHeader::endian at offset 12: byte-swapped tag = foreign endianness.
  std::swap(bad_endian[12], bad_endian[15]);
  std::swap(bad_endian[13], bad_endian[14]);
  expect_open_fails(bad_endian, "endianness");
}

TEST(IndexFormat, ChecksumCatchesCorruptionInEverySection) {
  const auto cfg = small_config();
  const std::string bytes = build_image(cfg);
  const auto clean = open_image(bytes);
  for (const auto& section : clean.sections()) {
    SCOPED_TRACE(index::section_name(section.id));
    ASSERT_GT(section.size, 0U);
    std::string corrupt = bytes;
    // Flip one bit in the middle of the section payload.
    corrupt[section.offset + section.size / 2] ^= 0x10;
    expect_open_fails(corrupt, "checksum");
    // Checksum verification is opt-out for latency-critical loads; the
    // flip must then surface through the structural checks at open or
    // through verify_deep() — never pass silently.
    index::OpenOptions lax;
    lax.verify_checksums = false;
    EXPECT_THROW(
        {
          const auto lazily = open_image(corrupt, lax);
          lazily.verify_deep();
        },
        std::runtime_error);
  }
}

TEST(IndexFormat, WordBlockIsAlignedLittleEndian) {
  const auto cfg = small_config();
  const std::string bytes = build_image(cfg);
  const auto idx = open_image(bytes);

  // 64-byte aligned block of ceil(dim/64) words per entry.
  EXPECT_EQ(idx.word_block_offset() % index::kWordBlockAlignment, 0U);
  EXPECT_EQ(idx.words_per_hv(), (idx.dim() + 63) / 64);

  // The stored bytes are the little-endian image of the words: byte k of
  // the block equals bits [8k, 8k+8) of the vector, regardless of how the
  // host orders words in registers.
  const util::ConstBitVec hv0 = idx.hypervector(0);
  const auto* raw = reinterpret_cast<const unsigned char*>(
      bytes.data() + idx.word_block_offset());
  for (std::size_t w = 0; w < hv0.word_count(); ++w) {
    std::uint64_t from_bytes = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      from_bytes |= static_cast<std::uint64_t>(raw[w * 8 + b]) << (8 * b);
    }
    ASSERT_EQ(from_bytes, hv0.words()[w]) << "word " << w;
  }

  // Views over the block agree with ConstBitVec access.
  const util::BitVec view = hv0.as_bitvec();
  EXPECT_TRUE(view.is_view());
  EXPECT_EQ(view.popcount(), hv0.popcount());
}

TEST(IndexFormat, FingerprintMismatchRejectsWithFieldNames) {
  const auto cfg = small_config();
  std::string bytes = build_image(cfg);

  auto open_with = [&](const core::PipelineConfig& pcfg) {
    auto idx = std::make_shared<index::LibraryIndex>(open_image(bytes));
    core::Pipeline pipeline(pcfg);
    pipeline.set_library(idx);
  };
  EXPECT_NO_THROW(open_with(cfg));

  auto expect_mismatch = [&](core::PipelineConfig pcfg,
                             const std::string& field) {
    try {
      open_with(pcfg);
      FAIL() << "expected fingerprint mismatch naming " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << "actual message: " << e.what();
    }
  };

  auto wrong_seed = cfg;
  wrong_seed.seed ^= 1;
  expect_mismatch(wrong_seed, "seed");

  auto wrong_dim = cfg;
  wrong_dim.encoder.dim = 2048;
  wrong_dim.encoder.chunks = 128;
  expect_mismatch(wrong_dim, "encoder.dim");

  auto wrong_preprocess = cfg;
  wrong_preprocess.preprocess.max_peaks = 60;
  expect_mismatch(wrong_preprocess, "preprocess");

  auto wrong_trait = cfg;
  wrong_trait.backend_name = "rram-statistical";
  expect_mismatch(wrong_trait, "imc_encoding");

  auto wrong_ber = cfg;
  wrong_ber.injected_ber = 0.01;
  expect_mismatch(wrong_ber, "injected_ber");

  // No pipeline option selects another encoder kind, so an artifact
  // recording one is simulated by patching the stored field (last case:
  // open_with reads `bytes`).
  write_at(bytes,
           meta_field(bytes, offsetof(index::IndexMeta, fingerprint) +
                                 offsetof(index::IndexFingerprint, enc_kind)),
           static_cast<std::uint32_t>(hd::EncoderKind::kPermutation));
  reseal(bytes);
  expect_mismatch(cfg, "encoder.kind");
}

TEST(IndexFormat, WriterRejectsWrongDimension) {
  const auto cfg = small_config();
  const auto pipeline = small_pipeline(cfg);
  const auto hvs = pipeline->reference_hvs();
  std::vector<util::BitVec> wrong(hvs.begin(), hvs.end());
  wrong[3] = util::BitVec(cfg.encoder.dim / 2);
  std::stringstream ss;
  try {
    index::write_index(ss, pipeline->library(), wrong,
                       index::fingerprint_of(cfg));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("dimension"), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(IndexFormat, RejectsHeaderFlagsOtherThanHasEntries) {
  const auto cfg = small_config();
  const std::string bytes = build_image(cfg);
  constexpr std::size_t kFlagsAt = offsetof(index::FileHeader, flags);
  ASSERT_EQ(read_at<std::uint32_t>(bytes, kFlagsAt), index::kFlagHasEntries);

  // kFlagHasEntries cleared: the shape of a hypervector-only cache, which
  // this reader no longer accepts.
  std::string cleared = bytes;
  write_at<std::uint32_t>(cleared, kFlagsAt, 0);
  expect_open_fails(cleared, "flags");

  // An unknown flag bit beside kFlagHasEntries.
  std::string unknown = bytes;
  write_at<std::uint32_t>(unknown, kFlagsAt, index::kFlagHasEntries | 2U);
  expect_open_fails(unknown, "flags");
}

TEST(IndexFormat, StructuralMutationsNameTheirCause) {
  const auto cfg = small_config();
  const std::string bytes = build_image(cfg);
  // Resealing an unmutated image changes nothing, so every failure below
  // comes from its mutation alone.
  std::string resealed = bytes;
  reseal(resealed);
  ASSERT_EQ(resealed, bytes);

  // Rewrites the table record of section `id` with `edit`, reseals, and
  // expects open to fail naming `needle`.
  const auto expect_record_edit_fails =
      [&](std::uint32_t id, const auto& edit, const std::string& needle) {
        SCOPED_TRACE(needle);
        std::string mutated = bytes;
        const std::size_t at = record_offset(mutated, id);
        auto rec = read_at<index::SectionRecord>(mutated, at);
        edit(rec);
        write_at(mutated, at, rec);
        reseal(mutated);
        expect_open_fails(mutated, needle);
      };

  expect_record_edit_fails(
      index::kPeptides,
      [&](index::SectionRecord& r) { r.offset = bytes.size() + 64; },
      "peptides section exceeds the file bounds");
  expect_record_edit_fails(
      index::kPeakBins, [](index::SectionRecord& r) { r.offset += 4; },
      "peak-bins section is misaligned");
  expect_record_edit_fails(
      index::kPeptides, [](index::SectionRecord& r) { r.id = index::kEntries; },
      "entries section appears twice");
  expect_record_edit_fails(
      index::kEntries, [](index::SectionRecord& r) { r.id = 99; },
      "entries section is missing");

  const auto expect_meta_edit_fails = [&](std::size_t member, const auto& edit,
                                          const std::string& needle) {
    SCOPED_TRACE(needle);
    std::string mutated = bytes;
    const std::size_t at = meta_field(mutated, member);
    write_at(mutated, at, edit(read_at<decltype(edit(0))>(mutated, at)));
    reseal(mutated);
    expect_open_fails(mutated, needle);
  };
  expect_meta_edit_fails(
      offsetof(index::IndexMeta, words_per_hv),
      [](std::uint32_t wpv) { return wpv + 1; },
      "inconsistent dimension/word count");
  // dim near 2^32 with words_per_hv = 0: `dim + 63` must not wrap in
  // 32 bits into a consistent-looking zero word count (and a zero stride).
  static_assert(offsetof(index::IndexMeta, words_per_hv) ==
                offsetof(index::IndexMeta, dim) + sizeof(std::uint32_t));
  expect_meta_edit_fails(
      offsetof(index::IndexMeta, dim),
      [](std::uint64_t) { return std::uint64_t{0xFFFFFFF0U}; },
      "inconsistent dimension/word count");
  expect_meta_edit_fails(
      offsetof(index::IndexMeta, entry_count),
      [](std::uint64_t n) { return n + 1; },
      "hv-words section size does not match entry count");

  // The last entry's peaks run one past the end of the peak sections.
  std::string mutated = bytes;
  const auto entries = section_record(mutated, index::kEntries);
  const std::size_t count = entries.size / sizeof(index::EntryRecord);
  const std::size_t at =
      entries.offset + (count - 1) * sizeof(index::EntryRecord);
  auto last = read_at<index::EntryRecord>(mutated, at);
  last.peak_count += 1;
  write_at(mutated, at, last);
  reseal(mutated);
  expect_open_fails(mutated,
                    "entry " + std::to_string(count - 1) +
                        " peaks exceed the peak sections");
}

TEST(IndexFormat, SeededRandomMutationsFailLoudOrVerify) {
  const auto cfg = small_config();
  const std::string bytes = build_image(cfg);
  // The header, section table and meta section hold every count and
  // offset the reader trusts; aim half the flips there.
  const std::size_t structural =
      meta_field(bytes, 0) + sizeof(index::IndexMeta);

  std::mt19937_64 rng(0x4F4D5358);
  std::size_t opened = 0;
  std::size_t rejected = 0;
  constexpr int kTrials = 600;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string mutated = bytes;
    const auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(rng() % n);
    };
    const bool truncate = pick(5) == 0;
    if (truncate) {
      mutated.resize(pick(bytes.size()));
      // Half the time also shrink the recorded size so the truncation
      // gets past the file-size check and into the section bounds.
      if (mutated.size() >= sizeof(index::FileHeader) && pick(2) == 0) {
        write_at<std::uint64_t>(mutated,
                                offsetof(index::FileHeader, file_size),
                                mutated.size());
      }
    } else {
      const std::size_t flips = 1 + pick(4);
      for (std::size_t f = 0; f < flips; ++f) {
        const std::size_t at =
            pick(2) == 0 ? pick(structural) : pick(mutated.size());
        mutated[at] = static_cast<char>(mutated[at] ^ (1U << pick(8)));
      }
    }
    if (pick(2) == 0) reseal(mutated);
    index::OpenOptions opts;
    opts.verify_checksums = pick(2) == 0;

    try {
      const auto idx = open_image(mutated, opts);
      idx.verify_deep();
      ++opened;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "trial " << trial << ": unexpected exception type: "
                    << e.what();
    }
  }
  // Both outcomes occur: flips in padding and annotation bytes survive a
  // reseal, structural ones do not.
  EXPECT_GT(opened, 0U);
  EXPECT_GT(rejected, 0U);
  EXPECT_EQ(opened + rejected, static_cast<std::size_t>(kTrials));
}

}  // namespace
