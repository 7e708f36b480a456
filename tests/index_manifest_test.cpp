// On-disk contract of the OMSXMAN1 manifest reader (index::Manifest::load):
// its own output loads back; header counts are checked against the file
// before anything is allocated for them; structural mutations (resealed
// with a fresh payload checksum so they get past the checksum gate) are
// rejected naming their cause; and seeded random flips and truncations
// either load cleanly or throw std::runtime_error naming the manifest.
//
// Runs under the `io` ctest label (filename prefix).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>

#include "core/pipeline.hpp"
#include "index/index_builder.hpp"
#include "index/manifest.hpp"

namespace {

using namespace oms;

constexpr std::size_t kHeader = sizeof(index::ManifestHeader);
constexpr std::size_t kRecord = sizeof(index::SegmentRecord);

/// A three-segment manifest. Its name blob is shorter than one segment
/// record, so one more segment than recorded cannot fit the payload.
index::Manifest sample_manifest() {
  core::PipelineConfig cfg;
  cfg.encoder.dim = 1024;
  cfg.encoder.bins = cfg.preprocess.bin_count();
  cfg.encoder.chunks = 64;
  index::Manifest m;
  m.fingerprint = index::fingerprint_of(cfg);
  m.next_sequence = 3;
  std::uint64_t base = 0;
  const std::uint64_t counts[] = {120, 40, 7};
  for (std::size_t i = 0; i < 3; ++i) {
    m.segments.push_back(index::ManifestSegment{
        "s" + std::to_string(i) + ".omsx", counts[i], base,
        4096 * (i + 1), 0x1234 + i});
    base += counts[i];
  }
  return m;
}

std::string path_for(const std::string& name) {
  return testing::TempDir() + "manifest_" + name + ".omsman";
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(f)), {});
}

/// The bytes Manifest::save writes for sample_manifest().
std::string sample_image() {
  const std::string path = path_for("sample");
  sample_manifest().save(path);
  std::string bytes = read_file(path);
  std::remove(path.c_str());
  return bytes;
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

/// Recomputes the payload checksum when the recorded payload still lies
/// inside the image, so a mutation reaches the structural checks behind
/// the checksum gate. Tolerates a mutated or truncated header.
void reseal(std::string& bytes) {
  if (bytes.size() < kHeader) return;
  const auto hdr = read_at<index::ManifestHeader>(bytes, 0);
  if (hdr.payload_bytes > bytes.size() - kHeader) return;
  write_at(bytes, offsetof(index::ManifestHeader, payload_checksum),
           index::fnv1a64(bytes.data() + kHeader, hdr.payload_bytes));
}

/// Byte offset of field `member` of segment record `i`.
std::size_t record_field(std::size_t i, std::size_t member) {
  return kHeader + i * kRecord + member;
}

/// Loads `bytes` from a file named after `name`: the message must name
/// that file and contain `needle`.
void expect_load_fails(const std::string& bytes, const std::string& name,
                       const std::string& needle) {
  const std::string path = path_for(name);
  write_file(path, bytes);
  try {
    (void)index::Manifest::load(path);
    ADD_FAILURE() << name << ": expected std::runtime_error containing \""
                  << needle << "\"";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("manifest " + path + ": "), std::string::npos)
        << name << ": " << what;
    EXPECT_NE(what.find(needle), std::string::npos) << name << ": " << what;
  }
  std::remove(path.c_str());
}

TEST(ManifestFormat, LoadsItsOwnOutput) {
  const std::string bytes = sample_image();
  // Resealing an unmutated image changes nothing, so every failure below
  // comes from its mutation alone.
  std::string resealed = bytes;
  reseal(resealed);
  ASSERT_EQ(resealed, bytes);

  const std::string path = path_for("own");
  write_file(path, bytes);
  const index::Manifest m = index::Manifest::load(path);
  std::remove(path.c_str());
  const index::Manifest want = sample_manifest();
  EXPECT_EQ(m.combined_hash(), want.combined_hash());
  ASSERT_EQ(m.segments.size(), 3U);
  EXPECT_EQ(m.segments[2].name, "s2.omsx");
  EXPECT_EQ(m.total_entries(), 167U);
  EXPECT_EQ(m.next_sequence, 3U);
}

TEST(ManifestFormat, HugePayloadBytesFailsBeforeAllocating) {
  // A payload the file cannot hold is refused by size, naming the field,
  // instead of being allocated (std::bad_alloc) and read.
  std::string bytes = sample_image();
  write_at<std::uint64_t>(bytes, offsetof(index::ManifestHeader, payload_bytes),
                          std::uint64_t{1} << 62);
  expect_load_fails(bytes, "huge_payload", "payload_bytes 4611686018427387904");
}

TEST(ManifestFormat, HugeSegmentCountFailsWithoutWrapping) {
  // 40 · 2^61 wraps to 0 in 64-bit arithmetic, so a multiplied bound
  // passes and the reader would size a table of 2^61 records. The payload
  // and its checksum are untouched.
  std::string bytes = sample_image();
  write_at<std::uint64_t>(bytes, offsetof(index::ManifestHeader, segment_count),
                          std::uint64_t{1} << 61);
  expect_load_fails(bytes, "huge_count", "segment_count 2305843009213693952");
}

TEST(ManifestFormat, StructuralMutationsNameTheirCause) {
  const std::string good = sample_image();
  const std::size_t payload = good.size() - kHeader;

  struct Mutation {
    const char* name;
    void (*edit)(std::string&);
    const char* needle;
  };
  const Mutation mutations[] = {
      {"magic",
       [](std::string& b) { b[0] = static_cast<char>(b[0] ^ 1); },
       "bad magic"},
      {"version",
       [](std::string& b) {
         write_at<std::uint32_t>(b, offsetof(index::ManifestHeader, version),
                                 2);
       },
       "unsupported version 2"},
      {"endian",
       [](std::string& b) {
         write_at<std::uint32_t>(b, offsetof(index::ManifestHeader, endian),
                                 ~index::kEndianTag);
       },
       "byte order mismatch"},
      {"count_plus_one",
       [](std::string& b) {
         write_at<std::uint64_t>(
             b, offsetof(index::ManifestHeader, segment_count), 4);
       },
       "segment_count 4 does not fit"},
      {"payload_below_fingerprint",
       [](std::string& b) {
         write_at<std::uint64_t>(
             b, offsetof(index::ManifestHeader, payload_bytes), 8);
       },
       "does not fit payload_bytes 8"},
      {"payload_short_by_one",
       [](std::string& b) {
         const auto n = read_at<std::uint64_t>(
             b, offsetof(index::ManifestHeader, payload_bytes));
         write_at<std::uint64_t>(
             b, offsetof(index::ManifestHeader, payload_bytes), n - 1);
       },
       "segment name slice out of range"},
      {"payload_long_by_one",
       [](std::string& b) {
         const auto n = read_at<std::uint64_t>(
             b, offsetof(index::ManifestHeader, payload_bytes));
         write_at<std::uint64_t>(
             b, offsetof(index::ManifestHeader, payload_bytes), n + 1);
       },
       "bytes after the header"},
      {"base",
       [](std::string& b) {
         write_at<std::uint64_t>(
             b, record_field(1, offsetof(index::SegmentRecord, base)), 121);
       },
       "inconsistent segment bases"},
      {"entry_count",
       [](std::string& b) {
         write_at<std::uint64_t>(
             b, record_field(0, offsetof(index::SegmentRecord, entry_count)),
             119);
       },
       "inconsistent segment bases"},
      {"name_offset",
       [](std::string& b) {
         write_at<std::uint32_t>(
             b, record_field(2, offsetof(index::SegmentRecord, name_offset)),
             0xFFFFFFF0U);
       },
       "segment name slice out of range"},
      {"name_length",
       [](std::string& b) {
         write_at<std::uint32_t>(
             b, record_field(0, offsetof(index::SegmentRecord, name_length)),
             0xFFFFFFFFU);
       },
       "segment name slice out of range"},
      {"truncated_header", [](std::string& b) { b.resize(kHeader - 1); },
       "truncated header"},
      {"truncated_payload", [](std::string& b) { b.pop_back(); },
       "bytes after the header"},
  };
  // The name blob is shorter than one record (see sample_manifest).
  ASSERT_LT(payload - 3 * kRecord - sizeof(index::IndexFingerprint), kRecord);
  for (const Mutation& m : mutations) {
    std::string bytes = good;
    m.edit(bytes);
    reseal(bytes);
    expect_load_fails(bytes, m.name, m.needle);
  }

  // Without a reseal, any payload byte flip is caught by the checksum.
  std::string flipped = good;
  flipped.back() = static_cast<char>(flipped.back() ^ 0x40);
  expect_load_fails(flipped, "payload_flip", "payload checksum mismatch");
}

TEST(ManifestFormat, SeededRandomMutationsLoadOrFailNamingTheManifest) {
  const std::string good = sample_image();
  // The header and segment table hold every count and offset the reader
  // trusts; aim half the flips there.
  const std::size_t structural = kHeader + 3 * kRecord;
  const std::string path = path_for("seeded");

  std::mt19937_64 rng(0x4F4D584D);
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  constexpr int kTrials = 600;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string bytes = good;
    const auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(rng() % n);
    };
    if (pick(5) == 0) {
      bytes.resize(pick(good.size()));
      // Half the time also shrink the recorded payload so the truncation
      // gets past the size check and into the table and name bounds.
      if (bytes.size() >= kHeader && pick(2) == 0) {
        write_at<std::uint64_t>(
            bytes, offsetof(index::ManifestHeader, payload_bytes),
            bytes.size() - kHeader);
      }
    } else {
      const std::size_t flips = 1 + pick(4);
      for (std::size_t f = 0; f < flips; ++f) {
        const std::size_t at =
            pick(2) == 0 ? pick(structural) : pick(bytes.size());
        bytes[at] = static_cast<char>(bytes[at] ^ (1U << pick(8)));
      }
    }
    if (pick(4) != 0) reseal(bytes);
    write_file(path, bytes);

    try {
      const index::Manifest m = index::Manifest::load(path);
      // A clean load is internally consistent: bases are the running
      // concatenation offsets.
      std::uint64_t base = 0;
      for (const index::ManifestSegment& s : m.segments) {
        ASSERT_EQ(s.base, base) << "trial " << trial;
        base += s.entry_count;
      }
      ++loaded;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("manifest " + path + ": ", 0),
                0U)
          << "trial " << trial << ": " << e.what();
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "trial " << trial
                    << ": unexpected exception type: " << e.what();
    }
  }
  std::remove(path.c_str());
  // Both outcomes occur: flips in names, the fingerprint and the sequence
  // survive a reseal; structural ones do not.
  EXPECT_GT(loaded, 0U);
  EXPECT_GT(rejected, 0U);
  EXPECT_EQ(loaded + rejected, static_cast<std::size_t>(kTrials));
}

}  // namespace
