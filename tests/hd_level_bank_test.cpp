#include "hd/level_bank.hpp"

#include <gtest/gtest.h>

namespace oms::hd {
namespace {

TEST(LevelBank, RejectsBadParameters) {
  EXPECT_THROW(LevelBank(1, 1024, 64, 1), std::invalid_argument);
  EXPECT_THROW(LevelBank(16, 1000, 64, 1), std::invalid_argument);  // 64∤1000
  EXPECT_THROW(LevelBank(16, 1024, 0, 1), std::invalid_argument);
}

TEST(LevelBank, NeighborLevelsAreClose) {
  const LevelBank bank(32, 8192, 256, 5);
  // Adjacent levels flip chunks/(2(Q-1)) chunks → a small hamming distance.
  const std::uint32_t step = bank.level_distance(0, 1);
  EXPECT_GT(step, 0U);
  EXPECT_LT(step, 8192U / 8U);
}

TEST(LevelBank, DistanceGrowsMonotonicallyFromLevel0) {
  const LevelBank bank(16, 4096, 128, 6);
  std::uint32_t prev = 0;
  for (std::uint32_t q = 1; q < 16; ++q) {
    const std::uint32_t d = bank.level_distance(0, q);
    EXPECT_GE(d, prev) << "level " << q;
    prev = d;
  }
}

TEST(LevelBank, ExtremesAreNearOrthogonal) {
  const LevelBank bank(32, 8192, 256, 7);
  const std::uint32_t d = bank.level_distance(0, 31);
  // The paper's D/(2Q)-per-step rule puts extremes at ~D/2 apart.
  EXPECT_NEAR(static_cast<double>(d), 8192.0 / 2.0, 8192.0 * 0.1);
}

TEST(LevelBank, ChunkStructureIsUniformWithinChunks) {
  const LevelBank bank(8, 1024, 32, 8);
  for (std::uint32_t q = 0; q < 8; ++q) {
    const util::BitVec hv = bank.expand(q);
    const std::uint32_t width = bank.chunk_width();
    for (std::uint32_t c = 0; c < 32; ++c) {
      const bool first = hv.get(c * width);
      for (std::uint32_t k = 1; k < width; ++k) {
        ASSERT_EQ(hv.get(c * width + k), first)
            << "level " << q << " chunk " << c;
      }
      EXPECT_EQ(first, bank.chunk_sign(q, c) > 0);
    }
  }
}

TEST(LevelBank, ExpandMatchesLevelDistance) {
  const LevelBank bank(16, 2048, 64, 9);
  const util::BitVec a = bank.expand(2);
  const util::BitVec b = bank.expand(9);
  EXPECT_EQ(util::hamming_distance(a, b), bank.level_distance(2, 9));
}

TEST(LevelBank, UnchunkedModeWorks) {
  // chunks == dim recovers the classic per-bit scheme.
  const LevelBank bank(16, 1024, 1024, 10);
  EXPECT_EQ(bank.chunk_width(), 1U);
  EXPECT_GT(bank.level_distance(0, 15), 300U);
}

TEST(LevelBank, SignWordsMatchPerComponentDefinition) {
  // Chunk widths that fill whole words, split them, leave a partial last
  // word, cross word boundaries and span the whole dim.
  struct Shape {
    std::uint32_t dim, chunks;
  };
  for (const Shape s : {Shape{128, 128}, Shape{192, 64}, Shape{100, 25},
                        Shape{1024, 32}, Shape{384, 4}, Shape{200, 1}}) {
    const LevelBank bank(8, s.dim, s.chunks, 15);
    const std::uint32_t width = bank.chunk_width();
    for (std::uint32_t q = 0; q < bank.levels(); ++q) {
      const std::span<const std::uint64_t> words = bank.sign_words(q);
      ASSERT_EQ(words.size(), (s.dim + 63) / 64U);
      for (std::uint32_t d = 0; d < words.size() * 64; ++d) {
        const bool bit = (words[d / 64] >> (d % 64)) & 1U;
        const bool want = d < s.dim && bank.chunk_sign(q, d / width) > 0;
        ASSERT_EQ(bit, want) << "dim " << s.dim << " chunks " << s.chunks
                             << " level " << q << " component " << d;
      }
    }
  }
}

TEST(LevelBank, QuantizeMapsRangeToLevels) {
  const LevelBank bank(32, 1024, 32, 11);
  EXPECT_EQ(bank.quantize(0.0), 0U);
  EXPECT_EQ(bank.quantize(1.0), 31U);
  EXPECT_EQ(bank.quantize(-0.5), 0U);
  EXPECT_EQ(bank.quantize(2.0), 31U);
  EXPECT_EQ(bank.quantize(0.5), 16U);
}

TEST(LevelBank, QuantizeIsMonotone) {
  const LevelBank bank(16, 1024, 32, 12);
  std::uint32_t prev = 0;
  for (double x = 0.0; x <= 1.0; x += 0.01) {
    const std::uint32_t q = bank.quantize(x);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST(LevelBank, DeterministicInSeed) {
  const LevelBank a(16, 1024, 64, 13);
  const LevelBank b(16, 1024, 64, 13);
  for (std::uint32_t q = 0; q < 16; ++q) {
    EXPECT_EQ(a.expand(q), b.expand(q));
  }
}

TEST(LevelBank, OutOfRangeThrows) {
  const LevelBank bank(8, 512, 32, 14);
  EXPECT_THROW((void)bank.expand(8), std::out_of_range);
  EXPECT_THROW((void)bank.level_distance(0, 8), std::out_of_range);
}

}  // namespace
}  // namespace oms::hd
