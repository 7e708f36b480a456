#include "hd/id_bank.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace oms::hd {
namespace {

TEST(IdPrecisionHelpers, MagnitudeTable) {
  EXPECT_EQ(max_magnitude(IdPrecision::k1Bit), 1);
  EXPECT_EQ(max_magnitude(IdPrecision::k2Bit), 3);
  EXPECT_EQ(max_magnitude(IdPrecision::k3Bit), 7);
  EXPECT_EQ(magnitude_count(IdPrecision::k1Bit), 1);
  EXPECT_EQ(magnitude_count(IdPrecision::k2Bit), 2);
  EXPECT_EQ(magnitude_count(IdPrecision::k3Bit), 4);
}

TEST(IdBank, RowValuesMatchPrecisionLattice) {
  for (const auto p :
       {IdPrecision::k1Bit, IdPrecision::k2Bit, IdPrecision::k3Bit}) {
    IdBank bank(10, 2048, p, 123);
    std::vector<std::int8_t> row(2048);
    bank.generate_row(3, row);
    const int maxmag = max_magnitude(p);
    for (const std::int8_t v : row) {
      EXPECT_NE(v, 0);
      EXPECT_LE(std::abs(v), maxmag);
      EXPECT_EQ(std::abs(v) % 2, 1) << "magnitudes must be odd";
    }
  }
}

TEST(IdBank, SignsAndMagnitudesBalanced) {
  IdBank bank(4, 65536, IdPrecision::k3Bit, 7);
  std::vector<std::int8_t> row(65536);
  bank.generate_row(0, row);
  std::map<int, int> counts;
  int positive = 0;
  for (const std::int8_t v : row) {
    positive += v > 0 ? 1 : 0;
    ++counts[std::abs(v)];
  }
  EXPECT_NEAR(positive / 65536.0, 0.5, 0.02);
  // Four odd magnitudes, each ~25%.
  for (const int mag : {1, 3, 5, 7}) {
    EXPECT_NEAR(counts[mag] / 65536.0, 0.25, 0.02) << mag;
  }
}

TEST(IdBank, RowsAreDeterministic) {
  IdBank a(10, 512, IdPrecision::k2Bit, 42);
  IdBank b(10, 512, IdPrecision::k2Bit, 42);
  std::vector<std::int8_t> ra(512);
  std::vector<std::int8_t> rb(512);
  a.generate_row(5, ra);
  b.generate_row(5, rb);
  EXPECT_EQ(ra, rb);
}

TEST(IdBank, DifferentBinsDiffer) {
  IdBank bank(10, 4096, IdPrecision::k1Bit, 42);
  std::vector<std::int8_t> r0(4096);
  std::vector<std::int8_t> r1(4096);
  bank.generate_row(0, r0);
  bank.generate_row(1, r1);
  int same = 0;
  for (std::size_t i = 0; i < r0.size(); ++i) same += r0[i] == r1[i] ? 1 : 0;
  // Independent bipolar rows agree on about half the components.
  EXPECT_NEAR(same / 4096.0, 0.5, 0.05);
}

TEST(IdBank, DifferentSeedsDiffer) {
  IdBank a(10, 1024, IdPrecision::k1Bit, 1);
  IdBank b(10, 1024, IdPrecision::k1Bit, 2);
  std::vector<std::int8_t> ra(1024);
  std::vector<std::int8_t> rb(1024);
  a.generate_row(0, ra);
  b.generate_row(0, rb);
  EXPECT_NE(ra, rb);
}

TEST(IdBank, PackedRowExpandsToGeneratedRow) {
  // The shared store's packed row, expanded through the nibble table, is
  // the int8 oracle — at every precision, for one-word-block, paper-like
  // and large dims. No ensure(): row() publishes on first touch.
  for (const auto p :
       {IdPrecision::k1Bit, IdPrecision::k2Bit, IdPrecision::k3Bit}) {
    for (const std::uint32_t dim : {64U, 2048U, 65536U}) {
      IdBank bank(100, dim, p, 9);
      for (const std::uint32_t bin : {0U, 7U, 99U}) {
        const auto packed = bank.row(bin);
        ASSERT_EQ(packed.size(), dim / 16U);
        std::vector<std::int8_t> expanded(dim);
        expand_row(packed, p, expanded);
        std::vector<std::int8_t> fresh(dim);
        bank.generate_row(bin, fresh);
        ASSERT_EQ(expanded, fresh) << "precision " << static_cast<int>(p)
                                   << " dim " << dim << " bin " << bin;
      }
    }
  }
}

TEST(IdBank, SameKeySharesRowsAcrossBanks) {
  IdBank a(50, 1024, IdPrecision::k2Bit, 77);
  const std::vector<std::uint32_t> bins = {3, 11};
  a.ensure(bins);  // warm-up hint; b below sees the published rows
  IdBank b(50, 1024, IdPrecision::k2Bit, 77);
  EXPECT_EQ(a.row(3).data(), b.row(3).data());
  EXPECT_EQ(a.row(11).data(), b.row(11).data());
  EXPECT_EQ(a.row(20).data(), b.row(20).data());  // cold in both
  EXPECT_NE(a.row(3).data(), a.row(11).data());
}

TEST(IdBank, ChangedSeedDimOrPrecisionGivesDistinctBank) {
  const IdBank base(50, 1024, IdPrecision::k2Bit, 77);
  const IdBank seed(50, 1024, IdPrecision::k2Bit, 78);
  const IdBank dim(50, 2048, IdPrecision::k2Bit, 77);
  const IdBank precision(50, 1024, IdPrecision::k3Bit, 77);
  for (const IdBank* other : {&seed, &dim, &precision}) {
    EXPECT_NE(base.row(5).data(), other->row(5).data());
  }
  // Packed words depend on (seed, bin) only: another seed changes them,
  // another precision decodes the same words differently.
  EXPECT_FALSE(std::equal(base.row(5).begin(), base.row(5).end(),
                          seed.row(5).begin()));
  EXPECT_TRUE(std::equal(base.row(5).begin(), base.row(5).end(),
                         precision.row(5).begin()));
}

TEST(IdBank, EnsureRejectsOutOfRangeBin) {
  IdBank bank(10, 256, IdPrecision::k1Bit, 9);
  const std::vector<std::uint32_t> bins = {10};
  EXPECT_THROW(bank.ensure(bins), std::out_of_range);
}

TEST(IdBank, RowRejectsOutOfRangeBinNamingIt) {
  IdBank bank(10, 256, IdPrecision::k1Bit, 9);
  try {
    (void)bank.row(12);
    FAIL() << "row(12) of a 10-bin bank did not throw";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("12"), std::string::npos) << what;
    EXPECT_NE(what.find("10"), std::string::npos) << what;
  }
}

TEST(NibbleValues, DecodeGeneratorNibbles) {
  // Bit 0 is the sign, bits 1-2 the magnitude index (mod the count).
  const auto three = nibble_values(IdPrecision::k3Bit);
  EXPECT_EQ(three[0b0000], -1);
  EXPECT_EQ(three[0b0001], 1);
  EXPECT_EQ(three[0b0111], 7);
  EXPECT_EQ(three[0b1110], -7);  // bit 3 ignored
  const auto two = nibble_values(IdPrecision::k2Bit);
  EXPECT_EQ(two[0b0101], 1);  // index 2 % 2 = 0
  EXPECT_EQ(two[0b0011], 3);
  for (const std::int8_t v : nibble_values(IdPrecision::k1Bit)) {
    EXPECT_EQ(std::abs(v), 1);
  }
}

}  // namespace
}  // namespace oms::hd
