#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "ms/mgf.hpp"
#include "ms/mzml.hpp"

namespace oms::ms {
namespace {

std::vector<Spectrum> sample_spectra() {
  std::vector<Spectrum> out;
  for (std::uint32_t i = 0; i < 3; ++i) {
    Spectrum s;
    s.id = 100 + i;
    s.title = "scan_" + std::to_string(i);
    s.peptide = i == 0 ? "PEPTIDEK" : "";
    s.precursor_mz = 500.25 + i;
    s.precursor_charge = 2 + static_cast<int>(i % 2);
    for (int p = 0; p < 10; ++p) {
      s.peaks.push_back({150.0 + 37.5 * p + i, 10.0F * (p + 1)});
    }
    s.sort_peaks();
    out.push_back(std::move(s));
  }
  return out;
}

TEST(Mgf, RoundTripPreservesSpectra) {
  const auto original = sample_spectra();
  std::stringstream ss;
  write_mgf(ss, original);
  const auto parsed = read_mgf(ss);
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].id, original[i].id);
    EXPECT_EQ(parsed[i].title, original[i].title);
    EXPECT_EQ(parsed[i].peptide, original[i].peptide);
    EXPECT_EQ(parsed[i].precursor_charge, original[i].precursor_charge);
    EXPECT_NEAR(parsed[i].precursor_mz, original[i].precursor_mz, 1e-4);
    ASSERT_EQ(parsed[i].peaks.size(), original[i].peaks.size());
    for (std::size_t p = 0; p < parsed[i].peaks.size(); ++p) {
      EXPECT_NEAR(parsed[i].peaks[p].mz, original[i].peaks[p].mz, 1e-4);
      EXPECT_NEAR(parsed[i].peaks[p].intensity,
                  original[i].peaks[p].intensity, 1e-2);
    }
  }
}

TEST(Mgf, SkipsEmptyBlocksAndComments) {
  std::stringstream ss(
      "# comment\n"
      "BEGIN IONS\n"
      "TITLE=empty\n"
      "PEPMASS=400\n"
      "END IONS\n"
      "BEGIN IONS\n"
      "PEPMASS=500.5\n"
      "CHARGE=2+\n"
      "100.5 10\n"
      "200.5 20\n"
      "END IONS\n");
  const auto parsed = read_mgf(ss);
  ASSERT_EQ(parsed.size(), 1U);
  EXPECT_EQ(parsed[0].peaks.size(), 2U);
  EXPECT_EQ(parsed[0].precursor_charge, 2);
}

TEST(Mgf, ParsesChargeVariants) {
  for (const char* variant_cstr : {"2+", "+2", "2"}) {
    const std::string variant = variant_cstr;
    std::stringstream ss("BEGIN IONS\nPEPMASS=500\nCHARGE=" + variant +
                         "\n100 1\n200 2\nEND IONS\n");
    const auto parsed = read_mgf(ss);
    ASSERT_EQ(parsed.size(), 1U) << variant;
    EXPECT_EQ(parsed[0].precursor_charge, 2) << variant;
  }
}

TEST(Mgf, PepmassWithIntensityToleratesSecondToken) {
  std::stringstream ss(
      "BEGIN IONS\nPEPMASS=512.75 12345.6\n100 1\n200 2\nEND IONS\n");
  const auto parsed = read_mgf(ss);
  ASSERT_EQ(parsed.size(), 1U);
  EXPECT_NEAR(parsed[0].precursor_mz, 512.75, 1e-9);
}

TEST(Mgf, FileIoErrors) {
  EXPECT_THROW(read_mgf_file("/nonexistent/path.mgf"), std::runtime_error);
}

TEST(Base64, RoundTripAllLengths) {
  for (std::size_t len = 0; len < 16; ++len) {
    std::vector<std::uint8_t> data;
    for (std::size_t i = 0; i < len; ++i) {
      data.push_back(static_cast<std::uint8_t>(i * 37 + 5));
    }
    const std::string text = detail::base64_encode(data);
    EXPECT_EQ(detail::base64_decode(text), data) << "len=" << len;
  }
}

TEST(Base64, KnownVector) {
  const std::vector<std::uint8_t> data = {'M', 'a', 'n'};
  EXPECT_EQ(detail::base64_encode(data), "TWFu");
}

TEST(Mzml, RoundTripPreservesSpectra) {
  const auto original = sample_spectra();
  std::stringstream ss;
  write_mzml(ss, original);
  const auto parsed = read_mzml(ss);
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].id, original[i].id);
    EXPECT_EQ(parsed[i].peptide, original[i].peptide);
    EXPECT_EQ(parsed[i].precursor_charge, original[i].precursor_charge);
    EXPECT_NEAR(parsed[i].precursor_mz, original[i].precursor_mz, 1e-9);
    ASSERT_EQ(parsed[i].peaks.size(), original[i].peaks.size());
    for (std::size_t p = 0; p < parsed[i].peaks.size(); ++p) {
      EXPECT_DOUBLE_EQ(parsed[i].peaks[p].mz, original[i].peaks[p].mz);
    }
  }
}

TEST(Mzml, Reads32BitFloatArrays) {
  // Hand-built spectrum with 32-bit float arrays (common in real mzML).
  const std::vector<float> mz = {100.5F, 200.25F, 300.125F};
  const std::vector<float> intensity = {10.0F, 20.0F, 30.0F};
  const auto encode_f32 = [](const std::vector<float>& v) {
    std::vector<std::uint8_t> bytes(v.size() * sizeof(float));
    std::memcpy(bytes.data(), v.data(), bytes.size());
    return detail::base64_encode(bytes);
  };
  std::stringstream ss;
  ss << "<mzML><run><spectrumList>"
     << "<spectrum index=\"3\" id=\"scan=3\" defaultArrayLength=\"3\">"
     << "<cvParam name=\"selected ion m/z\" value=\"450.5\"/>"
     << "<cvParam name=\"charge state\" value=\"2\"/>"
     << "<binaryDataArrayList count=\"2\">"
     << "<binaryDataArray><cvParam name=\"32-bit float\"/>"
     << "<cvParam name=\"m/z array\"/>"
     << "<binary>" << encode_f32(mz) << "</binary></binaryDataArray>"
     << "<binaryDataArray><cvParam name=\"32-bit float\"/>"
     << "<cvParam name=\"intensity array\"/>"
     << "<binary>" << encode_f32(intensity) << "</binary></binaryDataArray>"
     << "</binaryDataArrayList></spectrum></spectrumList></run></mzML>";
  const auto parsed = read_mzml(ss);
  ASSERT_EQ(parsed.size(), 1U);
  ASSERT_EQ(parsed[0].peaks.size(), 3U);
  EXPECT_NEAR(parsed[0].peaks[0].mz, 100.5, 1e-4);
  EXPECT_NEAR(parsed[0].peaks[2].mz, 300.125, 1e-4);
  EXPECT_NEAR(parsed[0].peaks[1].intensity, 20.0F, 1e-3F);
  EXPECT_EQ(parsed[0].precursor_charge, 2);
}

TEST(Mzml, ArraysIdentifiedByNameNotOrder) {
  // Intensity array listed before m/z: name-based detection must cope.
  const std::vector<double> mz = {111.0, 222.0};
  const std::vector<double> intensity = {5.0, 6.0};
  const auto encode_f64 = [](const std::vector<double>& v) {
    std::vector<std::uint8_t> bytes(v.size() * sizeof(double));
    std::memcpy(bytes.data(), v.data(), bytes.size());
    return detail::base64_encode(bytes);
  };
  std::stringstream ss;
  ss << "<mzML><spectrum index=\"1\" id=\"s\" defaultArrayLength=\"2\">"
     << "<cvParam name=\"selected ion m/z\" value=\"300\"/>"
     << "<binaryDataArray><cvParam name=\"intensity array\"/>"
     << "<binary>" << encode_f64(intensity) << "</binary></binaryDataArray>"
     << "<binaryDataArray><cvParam name=\"m/z array\"/>"
     << "<binary>" << encode_f64(mz) << "</binary></binaryDataArray>"
     << "</spectrum></mzML>";
  const auto parsed = read_mzml(ss);
  ASSERT_EQ(parsed.size(), 1U);
  ASSERT_EQ(parsed[0].peaks.size(), 2U);
  EXPECT_DOUBLE_EQ(parsed[0].peaks[0].mz, 111.0);
  EXPECT_NEAR(parsed[0].peaks[0].intensity, 5.0F, 1e-6F);
}

TEST(Mzml, IgnoresGarbage) {
  std::stringstream ss("<not-mzml>hello</not-mzml>");
  EXPECT_TRUE(read_mzml(ss).empty());
}

TEST(Mzml, FileIoErrors) {
  EXPECT_THROW(read_mzml_file("/nonexistent/path.mzML"), std::runtime_error);
}

}  // namespace
}  // namespace oms::ms
