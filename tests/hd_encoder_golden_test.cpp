// Golden encoding digests: fixed-seed spectra are encoded and every output
// word is folded into one FNV-1a hash per configuration. The expected values
// pin the exact hypervectors the ID-Level encoder (every kernel tier) and
// the IMC statistical noise path produce, so any drift — a kernel rewrite,
// a level/ID bank change, a different noise key — fails loudly here rather
// than as a silently different PSM list or a non-reproducible index.
//
// The same holds for the keyed RRAM-modelled search: a digest of the hits
// pins the noise keys, the rounding of noisy scores and the top-k order.
//
// If an encoding change is intended, the digests must be re-recorded
// deliberately, and every persisted library re-encoded.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "accel/imc_encoder.hpp"
#include "accel/imc_search.hpp"
#include "hd/encoder.hpp"
#include "hd/kernels.hpp"
#include "index/format.hpp"
#include "util/rng.hpp"

namespace oms {
namespace {

struct Spectra {
  std::vector<std::vector<std::uint32_t>> bins;
  std::vector<std::vector<float>> weights;
};

/// `count` spectra of 5..50 peaks with ascending bins; every eighth one
/// repeats a bin, which the encoder must accumulate twice.
Spectra make_spectra(std::uint64_t seed, std::size_t count,
                     std::uint32_t bin_limit) {
  util::Xoshiro256 rng(seed);
  Spectra s;
  s.bins.resize(count);
  s.weights.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t peaks = 5 + rng.below(46);
    const std::uint32_t stride = bin_limit / static_cast<std::uint32_t>(peaks);
    std::uint32_t bin = static_cast<std::uint32_t>(rng.below(stride));
    for (std::size_t p = 0; p < peaks; ++p) {
      s.bins[i].push_back(bin);
      s.weights[i].push_back(static_cast<float>(rng.uniform(0.02, 1.0)));
      bin += 1 + static_cast<std::uint32_t>(rng.below(stride - 1));
    }
    if (i % 8 == 7) s.bins[i].back() = s.bins[i].front();
  }
  return s;
}

std::uint64_t fold(std::uint64_t hash, const util::BitVec& hv) {
  const auto words = hv.words();
  return index::fnv1a64(words.data(), words.size_bytes(), hash);
}

hd::EncoderConfig config(std::uint32_t dim, std::uint32_t bins,
                         std::uint32_t levels, std::uint32_t chunks,
                         hd::IdPrecision precision, std::uint64_t seed) {
  hd::EncoderConfig cfg;
  cfg.dim = dim;
  cfg.bins = bins;
  cfg.levels = levels;
  cfg.chunks = chunks;
  cfg.id_precision = precision;
  cfg.seed = seed;
  return cfg;
}

/// Encodes `count` fixed spectra through every kernel tier this CPU runs
/// and expects the same digest from each.
void expect_encode_digest(const hd::EncoderConfig& cfg,
                          std::uint64_t spectra_seed, std::size_t count,
                          std::uint64_t want) {
  hd::Encoder enc(cfg);
  const Spectra s = make_spectra(spectra_seed, count, cfg.bins);
  for (const auto& b : s.bins) enc.id_bank().ensure(b);
  const hd::kernels::Tier saved = hd::kernels::active_tier();
  for (int t = 0; t <= static_cast<int>(hd::kernels::best_supported()); ++t) {
    const auto tier = static_cast<hd::kernels::Tier>(t);
    hd::kernels::set_active_tier(tier);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < count; ++i) {
      hash = fold(hash, enc.encode(s.bins[i], s.weights[i]));
    }
    EXPECT_EQ(hash, want) << hd::kernels::tier_name(tier);
  }
  hd::kernels::set_active_tier(saved);
}

TEST(EncoderGolden, PaperConfigEncodeDigest) {
  const hd::EncoderConfig cfg =
      config(8192, 27981, 32, 256, hd::IdPrecision::k3Bit, 0x0D0C5EEDULL);
  expect_encode_digest(cfg, 101, 300, 0x485a396c3258b3d8ULL);
}

TEST(EncoderGolden, UnchunkedOneBitEncodeDigest) {
  const hd::EncoderConfig cfg =
      config(2048, 5000, 16, 2048, hd::IdPrecision::k1Bit, 42);
  expect_encode_digest(cfg, 202, 200, 0x92ec1d42d916a1c0ULL);
}

TEST(EncoderGolden, TwoBitOddBlockCountEncodeDigest) {
  const hd::EncoderConfig cfg =
      config(192, 3000, 8, 6, hd::IdPrecision::k2Bit, 7);
  expect_encode_digest(cfg, 303, 200, 0x1c1abbf86d50e30dULL);
}

/// The IMC path adds keyed noise to the exact accumulator sums
/// (Encoder::accumulate), so this also pins the kernel's int32 output.
TEST(EncoderGolden, ImcKeyedEncodeDigest) {
  const hd::EncoderConfig cfg =
      config(1024, 4000, 16, 64, hd::IdPrecision::k3Bit, 77);
  hd::Encoder enc(cfg);
  accel::ImcEncoderConfig icfg;
  icfg.fidelity = accel::Fidelity::kStatistical;
  icfg.calibration_samples = 512;
  accel::ImcEncoder imc(enc, icfg);

  const Spectra s = make_spectra(404, 200, cfg.bins);
  for (const auto& b : s.bins) enc.id_bank().ensure(b);
  imc.precalibrate(s.bins);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < s.bins.size(); ++i) {
    hash = fold(hash, imc.encode_keyed(s.bins[i], s.weights[i], 1000 + i));
  }
  EXPECT_EQ(hash, 0xcf3893381e0bc5d2ULL);
}

std::uint64_t fold(std::uint64_t hash,
                   const std::vector<hd::SearchHit>& hits) {
  for (const hd::SearchHit& h : hits) {
    hash = index::fnv1a64(&h.reference_index, sizeof h.reference_index, hash);
    hash = index::fnv1a64(&h.dot, sizeof h.dot, hash);
    hash = index::fnv1a64(&h.similarity, sizeof h.similarity, hash);
  }
  return index::fnv1a64("|", 1, hash);
}

/// rram-statistical search over a contiguous 2k-reference block: 200
/// queries, most of them noisy copies of a reference inside their window,
/// searched in blocks of 16 (search_many) and one by one (top_k_keyed).
TEST(EncoderGolden, ImcKeyedSearchDigest) {
  constexpr std::size_t kDim = 2048;
  constexpr std::size_t kRefs = 2000;
  constexpr std::size_t kWords = kDim / 64;
  util::Xoshiro256 rng(505);
  std::vector<std::uint64_t> block(kRefs * kWords);
  for (auto& w : block) w = rng.next();
  std::vector<util::BitVec> refs;
  for (std::size_t i = 0; i < kRefs; ++i) {
    refs.push_back(util::BitVec::view(block.data() + i * kWords, kDim));
  }

  std::vector<util::BitVec> hvs;
  std::vector<hd::BatchQuery> queries;
  for (std::size_t q = 0; q < 200; ++q) {
    const std::size_t target = rng.below(kRefs);
    util::BitVec hv(kDim);
    if (q % 5 == 4) {
      hv.randomize(rng.next());
    } else {
      hv = refs[target];
      for (std::size_t f = 0; f < kDim / 6; ++f) hv.flip(rng.below(kDim));
    }
    hvs.push_back(std::move(hv));
    const std::size_t half = 20 + rng.below(600);
    queries.push_back({nullptr, target > half ? target - half : 0,
                       target + half, 7000 + q});
  }
  for (std::size_t q = 0; q < queries.size(); ++q) queries[q].hv = &hvs[q];

  accel::ImcSearchConfig cfg;
  cfg.calibration_samples = 512;
  const accel::ImcSearchEngine engine(refs, cfg);
  std::uint64_t batched = 0xcbf29ce484222325ULL;
  for (std::size_t b = 0; b < queries.size(); b += 16) {
    const std::size_t n = std::min<std::size_t>(16, queries.size() - b);
    const auto block_hits =
        engine.search_many(std::span(queries).subspan(b, n), 5);
    for (const auto& hits : block_hits) batched = fold(batched, hits);
  }
  std::uint64_t single = 0xcbf29ce484222325ULL;
  for (const hd::BatchQuery& q : queries) {
    single = fold(single, engine.top_k_keyed(*q.hv, q.first, q.last, 5,
                                             q.stream));
  }
  EXPECT_EQ(batched, single);
  EXPECT_EQ(batched, 0x9aea9827438ce1c3ULL);
}

}  // namespace
}  // namespace oms
