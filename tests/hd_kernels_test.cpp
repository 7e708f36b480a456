// Bit-identity suite for the SIMD popcount kernels (hd/kernels.hpp): every
// dispatch tier must produce exactly the scalar reference counts — across
// dimensions with non-multiple-of-64 tails, over buffers with only the
// 8-byte alignment the in-memory MappedFile fallback guarantees, and
// through the full search stack (same hits, same tie-breaks). When the
// build disables SIMD (OMSHD_DISABLE_SIMD — the CI portable-fallback leg),
// the suite additionally pins best_supported() to the scalar tier, so the
// fallback path is genuinely compiled and run.
#include "hd/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "hd/search.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace oms::hd {
namespace {

using kernels::Tier;

std::vector<Tier> runnable_tiers() {
  std::vector<Tier> tiers{Tier::kScalar};
  if (kernels::best_supported() >= Tier::kAvx2) tiers.push_back(Tier::kAvx2);
  if (kernels::best_supported() >= Tier::kAvx512) {
    tiers.push_back(Tier::kAvx512);
  }
  return tiers;
}

/// Restores the ambient dispatch tier on scope exit.
class TierGuard {
 public:
  TierGuard() : saved_(kernels::active_tier()) {}
  ~TierGuard() { kernels::set_active_tier(saved_); }

 private:
  Tier saved_;
};

std::vector<std::uint64_t> random_words(std::size_t n, std::uint64_t seed) {
  util::SplitMix64 sm(seed);
  std::vector<std::uint64_t> words(n);
  for (auto& w : words) w = sm.next();
  return words;
}

/// Word count for `bits`, matching BitVec's layout.
std::size_t wc(std::size_t bits) { return (bits + 63) / 64; }

TEST(Kernels, TierOrderingAndNames) {
  EXPECT_EQ(kernels::tier_name(Tier::kScalar), "scalar");
  EXPECT_EQ(kernels::tier_name(Tier::kAvx2), "avx2");
  EXPECT_EQ(kernels::tier_name(Tier::kAvx512), "avx512");
  EXPECT_EQ(kernels::tier_from_name("avx512"), Tier::kAvx512);
  EXPECT_EQ(kernels::tier_from_name("avx2"), Tier::kAvx2);
  EXPECT_EQ(kernels::tier_from_name("scalar"), Tier::kScalar);
  EXPECT_EQ(kernels::tier_from_name("nonsense"), Tier::kScalar);
}

#ifdef OMSHD_DISABLE_SIMD
TEST(Kernels, DisabledSimdForcesScalarOnly) {
  EXPECT_EQ(kernels::best_supported(), Tier::kScalar);
  EXPECT_EQ(kernels::active_tier(), Tier::kScalar);
  // Requesting a larger tier clamps back to scalar.
  EXPECT_EQ(kernels::set_active_tier(Tier::kAvx512), Tier::kScalar);
}
#endif

TEST(Kernels, SetActiveTierClampsToSupport) {
  TierGuard guard;
  const Tier best = kernels::best_supported();
  EXPECT_EQ(kernels::set_active_tier(Tier::kAvx512), best >= Tier::kAvx512
                                                         ? Tier::kAvx512
                                                         : best);
  EXPECT_EQ(kernels::set_active_tier(Tier::kScalar), Tier::kScalar);
  EXPECT_EQ(kernels::active_tier(), Tier::kScalar);
}

TEST(Kernels, PairIdentityAcrossTiersAndDims) {
  // Dims chosen to hit every tail class: sub-word, exact word multiples,
  // one-over, AVX2 (4-word) and AVX-512 (8-word) vector remainders, and
  // the paper-scale 8k/32k points.
  const std::size_t dims[] = {1,    63,   64,   65,   127,  128,  191,
                              256,  320,  448,  512,  520,  1000, 1024,
                              4096, 8191, 8192, 8256, 32768, 33000};
  for (const std::size_t dim : dims) {
    const std::size_t n = wc(dim);
    const auto a = random_words(n, 0x1111 + dim);
    const auto b = random_words(n, 0x2222 + dim);
    const std::size_t expected = util::xor_popcount(a.data(), b.data(), n);
    for (const Tier tier : runnable_tiers()) {
      EXPECT_EQ(kernels::xor_popcount_tier(tier, a.data(), b.data(), n),
                expected)
          << "dim=" << dim << " tier=" << kernels::tier_name(tier);
    }
  }
}

TEST(Kernels, PairIdentityAgainstBitLevelBruteForce) {
  for (const std::size_t dim : {1u, 64u, 65u, 250u, 1024u}) {
    util::BitVec a(dim);
    util::BitVec b(dim);
    a.randomize(991 + dim);
    b.randomize(992 + dim);
    std::size_t brute = 0;
    for (std::size_t i = 0; i < dim; ++i) brute += a.get(i) != b.get(i);
    for (const Tier tier : runnable_tiers()) {
      EXPECT_EQ(kernels::xor_popcount_tier(tier, a.words().data(),
                                           b.words().data(), a.word_count()),
                brute)
          << "dim=" << dim << " tier=" << kernels::tier_name(tier);
    }
  }
}

TEST(Kernels, UnalignedBuffersMatchScalar) {
  // The in-memory MappedFile fallback only guarantees 8-byte alignment, so
  // the SIMD loads must be unaligned-safe. Offset both operands by every
  // word phase of a 64-byte line (0..7 words) to break 16/32/64-byte
  // alignment in all combinations.
  const std::size_t n = wc(8192);
  const auto base_a = random_words(n + 8, 0xAAA);
  const auto base_b = random_words(n + 8, 0xBBB);
  for (std::size_t off_a = 0; off_a < 8; ++off_a) {
    for (std::size_t off_b : {std::size_t{0}, std::size_t{3}, std::size_t{7}}) {
      const std::uint64_t* a = base_a.data() + off_a;
      const std::uint64_t* b = base_b.data() + off_b;
      const std::size_t expected = util::xor_popcount(a, b, n);
      for (const Tier tier : runnable_tiers()) {
        EXPECT_EQ(kernels::xor_popcount_tier(tier, a, b, n), expected)
            << "off_a=" << off_a << " off_b=" << off_b
            << " tier=" << kernels::tier_name(tier);
      }
    }
  }
}

TEST(Kernels, HammingSweepMatchesPairKernelIncludingPaddedStride) {
  const std::size_t dim = 1000;  // 16 words, non-multiple-of-64 tail
  const std::size_t n = wc(dim);
  for (const std::size_t stride : {n, n + 1, n + 5}) {
    const std::size_t count = 37;
    auto block = random_words(stride * count, 0xC0FFEE + stride);
    const auto query = random_words(n, 0xD0D0);
    const RefExtent ext{block.data(), stride, count, 0};

    std::vector<std::uint32_t> expected(count);
    for (std::size_t i = 0; i < count; ++i) {
      expected[i] = static_cast<std::uint32_t>(
          util::xor_popcount(query.data(), block.data() + i * stride, n));
    }
    const std::uint64_t* q = query.data();
    for (const Tier tier : runnable_tiers()) {
      std::vector<std::uint32_t> out(count, 0xFFFFFFFF);
      kernels::hamming_sweep_tier(tier, {&q, 1}, ext, n, 0, count, out.data(),
                                  count);
      EXPECT_EQ(out, expected) << "stride=" << stride
                               << " tier=" << kernels::tier_name(tier);
      // Sub-range sweep writes only [first, last).
      std::vector<std::uint32_t> part(10, 0);
      kernels::hamming_sweep_tier(tier, {&q, 1}, ext, n, 5, 15, part.data(),
                                  10);
      for (std::size_t j = 0; j < 10; ++j) {
        EXPECT_EQ(part[j], expected[5 + j]);
      }
    }
  }
}

TEST(Kernels, GroupSweepMatchesScalarSingleQuery) {
  // Every group size on every tier against the scalar single-query pair
  // kernel: word counts that are and are not multiples of the AVX2 (4) and
  // AVX-512 (8) vector widths, padded strides, query and row pointers off
  // 64-byte alignment, 1-3 row extents next to one spanning several tiles,
  // sub-ranges, and an out_stride wider than the rows swept (the padding
  // between output rows must stay untouched).
  constexpr std::uint32_t kSentinel = 0xFFFFFFFF;
  for (const std::size_t dim : {64u, 192u, 8192u, 8256u}) {
    const std::size_t n = wc(dim);
    const auto qbuf = random_words(1 + kernels::kSweepGroup * (n + 1),
                                   0x9A0 + dim);
    std::vector<const std::uint64_t*> queries;
    for (std::size_t g = 0; g < kernels::kSweepGroup; ++g) {
      queries.push_back(qbuf.data() + 1 + g * (n + 1));
    }
    for (const std::size_t stride : {n, n + 3}) {
      for (const std::size_t count : {1u, 2u, 3u, 37u}) {
        const auto block = random_words(1 + stride * count, 0xB1 + stride);
        const RefExtent ext{block.data() + 1, stride, count, 0};
        for (const auto [first, last] :
             {std::pair<std::size_t, std::size_t>{0, count},
              std::pair<std::size_t, std::size_t>{count / 2, count}}) {
          const std::size_t rows = last - first;
          const std::size_t out_stride = rows + 5;
          for (std::size_t group = 1; group <= kernels::kSweepGroup;
               ++group) {
            for (const Tier tier : runnable_tiers()) {
              std::vector<std::uint32_t> out(group * out_stride, kSentinel);
              kernels::hamming_sweep_tier(tier, {queries.data(), group}, ext,
                                          n, first, last, out.data(),
                                          out_stride);
              for (std::size_t g = 0; g < group; ++g) {
                for (std::size_t j = 0; j < out_stride; ++j) {
                  const std::uint32_t want =
                      j < rows ? static_cast<std::uint32_t>(util::xor_popcount(
                                     queries[g],
                                     ext.words + (first + j) * stride, n))
                               : kSentinel;
                  ASSERT_EQ(out[g * out_stride + j], want)
                      << "dim=" << dim << " stride=" << stride
                      << " count=" << count << " first=" << first
                      << " group=" << group << " g=" << g << " j=" << j
                      << " tier=" << kernels::tier_name(tier);
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(Kernels, BatchGroupsWithTiesAtRejectThresholdMatchSpanOracle) {
  TierGuard guard;
  // 192-bit rows (3 words) drawn from 9 patterns, so equal distances are
  // everywhere and many candidates land exactly on the k-th best dot,
  // where insert_top_k must keep the lower index. Eleven staggered ranges
  // give segments covered by 1..11 queries — most not a multiple of the
  // sweep group.
  const std::size_t dim = 192;
  const std::size_t n = wc(dim);
  const std::size_t count = 300;
  const auto patterns = random_words(9 * n, 0x7153);
  std::vector<std::uint64_t> block(n * count);
  util::SplitMix64 pick(0x9147);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t p = pick.next() % 9;
    std::copy_n(patterns.begin() + static_cast<std::ptrdiff_t>(p * n), n,
                block.begin() + static_cast<std::ptrdiff_t>(i * n));
  }
  std::vector<util::BitVec> refs;
  for (std::size_t i = 0; i < count; ++i) {
    refs.push_back(util::BitVec::view(block.data() + i * n, dim));
  }
  const RefView view = RefView::from_span(refs);
  ASSERT_TRUE(view.contiguous());

  std::vector<util::BitVec> hvs;
  for (std::size_t q = 0; q < 11; ++q) {
    // Half the queries copy a pattern, so their k-th best ties broadly.
    hvs.push_back(q % 2 == 0 ? util::BitVec::view(
                                   patterns.data() + (q % 9) * n, dim)
                             : util::BitVec(dim));
    if (q % 2 == 1) hvs.back().randomize(0x51 + q);
  }
  std::vector<BatchQuery> batch;
  for (std::size_t q = 0; q < hvs.size(); ++q) {
    batch.push_back(BatchQuery{&hvs[q], q * 11, count - q * 7, q});
  }

  for (const std::size_t k : {1u, 3u, 8u}) {
    std::vector<std::vector<SearchHit>> want;
    for (const BatchQuery& q : batch) {
      want.push_back(top_k_search(*q.hv, refs, q.first, q.last, k));
    }
    for (const Tier tier : runnable_tiers()) {
      kernels::set_active_tier(tier);
      EXPECT_EQ(top_k_search_batch(batch, view, k), want)
          << "k=" << k << " tier=" << kernels::tier_name(tier);
      for (std::size_t q = 0; q < batch.size(); ++q) {
        EXPECT_EQ(top_k_search(*batch[q].hv, view, batch[q].first,
                               batch[q].last, k),
                  want[q])
            << "k=" << k << " q=" << q << " tier=" << kernels::tier_name(tier);
      }
    }
  }
}

TEST(Kernels, FromSpanDetectsContiguousBlock) {
  const std::size_t dim = 512;
  const std::size_t n = wc(dim);
  const std::size_t count = 20;
  const auto block = random_words(n * count, 0xB10C);

  std::vector<util::BitVec> views;
  for (std::size_t i = 0; i < count; ++i) {
    views.push_back(util::BitVec::view(block.data() + i * n, dim));
  }
  const RefView v = RefView::from_span(views);
  ASSERT_TRUE(v.contiguous());
  EXPECT_EQ(v.count(), count);
  EXPECT_EQ(v.dim(), dim);
  const RefExtent& e = v.extents().front();
  EXPECT_EQ(e.words, block.data());
  EXPECT_EQ(e.stride, n);
  EXPECT_EQ(e.rows, count);
  EXPECT_EQ(e.base, 0u);
}

TEST(Kernels, FromSpanDetectsPaddedStride) {
  const std::size_t dim = 500;
  const std::size_t n = wc(dim);
  const std::size_t stride = n + 3;
  const auto block = random_words(stride * 8, 0xAD0B);
  std::vector<util::BitVec> views;
  for (std::size_t i = 0; i < 8; ++i) {
    views.push_back(util::BitVec::view(block.data() + i * stride, dim));
  }
  const RefView v = RefView::from_span(views);
  ASSERT_TRUE(v.contiguous());
  EXPECT_EQ(v.extents().front().stride, stride);
}

TEST(Kernels, FromSpanRejectsIrregularLayouts) {
  const std::size_t dim = 256;
  const std::size_t n = wc(dim);
  const auto block = random_words(n * 10, 0x1DE9);

  // Irregular offsets: row 2 breaks the stride implied by rows 0→1.
  std::vector<util::BitVec> irregular{
      util::BitVec::view(block.data(), dim),
      util::BitVec::view(block.data() + n, dim),
      util::BitVec::view(block.data() + 2 * n + 1, dim),
  };
  EXPECT_GT(RefView::from_span(irregular).extent_count(), 1u);

  // Mixed dimensions have no view at all.
  std::vector<util::BitVec> mixed{
      util::BitVec::view(block.data(), dim),
      util::BitVec::view(block.data() + n, 128),
  };
  EXPECT_FALSE(RefView::from_span(mixed).valid());

  // Descending layout is not one run (stride must advance).
  std::vector<util::BitVec> descending{
      util::BitVec::view(block.data() + n, dim),
      util::BitVec::view(block.data(), dim),
  };
  EXPECT_GT(RefView::from_span(descending).extent_count(), 1u);

  // Empty span → invalid.
  EXPECT_FALSE(RefView::from_span({}).valid());

  // Single-row span is trivially contiguous.
  std::vector<util::BitVec> single{util::BitVec::view(block.data(), dim)};
  EXPECT_TRUE(RefView::from_span(single).contiguous());
}

TEST(Kernels, SearchBitIdenticalAcrossAllTiers) {
  TierGuard guard;
  const std::size_t dim = 1984;  // 31 words: odd AVX2/AVX-512 remainders
  const std::size_t n = wc(dim);
  const std::size_t count = 400;
  auto block = random_words(n * count, 0x5EED);
  std::vector<util::BitVec> refs;
  for (std::size_t i = 0; i < count; ++i) {
    refs.push_back(util::BitVec::view(block.data() + i * n, dim));
  }
  // Duplicate some rows so tie-breaks matter.
  for (std::size_t i = 50; i < count; i += 50) {
    std::copy(block.begin(), block.begin() + static_cast<std::ptrdiff_t>(n),
              block.begin() + static_cast<std::ptrdiff_t>(i * n));
  }
  util::BitVec query(dim);
  query.randomize(0xFACE);

  std::vector<BatchQuery> batch;
  for (std::size_t i = 0; i < 7; ++i) {
    batch.push_back(BatchQuery{&query, i * 13, count - i * 17, i});
  }

  const RefView view = RefView::from_span(refs);
  ASSERT_TRUE(view.contiguous());

  kernels::set_active_tier(Tier::kScalar);
  const auto single_ref = top_k_search(query, refs, 0, count, 8);
  const auto batch_ref = top_k_search_batch(batch, view, 8);
  // The batch equals the per-query span oracle, slot by slot.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch_ref[i], top_k_search(query, refs, batch[i].first,
                                         batch[i].last, 8))
        << "slot " << i;
  }

  for (const Tier tier : runnable_tiers()) {
    kernels::set_active_tier(tier);
    EXPECT_EQ(top_k_search(query, refs, 0, count, 8), single_ref)
        << kernels::tier_name(tier);
    EXPECT_EQ(top_k_search_batch(batch, view, 8), batch_ref)
        << kernels::tier_name(tier);
    // The view overload agrees with the span oracle, tier by tier.
    EXPECT_EQ(top_k_search(query, view, 0, count, 8), single_ref)
        << kernels::tier_name(tier);
  }
}

TEST(Kernels, NonContiguousSpanStillMatchesScalarReference) {
  TierGuard guard;
  // Owned per-BitVec storage: the span oracle walks it directly, and the
  // piecewise view degenerates to (mostly) single-row extents.
  std::vector<util::BitVec> refs(120);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    refs[i] = util::BitVec(777);
    refs[i].randomize(31 + i);
  }
  util::BitVec query(777);
  query.randomize(12345);

  const RefView view = RefView::from_span(refs);
  ASSERT_TRUE(view.valid());

  kernels::set_active_tier(Tier::kScalar);
  const auto expected = top_k_search(query, refs, 0, refs.size(), 5);
  for (const Tier tier : runnable_tiers()) {
    kernels::set_active_tier(tier);
    EXPECT_EQ(top_k_search(query, refs, 0, refs.size(), 5), expected)
        << kernels::tier_name(tier);
    EXPECT_EQ(top_k_search(query, view, 0, refs.size(), 5), expected)
        << kernels::tier_name(tier);
  }
}

}  // namespace
}  // namespace oms::hd
