#include "hd/search.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace oms::hd {
namespace {

std::vector<util::BitVec> random_refs(std::size_t n, std::size_t dim,
                                      std::uint64_t seed) {
  std::vector<util::BitVec> refs(n);
  for (std::size_t i = 0; i < n; ++i) {
    refs[i] = util::BitVec(dim);
    refs[i].randomize(seed + i);
  }
  return refs;
}

TEST(Search, FindsExactDuplicate) {
  auto refs = random_refs(100, 1024, 10);
  const util::BitVec query = refs[37];
  const SearchHit hit = best_match(query, refs, 0, refs.size());
  EXPECT_EQ(hit.reference_index, 37U);
  EXPECT_EQ(hit.dot, 1024);
  EXPECT_EQ(hit.similarity, 1.0);
}

TEST(Search, FindsNearDuplicateUnderNoise) {
  auto refs = random_refs(200, 2048, 20);
  util::BitVec query = refs[150];
  for (std::size_t i = 0; i < 200; ++i) query.flip(i * 10);  // 200 flips
  const SearchHit hit = best_match(query, refs, 0, refs.size());
  EXPECT_EQ(hit.reference_index, 150U);
  EXPECT_EQ(hit.dot, 2048 - 2 * 200);
}

TEST(Search, RespectsCandidateRange) {
  auto refs = random_refs(100, 512, 30);
  const util::BitVec query = refs[10];
  // Search excluding index 10: must not return it.
  const SearchHit hit = best_match(query, refs, 11, refs.size());
  EXPECT_NE(hit.reference_index, 10U);
  EXPECT_LT(hit.similarity, 1.0);
}

TEST(Search, EmptyRangeReturnsInvalidHit) {
  auto refs = random_refs(10, 256, 40);
  const SearchHit hit = best_match(refs[0], refs, 5, 5);
  EXPECT_FALSE(hit.valid());
  EXPECT_EQ(hit.reference_index, SearchHit::kNoMatch);
  // A real match is valid.
  EXPECT_TRUE(best_match(refs[0], refs, 0, refs.size()).valid());
  // A default-constructed hit is invalid.
  EXPECT_FALSE(SearchHit{}.valid());
}

TEST(Search, TopKOrderedByScore) {
  auto refs = random_refs(300, 1024, 50);
  const util::BitVec query = refs[0];
  const auto hits = top_k_search(query, refs, 0, refs.size(), 10);
  ASSERT_EQ(hits.size(), 10U);
  EXPECT_EQ(hits[0].reference_index, 0U);
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].dot, hits[i].dot);
  }
}

TEST(Search, TopKMatchesBruteForce) {
  auto refs = random_refs(500, 512, 60);
  util::BitVec query(512);
  query.randomize(999);

  const auto hits = top_k_search(query, refs, 0, refs.size(), 5);
  ASSERT_EQ(hits.size(), 5U);

  // Brute force: compute all dots and sort.
  std::vector<std::pair<std::int64_t, std::size_t>> all;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    all.emplace_back(util::bipolar_dot(query, refs[i]), i);
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(hits[i].reference_index, all[i].second) << i;
    EXPECT_EQ(hits[i].dot, all[i].first) << i;
  }
}

TEST(Search, TiesBrokenByLowerIndex) {
  // Three identical references → top hit must be the lowest index in range.
  std::vector<util::BitVec> refs(3, util::BitVec(256));
  for (auto& r : refs) r.randomize(7);
  const SearchHit hit = best_match(refs[0], refs, 0, refs.size());
  EXPECT_EQ(hit.reference_index, 0U);
  const auto hits = top_k_search(refs[0], refs, 0, refs.size(), 3);
  EXPECT_EQ(hits[0].reference_index, 0U);
  EXPECT_EQ(hits[1].reference_index, 1U);
  EXPECT_EQ(hits[2].reference_index, 2U);
}

TEST(Search, KLargerThanRangeReturnsAll) {
  auto refs = random_refs(4, 256, 70);
  const auto hits = top_k_search(refs[0], refs, 0, refs.size(), 100);
  EXPECT_EQ(hits.size(), 4U);
}

TEST(Search, ZeroKReturnsNothing) {
  auto refs = random_refs(4, 256, 80);
  EXPECT_TRUE(top_k_search(refs[0], refs, 0, refs.size(), 0).empty());
}

TEST(Search, SimilarityConsistentWithDot) {
  auto refs = random_refs(50, 1024, 90);
  util::BitVec query(1024);
  query.randomize(1000);
  const auto hits = top_k_search(query, refs, 0, refs.size(), 3);
  for (const auto& h : hits) {
    const double expected_sim =
        (static_cast<double>(h.dot) / 1024.0 + 1.0) / 2.0;
    EXPECT_NEAR(h.similarity, expected_sim, 1e-12);
  }
}

TEST(Search, QueryOfAnotherDimensionIsRefused) {
  // The sweeps read the library's word count from every query: a shorter
  // query would be read past its end, a longer one scored on a prefix.
  // Both throw, naming the two dimensions, before any sweep.
  const auto refs = random_refs(40, 1024, 100);
  const RefView view = RefView::from_span(refs);
  for (const std::size_t dim : {960u, 1088u}) {
    util::BitVec query(dim);
    query.randomize(1100 + dim);
    const std::vector<BatchQuery> batch{{&refs[0], 0, refs.size(), 0},
                                        {&query, 0, refs.size(), 1}};
    try {
      (void)top_k_search(query, view, 0, refs.size(), 5);
      ADD_FAILURE() << "top_k_search accepted dim " << dim;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::to_string(dim)), std::string::npos) << what;
      EXPECT_NE(what.find("1024"), std::string::npos) << what;
    }
    EXPECT_THROW((void)top_k_search_batch(batch, view, 5),
                 std::invalid_argument)
        << "dim " << dim;
    // An empty candidate range still checks the query.
    EXPECT_THROW((void)top_k_search(query, view, 3, 3, 5),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace oms::hd
