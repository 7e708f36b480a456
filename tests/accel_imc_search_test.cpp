#include "accel/imc_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace oms::accel {
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

ImcSearchConfig config_with(Fidelity f) {
  ImcSearchConfig cfg;
  cfg.fidelity = f;
  cfg.calibration_samples = 512;
  return cfg;
}

TEST(ImcSearch, IdealFidelityIsExact) {
  const auto refs = random_refs(64, 1024, 1);
  ImcSearchEngine engine(refs, config_with(Fidelity::kIdeal));
  util::BitVec query(1024);
  query.randomize(500);
  for (std::size_t i = 0; i < refs.size(); i += 7) {
    EXPECT_DOUBLE_EQ(engine.dot(query, i),
                     static_cast<double>(util::bipolar_dot(query, refs[i])));
  }
}

TEST(ImcSearch, StatisticalNoiseIsBounded) {
  const auto refs = random_refs(32, 2048, 2);
  ImcSearchEngine engine(refs, config_with(Fidelity::kStatistical));
  ASSERT_GT(engine.phase_sigma(), 0.0);
  util::BitVec query(2048);
  query.randomize(600);
  const double expected_sigma =
      engine.phase_sigma() * std::sqrt(2048.0 / 64.0);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const double exact =
        static_cast<double>(util::bipolar_dot(query, refs[i]));
    const double noisy = engine.dot(query, i);
    EXPECT_LT(std::abs(noisy - exact), 6.0 * expected_sigma) << i;
  }
}

TEST(ImcSearch, StatisticalFindsPlantedMatch) {
  auto refs = random_refs(128, 2048, 3);
  util::BitVec query = refs[77];
  for (int i = 0; i < 100; ++i) query.flip(i * 17);
  ImcSearchEngine engine(refs, config_with(Fidelity::kStatistical));
  const auto hits = engine.top_k(query, 0, refs.size(), 1);
  ASSERT_EQ(hits.size(), 1U);
  EXPECT_EQ(hits[0].reference_index, 77U);
}

TEST(ImcSearch, KeyedDotIsDeterministicAndOrderFree) {
  const auto refs = random_refs(16, 1024, 4);
  ImcSearchEngine engine(refs, config_with(Fidelity::kStatistical));
  util::BitVec query(1024);
  query.randomize(700);
  const double a = engine.dot_keyed(query, 5, 42);
  const double b = engine.dot_keyed(query, 5, 42);
  EXPECT_DOUBLE_EQ(a, b);
  // Different stream → different noise (almost surely).
  EXPECT_NE(engine.dot_keyed(query, 5, 43), a);
  // Evaluating other pairs in between must not change the result.
  (void)engine.dot_keyed(query, 1, 7);
  EXPECT_DOUBLE_EQ(engine.dot_keyed(query, 5, 42), a);
}

TEST(ImcSearch, KeyedTopKMatchesPlantedMatch) {
  auto refs = random_refs(64, 2048, 5);
  util::BitVec query = refs[30];
  for (int i = 0; i < 60; ++i) query.flip(i * 31);
  ImcSearchEngine engine(refs, config_with(Fidelity::kStatistical));
  const auto hits = engine.top_k_keyed(query, 0, refs.size(), 3, 11);
  ASSERT_GE(hits.size(), 1U);
  EXPECT_EQ(hits[0].reference_index, 30U);
}

TEST(ImcSearch, CircuitFidelitySmallScale) {
  // Small dimension so circuit programming stays fast.
  ImcSearchConfig cfg = config_with(Fidelity::kCircuit);
  cfg.array.rows = 128;  // 64 pairs
  cfg.array.cols = 16;
  cfg.activated_pairs = 32;
  const auto refs = random_refs(8, 256, 6);
  ImcSearchEngine engine(refs, cfg);
  util::BitVec query(256);
  query.randomize(800);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const double exact =
        static_cast<double>(util::bipolar_dot(query, refs[i]));
    const double out = engine.dot(query, i);
    // Binary weights at cell extremes: analog error stays moderate.
    EXPECT_LT(std::abs(out - exact), 64.0) << i;
  }
  EXPECT_GT(engine.phases_executed(), 0U);
}

TEST(ImcSearch, CircuitModeRejectsKeyedCalls) {
  ImcSearchConfig cfg = config_with(Fidelity::kCircuit);
  cfg.array.rows = 128;
  cfg.array.cols = 8;
  cfg.activated_pairs = 64;
  const auto refs = random_refs(4, 128, 7);
  ImcSearchEngine engine(refs, cfg);
  util::BitVec query(128);
  query.randomize(900);
  EXPECT_THROW((void)engine.dot_keyed(query, 0, 1), std::logic_error);
}

TEST(ImcSearch, RejectsMixedDimensions) {
  std::vector<util::BitVec> refs;
  refs.emplace_back(128);
  refs.emplace_back(256);
  EXPECT_THROW(ImcSearchEngine(refs, config_with(Fidelity::kIdeal)),
               std::invalid_argument);
}

TEST(ImcSearch, RejectsQueryOfAnotherDimension) {
  // search_many reads the library's word count from every query: a
  // shorter query would be read past its end, a longer one scored on a
  // prefix. Both throw, naming the two dimensions, on every keyed path.
  const auto refs = random_refs(24, 1024, 10);
  for (const Fidelity f : {Fidelity::kIdeal, Fidelity::kStatistical}) {
    const ImcSearchEngine engine(refs, config_with(f));
    for (const std::size_t dim : {960u, 1088u}) {
      util::BitVec query(dim);
      query.randomize(910 + dim);
      const std::vector<hd::BatchQuery> batch{{&refs[0], 0, refs.size(), 0},
                                              {&query, 0, refs.size(), 1}};
      try {
        (void)engine.search_many(batch, 3);
        ADD_FAILURE() << "search_many accepted dim " << dim;
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(std::to_string(dim)), std::string::npos) << what;
        EXPECT_NE(what.find("1024"), std::string::npos) << what;
      }
      EXPECT_THROW((void)engine.top_k_keyed(query, 0, refs.size(), 3, 1),
                   std::invalid_argument);
    }
  }
}

TEST(ImcSearch, RejectsBadActivationSplit) {
  ImcSearchConfig cfg = config_with(Fidelity::kIdeal);
  cfg.activated_pairs = 7;  // does not divide 128 pair rows
  const auto refs = random_refs(4, 128, 8);
  EXPECT_THROW(ImcSearchEngine(refs, cfg), std::invalid_argument);
}

TEST(ImcSearch, TopKAgreementWithExactSearchIsHigh) {
  // Statistical noise should rarely change the top-1 among well-separated
  // candidates (the HD robustness premise).
  auto refs = random_refs(256, 4096, 9);
  ImcSearchEngine engine(refs, config_with(Fidelity::kStatistical));
  int agree = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    util::BitVec query = refs[static_cast<std::size_t>(t * 5)];
    for (int i = 0; i < 400; ++i) query.flip((i * 7 + t) % 4096);
    const auto hits =
        engine.top_k_keyed(query, 0, refs.size(), 1, static_cast<std::uint64_t>(t));
    if (!hits.empty() &&
        hits[0].reference_index == static_cast<std::size_t>(t * 5)) {
      ++agree;
    }
  }
  EXPECT_GE(agree, 45) << "top-1 agreement should be ≥ 90%";
}

// --- Pruned keyed search is exact ----------------------------------------
//
// search_many and top_k_keyed skip noise draws for candidates that cannot
// enter the top-k. These properties compare them against a brute force
// that scores every candidate with dot_keyed and sorts the lot.

/// dot_keyed for every candidate of q's window, then a full sort by
/// (dot desc, index asc), truncated to k.
std::vector<hd::SearchHit> brute_force(const ImcSearchEngine& oracle,
                                       const hd::BatchQuery& q,
                                       std::size_t k) {
  std::vector<hd::SearchHit> all;
  const std::size_t last = std::min(q.last, oracle.reference_count());
  const double dim = static_cast<double>(q.hv->size());
  for (std::size_t i = q.first; i < last; ++i) {
    const double d = oracle.dot_keyed(*q.hv, i, q.stream);
    all.push_back({i, std::llround(d), (d / dim + 1.0) / 2.0});
  }
  std::sort(all.begin(), all.end(),
            [](const hd::SearchHit& a, const hd::SearchHit& b) {
              return a.dot != b.dot ? a.dot > b.dot
                                    : a.reference_index < b.reference_index;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

/// Candidates covered by the union of the clipped windows: the shared
/// segment sweep charges each once per block.
std::size_t union_size(const std::vector<hd::BatchQuery>& queries,
                       std::size_t n_refs) {
  std::vector<bool> covered(n_refs, false);
  for (const hd::BatchQuery& q : queries) {
    for (std::size_t i = q.first; i < std::min(q.last, n_refs); ++i) {
      covered[i] = true;
    }
  }
  return static_cast<std::size_t>(
      std::count(covered.begin(), covered.end(), true));
}

struct Device {
  const char* name;
  ImcSearchConfig cfg;
};

std::vector<Device> devices() {
  std::vector<Device> out;
  out.push_back({"default", config_with(Fidelity::kStatistical)});
  // Noisy enough that the noise margin dwarfs most score gaps, so pruning
  // rarely fires and the draws decide the ranking.
  ImcSearchConfig noisy = config_with(Fidelity::kStatistical);
  noisy.array.sense_sigma *= 60.0;
  noisy.array.wire_sigma *= 60.0;
  out.push_back({"noisy", noisy});
  out.push_back({"ideal", config_with(Fidelity::kIdeal)});
  return out;
}

TEST(ImcSearchPruning, NoisyDeviceInflatesPhaseSigma) {
  const auto refs = random_refs(8, 1024, 40);
  const auto devs = devices();
  const ImcSearchEngine base(refs, devs[0].cfg);
  const ImcSearchEngine noisy(refs, devs[1].cfg);
  ASSERT_GT(base.phase_sigma(), 0.0);
  EXPECT_GE(noisy.phase_sigma(), 20.0 * base.phase_sigma());
}

TEST(ImcSearchPruning, SearchManyAndTopKKeyedEqualBruteForce) {
  constexpr std::size_t kDim = 1024;
  // References 200..239 duplicate 20..59, so queries near them see exact
  // ties (noise-free) and equal rounded scores (noisy).
  auto refs = random_refs(300, kDim, 41);
  for (std::size_t i = 0; i < 40; ++i) refs[200 + i] = refs[20 + i];

  util::Xoshiro256 rng(42);
  std::vector<util::BitVec> hvs;
  for (std::size_t q = 0; q < 12; ++q) {
    util::BitVec hv(kDim);
    if (q % 4 == 3) {
      hv.randomize(rng.next());
    } else {
      hv = refs[20 + rng.below(40)];
      for (std::size_t f = 0; f < 60 * (q % 4 + 1); ++f) {
        hv.flip(rng.below(kDim));
      }
    }
    hvs.push_back(std::move(hv));
  }
  // Windows: whole library, nested, disjoint, overlapping, empty, and
  // past the end (clipped to empty).
  const std::pair<std::size_t, std::size_t> windows[] = {
      {0, 300},   {10, 250}, {20, 60},  {190, 240}, {0, 40},   {260, 300},
      {35, 210},  {5, 5},    {120, 80}, {300, 400}, {199, 201}, {0, 1000}};

  std::size_t ties = 0;
  for (const Device& dev : devices()) {
    for (const std::size_t offset : {std::size_t{0}, std::size_t{1000}}) {
      ImcSearchConfig cfg = dev.cfg;
      cfg.index_offset = offset;
      const ImcSearchEngine engine(refs, cfg);
      const ImcSearchEngine oracle(refs, cfg);
      const bool noisy = cfg.fidelity == Fidelity::kStatistical;
      const std::size_t ppq = kDim / cfg.activated_pairs;

      std::vector<hd::BatchQuery> block;
      for (std::size_t q = 0; q < hvs.size(); ++q) {
        block.push_back({&hvs[q], windows[q].first, windows[q].second,
                         500 + q});
      }
      for (const std::size_t k : {1U, 3U, 8U}) {
        SCOPED_TRACE(std::string(dev.name) + " offset " +
                     std::to_string(offset) + " k " + std::to_string(k));
        std::uint64_t before = engine.phases_executed();
        const auto batched = engine.search_many(block, k);
        EXPECT_EQ(engine.phases_executed() - before,
                  noisy ? ppq * union_size(block, refs.size()) : 0U);

        for (std::size_t q = 0; q < block.size(); ++q) {
          const auto want = brute_force(oracle, block[q], k);
          for (std::size_t h = 1; h < want.size(); ++h) {
            ties += want[h].dot == want[h - 1].dot;
          }
          EXPECT_EQ(batched[q], want) << "search_many query " << q;

          before = engine.phases_executed();
          EXPECT_EQ(engine.top_k_keyed(*block[q].hv, block[q].first,
                                       block[q].last, k, block[q].stream),
                    want)
              << "top_k_keyed query " << q;
          const std::size_t last = std::min(block[q].last, refs.size());
          const std::size_t len = block[q].first < last
                                      ? last - block[q].first
                                      : 0;
          EXPECT_EQ(engine.phases_executed() - before, noisy ? ppq * len : 0U);
        }
      }
    }
  }
  EXPECT_GT(ties, 0U) << "the duplicates must produce equal-score hits";
}

}  // namespace
}  // namespace oms::accel
