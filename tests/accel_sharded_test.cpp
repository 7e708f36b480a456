#include "accel/sharded_search.hpp"

#include <gtest/gtest.h>

#include <string>

#include "hd/search.hpp"
#include "util/thread_pool.hpp"

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

ShardedSearchConfig small_config(Fidelity f, std::size_t refs_per_shard) {
  ShardedSearchConfig cfg;
  cfg.engine.fidelity = f;
  cfg.engine.calibration_samples = 512;
  cfg.max_refs_per_shard = refs_per_shard;
  return cfg;
}

TEST(ShardedSearch, SplitsIntoExpectedShards) {
  const auto refs = random_refs(1000, 512, 1);
  const ShardedSearch sharded(refs,
                              small_config(Fidelity::kIdeal, 300));
  EXPECT_EQ(sharded.shard_count(), 4U);  // 300+300+300+100
  EXPECT_EQ(sharded.references_per_shard(), 300U);
  EXPECT_EQ(sharded.plan(0).references, 300U);
  EXPECT_EQ(sharded.plan(3).references, 100U);
}

TEST(ShardedSearch, DerivesShardSizeFromChipCapacity) {
  const auto refs = random_refs(100, 512, 2);
  ShardedSearchConfig cfg = small_config(Fidelity::kIdeal, 0);
  // 512-dim refs need 4 vertical tiles of the default 128-pair arrays;
  // 48 arrays / 4 tiles = 12 column blocks × 256 cols = 3072 refs/shard.
  const ShardedSearch sharded(refs, cfg);
  EXPECT_EQ(sharded.references_per_shard(), 3072U);
  EXPECT_EQ(sharded.shard_count(), 1U);
}

TEST(ShardedSearch, IdealFidelityMatchesGlobalSearch) {
  const auto refs = random_refs(700, 1024, 3);
  const ShardedSearch sharded(refs,
                              small_config(Fidelity::kIdeal, 128));
  util::BitVec query(1024);
  query.randomize(900);

  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 700}, {100, 500}, {127, 129} /* shard boundary */, {256, 384}};
  for (const auto& [first, last] : ranges) {
    const auto global = hd::top_k_search(query, refs, first, last, 5);
    const auto shard = sharded.top_k(query, first, last, 5, 42);
    ASSERT_EQ(shard.size(), global.size()) << first << ".." << last;
    for (std::size_t i = 0; i < global.size(); ++i) {
      EXPECT_EQ(shard[i].reference_index, global[i].reference_index);
      EXPECT_EQ(shard[i].dot, global[i].dot);
    }
  }
}

TEST(ShardedSearch, FindsPlantedMatchUnderStatisticalNoise) {
  auto refs = random_refs(600, 2048, 4);
  util::BitVec query = refs[431];
  for (int i = 0; i < 80; ++i) query.flip(i * 23);
  const ShardedSearch sharded(refs,
                              small_config(Fidelity::kStatistical, 200));
  const auto hits = sharded.top_k(query, 0, refs.size(), 1, 7);
  ASSERT_EQ(hits.size(), 1U);
  EXPECT_EQ(hits[0].reference_index, 431U);
}

TEST(ShardedSearch, EmptyRangeAndZeroK) {
  const auto refs = random_refs(100, 256, 5);
  const ShardedSearch sharded(refs, small_config(Fidelity::kIdeal, 50));
  EXPECT_TRUE(sharded.top_k(refs[0], 10, 10, 5, 1).empty());
  EXPECT_TRUE(sharded.top_k(refs[0], 0, 100, 0, 1).empty());
}

TEST(ShardedSearch, TopKIsAOneQuerySearchMany) {
  // top_k is a one-query search_many: the same hits, and the same shards
  // entered and phases charged, window by window.
  const auto refs = random_refs(700, 1024, 7);
  const ShardedSearch sharded(refs,
                              small_config(Fidelity::kStatistical, 128));
  util::BitVec query(1024);
  query.randomize(950);

  struct Case {
    std::size_t first, last, k, entries;  // entries: shards the window hits
  };
  const Case cases[] = {
      {10, 90, 5, 1},    // inside shard 0
      {100, 300, 5, 3},  // crosses into shards 1 and 2
      {300, 300, 5, 0},  // empty window
      {0, 700, 0, 0},    // k = 0
  };
  for (const Case& c : cases) {
    const std::uint64_t e0 = sharded.shard_entries();
    const std::uint64_t p0 = sharded.phases_executed();
    const auto single = sharded.top_k(query, c.first, c.last, c.k, 42);
    const std::uint64_t e1 = sharded.shard_entries();
    const std::uint64_t p1 = sharded.phases_executed();
    const hd::BatchQuery q{&query, c.first, c.last, 42};
    const auto batch = sharded.search_many({&q, 1}, c.k);
    const std::uint64_t e2 = sharded.shard_entries();
    const std::uint64_t p2 = sharded.phases_executed();

    const std::string where =
        std::to_string(c.first) + ".." + std::to_string(c.last) +
        " k=" + std::to_string(c.k);
    ASSERT_EQ(batch.size(), 1U) << where;
    EXPECT_EQ(single, batch.front()) << where;
    EXPECT_EQ(single.size(), c.k == 0 || c.first == c.last ? 0U : c.k)
        << where;
    EXPECT_EQ(e1 - e0, c.entries) << where;
    EXPECT_EQ(e2 - e1, e1 - e0) << where;
    EXPECT_EQ(p2 - p1, p1 - p0) << where;
    // 1024 / 64 activated pairs = 16 phases per candidate.
    EXPECT_EQ(p1 - p0, c.entries == 0 ? 0U : 16U * (c.last - c.first))
        << where;
  }

  // A query of another dimension throws even when the window fans out
  // across shards on the pool.
  util::BitVec wrong(960);
  wrong.randomize(951);
  EXPECT_THROW((void)sharded.top_k(wrong, 100, 500, 5, 1),
               std::invalid_argument);
}

TEST(ShardedSearch, RejectsEmptyReferences) {
  const std::vector<util::BitVec> none;
  EXPECT_THROW(ShardedSearch(none, small_config(Fidelity::kIdeal, 10)),
               std::invalid_argument);
}

TEST(ShardedSearch, PhaseWeightedMeanWeighsUnevenShards) {
  // Regression: phase_sigma()/gain() used to return shards_.front()'s
  // values only. The aggregate must weight every shard — by executed
  // phases once a search ran, by reference count before (a deliberately
  // uneven last shard gets proportionally less weight).
  const double values[] = {0.5, 0.5, 0.9};
  const std::uint64_t no_phases[] = {0, 0, 0};
  const std::size_t refs[] = {200, 200, 100};  // ragged tail
  EXPECT_NEAR(phase_weighted_mean(values, no_phases, refs, 0.0),
              (0.5 * 200 + 0.5 * 200 + 0.9 * 100) / 500.0, 1e-12);

  // Once phases exist they dominate: only the tail shard searched.
  const std::uint64_t tail_only[] = {0, 0, 800};
  EXPECT_NEAR(phase_weighted_mean(values, tail_only, refs, 0.0), 0.9, 1e-12);

  // Mixed load.
  const std::uint64_t mixed[] = {600, 200, 200};
  EXPECT_NEAR(phase_weighted_mean(values, mixed, refs, 0.0),
              (0.5 * 600 + 0.5 * 200 + 0.9 * 200) / 1000.0, 1e-12);

  // Degenerate inputs fall back to the empty value.
  EXPECT_EQ(phase_weighted_mean({}, {}, {}, 1.0), 1.0);
  const double one[] = {0.7};
  const std::uint64_t zero_w[] = {0};
  const std::size_t zero_f[] = {0};
  EXPECT_EQ(phase_weighted_mean(one, zero_w, zero_f, 1.0), 1.0);
}

TEST(ShardedSearch, SigmaAndGainAggregateAcrossUnevenShards) {
  // 500 references at 200/shard: 200 + 200 + 100 — the last shard is
  // deliberately uneven. Each shard engine calibrates independently;
  // the executor must report the phase-weighted aggregate and expose the
  // per-shard values for auditing.
  const auto refs = random_refs(500, 1024, 11);
  const ShardedSearch sharded(refs,
                              small_config(Fidelity::kStatistical, 200));
  ASSERT_EQ(sharded.shard_count(), 3U);

  std::vector<double> sigmas;
  std::vector<double> gains;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    sigmas.push_back(sharded.shard_phase_sigma(s));
    gains.push_back(sharded.shard_gain(s));
    EXPECT_GT(sigmas.back(), 0.0) << s;
    EXPECT_GT(gains.back(), 0.0) << s;
  }

  // Before any search: reference-count weights (200/200/100).
  const double pre_sigma =
      (sigmas[0] * 200 + sigmas[1] * 200 + sigmas[2] * 100) / 500.0;
  const double pre_gain =
      (gains[0] * 200 + gains[1] * 200 + gains[2] * 100) / 500.0;
  EXPECT_NEAR(sharded.phase_sigma(), pre_sigma, 1e-12);
  EXPECT_NEAR(sharded.gain(), pre_gain, 1e-12);

  // Search only the uneven tail shard's range: phases now weight the
  // aggregate entirely onto shard 2.
  util::BitVec query(1024);
  query.randomize(77);
  (void)sharded.top_k(query, 430, 500, 3, 1);
  EXPECT_EQ(sharded.shard_phases_executed(0), 0U);
  EXPECT_EQ(sharded.shard_phases_executed(1), 0U);
  EXPECT_GT(sharded.shard_phases_executed(2), 0U);
  EXPECT_NEAR(sharded.phase_sigma(), sigmas[2], 1e-12);
  EXPECT_NEAR(sharded.gain(), gains[2], 1e-12);
}

TEST(ShardedSearch, DeterministicAcrossCallsAndThreads) {
  auto refs = random_refs(500, 1024, 6);
  const ShardedSearch sharded(refs,
                              small_config(Fidelity::kStatistical, 150));
  std::vector<util::BitVec> queries(40);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    queries[i] = util::BitVec(1024);
    queries[i].randomize(2000 + i);
  }

  // Serial reference result.
  std::vector<std::vector<hd::SearchHit>> serial(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    serial[i] = sharded.top_k(queries[i], 0, refs.size(), 3, i);
  }
  // Parallel, arbitrary order.
  std::vector<std::vector<hd::SearchHit>> parallel(queries.size());
  util::ThreadPool pool(4);
  pool.parallel_for(0, queries.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      parallel[i] = sharded.top_k(queries[i], 0, refs.size(), 3, i);
    }
  });
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(parallel[i].size(), serial[i].size()) << i;
    for (std::size_t j = 0; j < serial[i].size(); ++j) {
      EXPECT_EQ(parallel[i][j], serial[i][j]) << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace oms::accel
