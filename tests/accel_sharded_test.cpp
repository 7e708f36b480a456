// The "sharded" backend: one ImcSearchEngine over the whole library, cut
// into chip-capacity slices that count shards and shard entries for the
// multi-chip perf model. These cases pin the slice accounting and show the
// slicing never changes a hit.
#include <gtest/gtest.h>

#include <string>

#include "accel/mapper.hpp"
#include "core/search_backend.hpp"
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

core::BackendOptions small_options(Fidelity f, std::size_t refs_per_shard) {
  core::BackendOptions opts;
  opts.sharded_fidelity = f;
  opts.calibration_samples = 512;
  opts.max_refs_per_shard = refs_per_shard;
  return opts;
}

std::unique_ptr<core::SearchBackend> sharded(
    const std::vector<util::BitVec>& refs, Fidelity f,
    std::size_t refs_per_shard) {
  return core::make_backend("sharded", refs, small_options(f, refs_per_shard));
}

TEST(ShardedBackend, SplitsIntoExpectedShards) {
  const auto refs = random_refs(1000, 512, 1);
  const auto backend = sharded(refs, Fidelity::kIdeal, 300);
  EXPECT_EQ(backend->stats().shards, 4U);  // 300+300+300+100
  EXPECT_EQ(backend->stats().references, 1000U);
}

TEST(ShardedBackend, DerivesShardSizeFromChipCapacity) {
  // 512-dim refs need 4 vertical tiles of the default 128-pair arrays;
  // 48 arrays / 4 tiles = 12 column blocks × 256 cols = 3072 refs/shard.
  EXPECT_EQ(references_per_chip(512, rram::ChipConfig{}), 3072U);
  EXPECT_EQ(sharded(random_refs(100, 512, 2), Fidelity::kIdeal, 0)
                ->stats()
                .shards,
            1U);
  EXPECT_EQ(sharded(random_refs(3073, 512, 2), Fidelity::kIdeal, 0)
                ->stats()
                .shards,
            2U);
}

TEST(ShardedBackend, IdealFidelityMatchesGlobalSearch) {
  const auto refs = random_refs(700, 1024, 3);
  const auto backend = sharded(refs, Fidelity::kIdeal, 128);
  util::BitVec query(1024);
  query.randomize(900);

  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 700}, {100, 500}, {127, 129} /* shard boundary */, {256, 384}};
  for (const auto& [first, last] : ranges) {
    const auto global = hd::top_k_search(query, refs, first, last, 5);
    const auto shard = backend->top_k(query, first, last, 5, 42);
    ASSERT_EQ(shard.size(), global.size()) << first << ".." << last;
    for (std::size_t i = 0; i < global.size(); ++i) {
      EXPECT_EQ(shard[i].reference_index, global[i].reference_index);
      EXPECT_EQ(shard[i].dot, global[i].dot);
    }
  }
}

TEST(ShardedBackend, FindsPlantedMatchUnderStatisticalNoise) {
  auto refs = random_refs(600, 2048, 4);
  util::BitVec query = refs[431];
  for (int i = 0; i < 80; ++i) query.flip(i * 23);
  const auto backend = sharded(refs, Fidelity::kStatistical, 200);
  const auto hits = backend->top_k(query, 0, refs.size(), 1, 7);
  ASSERT_EQ(hits.size(), 1U);
  EXPECT_EQ(hits[0].reference_index, 431U);
}

TEST(ShardedBackend, EmptyRangeAndZeroK) {
  const auto refs = random_refs(100, 256, 5);
  const auto backend = sharded(refs, Fidelity::kIdeal, 50);
  EXPECT_TRUE(backend->top_k(refs[0], 10, 10, 5, 1).empty());
  EXPECT_TRUE(backend->top_k(refs[0], 0, 100, 0, 1).empty());
  EXPECT_EQ(backend->stats().shard_entries, 0U);
}

TEST(ShardedBackend, TopKIsAOneQuerySearchBatch) {
  // top_k is a one-query block: the same hits, and the same shards
  // entered and phases charged, window by window.
  const auto refs = random_refs(700, 1024, 7);
  const auto backend = sharded(refs, Fidelity::kStatistical, 128);
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
    const core::BackendStats s0 = backend->stats();
    const auto single = backend->top_k(query, c.first, c.last, c.k, 42);
    const core::BackendStats s1 = backend->stats();
    const core::Query q{&query, c.first, c.last, 42};
    const auto batch = backend->search_batch({&q, 1}, c.k);
    const core::BackendStats s2 = backend->stats();

    const std::string where =
        std::to_string(c.first) + ".." + std::to_string(c.last) +
        " k=" + std::to_string(c.k);
    ASSERT_EQ(batch.size(), 1U) << where;
    EXPECT_EQ(single, batch.front()) << where;
    EXPECT_EQ(single.size(), c.k == 0 || c.first == c.last ? 0U : c.k)
        << where;
    const std::uint64_t e1 = s1.shard_entries - s0.shard_entries;
    const std::uint64_t p1 = s1.phases_executed - s0.phases_executed;
    EXPECT_EQ(e1, c.entries) << where;
    EXPECT_EQ(s2.shard_entries - s1.shard_entries, e1) << where;
    EXPECT_EQ(s2.phases_executed - s1.phases_executed, p1) << where;
    // 1024 / 64 activated pairs = 16 phases per candidate.
    EXPECT_EQ(p1, c.entries == 0 ? 0U : 16U * (c.last - c.first)) << where;
  }

  // A query of another dimension throws even when the window spans
  // several shards.
  util::BitVec wrong(960);
  wrong.randomize(951);
  EXPECT_THROW((void)backend->top_k(wrong, 100, 500, 5, 1),
               std::invalid_argument);
}

TEST(ShardedBackend, RejectsEmptyReferences) {
  const std::vector<util::BitVec> none;
  EXPECT_THROW((void)sharded(none, Fidelity::kIdeal, 10),
               std::invalid_argument);
}

TEST(ShardedBackend, SigmaAndGainEqualRramStatistical) {
  // Slices are accounting only: one engine calibrates once, so a ragged
  // library (200 + 200 + 100) reports exactly the monolithic engine's
  // noise parameters, before and after a search of the tail slice.
  const auto refs = random_refs(500, 1024, 11);
  const core::BackendOptions opts = small_options(Fidelity::kStatistical, 200);
  const auto mono = core::make_backend("rram-statistical", refs, opts);
  const auto backend = core::make_backend("sharded", refs, opts);
  ASSERT_EQ(backend->stats().shards, 3U);
  EXPECT_GT(mono->stats().phase_sigma, 0.0);
  EXPECT_EQ(backend->stats().phase_sigma, mono->stats().phase_sigma);
  EXPECT_EQ(backend->stats().gain, mono->stats().gain);

  util::BitVec query(1024);
  query.randomize(77);
  (void)backend->top_k(query, 430, 500, 3, 1);
  EXPECT_EQ(backend->stats().shard_entries, 1U);
  EXPECT_EQ(backend->stats().phase_sigma, mono->stats().phase_sigma);
  EXPECT_EQ(backend->stats().gain, mono->stats().gain);
}

TEST(ShardedBackend, DeterministicAcrossCallsAndThreads) {
  auto refs = random_refs(500, 1024, 6);
  const auto backend = sharded(refs, Fidelity::kStatistical, 150);
  std::vector<util::BitVec> queries(40);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    queries[i] = util::BitVec(1024);
    queries[i].randomize(2000 + i);
  }

  // Serial reference result.
  std::vector<std::vector<hd::SearchHit>> serial(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    serial[i] = backend->top_k(queries[i], 0, refs.size(), 3, i);
  }
  // Parallel, arbitrary order.
  std::vector<std::vector<hd::SearchHit>> parallel(queries.size());
  util::ThreadPool pool(4);
  pool.parallel_for(0, queries.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      parallel[i] = backend->top_k(queries[i], 0, refs.size(), 3, i);
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
