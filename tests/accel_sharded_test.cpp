// Chip-slice accounting of the "rram-statistical" backend: one
// ImcSearchEngine over the whole library, cut into chip-capacity slices
// that count shards and shard entries for the multi-chip perf model. These
// cases pin the slice accounting and show the slicing never changes a hit.
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

core::BackendOptions small_options(std::size_t refs_per_shard) {
  core::BackendOptions opts;
  opts.calibration_samples = 512;
  opts.max_refs_per_shard = refs_per_shard;
  return opts;
}

std::unique_ptr<core::SearchBackend> sliced(
    const std::vector<util::BitVec>& refs, std::size_t refs_per_shard) {
  return core::make_backend("rram-statistical", refs,
                            small_options(refs_per_shard));
}

TEST(ShardedBackend, SplitsIntoExpectedShards) {
  const auto refs = random_refs(1000, 512, 1);
  const auto backend = sliced(refs, 300);
  EXPECT_EQ(backend->stats().shards, 4U);  // 300+300+300+100
  EXPECT_EQ(backend->stats().references, 1000U);
}

TEST(ShardedBackend, DerivesShardSizeFromChipCapacity) {
  // 512-dim refs need 4 vertical tiles of the default 128-pair arrays;
  // 48 arrays / 4 tiles = 12 column blocks × 256 cols = 3072 refs/shard.
  EXPECT_EQ(references_per_chip(512, rram::ChipConfig{}), 3072U);
  const auto small = random_refs(100, 512, 2);
  const auto large = random_refs(3073, 512, 2);
  EXPECT_EQ(sliced(small, 0)->stats().shards, 1U);
  EXPECT_EQ(sliced(large, 0)->stats().shards, 2U);

  // chip_arrays sizes the chip: 96 arrays hold 6144 such refs, 4 arrays
  // one column block of 256.
  core::BackendOptions opts = small_options(0);
  opts.chip_arrays = 96;
  EXPECT_EQ(core::make_backend("rram-statistical", large, opts)->stats().shards,
            1U);
  opts.chip_arrays = 4;
  EXPECT_EQ(core::make_backend("rram-statistical", large, opts)->stats().shards,
            13U);  // ceil(3073 / 256)
}

TEST(ShardedBackend, EmptyLibraryIsOneChipWithNoEntries) {
  // An empty library builds; it has no dimension to size a chip by, so it
  // reports one chip, and a search of it enters none.
  const std::vector<util::BitVec> none;
  for (const std::size_t width : {0UL, 10UL}) {
    const auto backend = sliced(none, width);
    util::BitVec query(512);
    query.randomize(3);
    EXPECT_TRUE(backend->top_k(query, 0, 10, 5, 1).empty()) << width;
    const core::Query q{&query, 0, 10, 1};
    EXPECT_TRUE(backend->search_batch({&q, 1}, 5).front().empty()) << width;
    const core::BackendStats s = backend->stats();
    EXPECT_EQ(s.references, 0U) << width;
    EXPECT_EQ(s.shards, 1U) << width;
    EXPECT_EQ(s.shard_entries, 0U) << width;
  }
}

TEST(ShardedBackend, IdealHdMatchesGlobalSearch) {
  const auto refs = random_refs(700, 1024, 3);
  const auto backend = core::make_backend("ideal-hd", refs);
  util::BitVec query(1024);
  query.randomize(900);

  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 700}, {100, 500}, {127, 129}, {256, 384}};
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
  const auto backend = sliced(refs, 200);
  const auto hits = backend->top_k(query, 0, refs.size(), 1, 7);
  ASSERT_EQ(hits.size(), 1U);
  EXPECT_EQ(hits[0].reference_index, 431U);
}

TEST(ShardedBackend, EmptyRangeAndZeroK) {
  const auto refs = random_refs(100, 256, 5);
  const auto backend = sliced(refs, 50);
  EXPECT_TRUE(backend->top_k(refs[0], 10, 10, 5, 1).empty());
  EXPECT_TRUE(backend->top_k(refs[0], 0, 100, 0, 1).empty());
  EXPECT_EQ(backend->stats().shard_entries, 0U);
}

TEST(ShardedBackend, TopKIsAOneQuerySearchBatch) {
  // top_k is a one-query block: the same hits, and the same shards
  // entered and phases charged, window by window.
  const auto refs = random_refs(700, 1024, 7);
  const auto backend = sliced(refs, 128);
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

TEST(ShardedBackend, SigmaAndGainDoNotDependOnSlices) {
  // Slices are accounting only: one engine calibrates once, so a ragged
  // library (200 + 200 + 100) reports exactly the one-chip engine's
  // noise parameters, before and after a search of the tail slice.
  const auto refs = random_refs(500, 1024, 11);
  const auto mono = sliced(refs, 0);
  const auto backend = sliced(refs, 200);
  ASSERT_EQ(mono->stats().shards, 1U);
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
  const auto backend = sliced(refs, 150);
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
