// Concurrency contracts of the "rram-statistical" backend: one
// ImcSearchEngine over the whole library whose chip slices are accounting
// only, with a batch's query blocks running concurrently over
// util::ThreadPool::global(). These suites pin what that path must honor:
// hits bit-identical to the monolithic engine for every block size and
// every global-pool size — on a library wide enough that each block's
// sweep is itself cut into pool slices, too — tie-breaks across slice
// boundaries, and exact (scheduling-independent) slice-entry and phase
// counters, since accel::PerfModel::from_measured consumes them.
// Registered under the `tsan` ctest label so the ThreadSanitizer CI job
// covers the blocks' and the slices' concurrency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "accel/imc_search.hpp"
#include "core/search_backend.hpp"
#include "hd/search.hpp"
#include "util/thread_pool.hpp"

namespace oms::accel {
namespace {

std::vector<util::BitVec> random_hvs(std::size_t n, std::size_t dim,
                                     std::uint64_t seed) {
  std::vector<util::BitVec> hvs(n);
  for (std::size_t i = 0; i < n; ++i) {
    hvs[i] = util::BitVec(dim);
    hvs[i].randomize(seed + i);
  }
  return hvs;
}

/// Varied overlapping windows (some full-range, some narrow, some hugging
/// a slice boundary) so each block genuinely meets several slices.
std::vector<core::Query> make_batch(const std::vector<util::BitVec>& queries,
                                    std::size_t n_refs) {
  std::vector<core::Query> batch(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::size_t first = (i % 5) * (n_refs / 10);
    const std::size_t last =
        i % 3 == 0 ? n_refs : std::min(n_refs, first + n_refs / 2 + i);
    batch[i] = core::Query{&queries[i], first, last, i};
  }
  return batch;
}

void expect_identical(const std::vector<std::vector<hd::SearchHit>>& a,
                      const std::vector<std::vector<hd::SearchHit>>& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << what << " q" << i;
    for (std::size_t j = 0; j < a[i].size(); ++j) {
      EXPECT_EQ(a[i][j], b[i][j]) << what << " q" << i << " hit " << j;
    }
  }
}

core::BackendOptions sliced_options(std::size_t refs_per_shard) {
  core::BackendOptions opts;
  opts.calibration_samples = 512;
  opts.max_refs_per_shard = refs_per_shard;
  return opts;
}

/// The oracle: one monolithic engine over the whole library, configured
/// as the backend configures its engine, searched one query at a time.
std::vector<std::vector<hd::SearchHit>> monolithic_hits(
    const std::vector<util::BitVec>& refs, const core::BackendOptions& opts,
    std::span<const core::Query> batch, std::size_t k) {
  ImcSearchConfig cfg;
  cfg.array = opts.array;
  cfg.activated_pairs = opts.activated_pairs;
  cfg.calibration_samples = opts.calibration_samples;
  cfg.seed = opts.seed;
  const ImcSearchEngine mono(refs, cfg);
  std::vector<std::vector<hd::SearchHit>> out;
  out.reserve(batch.size());
  for (const core::Query& q : batch) {
    out.push_back(mono.top_k_keyed(*q.hv, q.first, q.last, k, q.stream));
  }
  return out;
}

/// Counters by brute force: per block, the union of its windows in rows
/// (phases charge every row once per block) and in distinct slices (one
/// entry per slice the block meets).
struct Counters {
  std::uint64_t entries = 0;
  std::uint64_t phases = 0;
};
Counters expected_counters(std::span<const core::Query> batch,
                           std::size_t n_refs, std::size_t width,
                           std::size_t block, std::uint64_t phases_per_row) {
  Counters c;
  for (std::size_t begin = 0; begin < batch.size(); begin += block) {
    std::vector<bool> row(n_refs, false);
    for (std::size_t i = begin; i < std::min(batch.size(), begin + block);
         ++i) {
      for (std::size_t r = batch[i].first; r < batch[i].last; ++r) {
        row[r] = true;
      }
    }
    std::vector<bool> slice((n_refs + width - 1) / width, false);
    for (std::size_t r = 0; r < n_refs; ++r) {
      if (!row[r]) continue;
      c.phases += phases_per_row;
      if (!slice[r / width]) ++c.entries;
      slice[r / width] = true;
    }
  }
  return c;
}

/// Checks the backend over `refs` (dimension 1024, so 16 phases
/// per candidate row) against the monolithic oracle and the brute-force
/// counters for every block size; returns the first mismatch, or "".
std::string check_library(const std::vector<util::BitVec>& refs,
                          std::size_t width, std::size_t shards,
                          const std::string& where) {
  const auto query_hvs = random_hvs(48, 1024, 9000);
  const auto batch = make_batch(query_hvs, refs.size());
  const std::size_t k = 5;

  core::BackendOptions opts = sliced_options(width);
  const auto expected = monolithic_hits(refs, opts, batch, k);
  for (const std::size_t block : {1UL, 7UL, 64UL}) {
    const std::string at = where + " block=" + std::to_string(block);
    opts.query_block = block;
    const auto backend = core::make_backend("rram-statistical", refs, opts);
    if (backend->stats().shards != shards) return at + ": shard count";
    if (backend->search_batch(batch, k) != expected) {
      return at + ": hits differ from the monolithic engine";
    }
    // 1024 / 64 activated pairs = 16 phases per candidate row.
    const Counters want =
        expected_counters(batch, refs.size(), width, block, 16);
    const core::BackendStats s = backend->stats();
    if (s.shard_entries != want.entries) {
      return at + ": shard_entries " + std::to_string(s.shard_entries) +
             " != " + std::to_string(want.entries);
    }
    if (s.phases_executed != want.phases) {
      return at + ": phases " + std::to_string(s.phases_executed) + " != " +
             std::to_string(want.phases);
    }
  }
  return "";
}

/// Child-process body of the global-pool sweep: sizes the fresh process's
/// global pool to `threads`, then checks the backend against the
/// monolithic oracle and the brute-force counters for every block size,
/// on a narrow library (each block one slice of the sweep) and on one
/// wide enough that every block's sweep is cut into pool slices.
/// Exits 0 on success; otherwise prints the first mismatch and exits 1.
[[noreturn]] void check_with_global_threads(std::size_t threads) {
  const auto fail = [](const std::string& what) {
    std::fprintf(stderr, "%s\n", what.c_str());
    std::exit(1);
  };
  if (!util::ThreadPool::set_global_threads(threads) ||
      util::ThreadPool::global().thread_count() != threads) {
    fail("global pool not sized to " + std::to_string(threads));
  }
  const std::string where = "threads=" + std::to_string(threads);

  // 600 refs, 90 refs/chip slice: 7 slices with a ragged 60-reference
  // tail. Under one 1,024-row sweep chunk, so no block is split.
  const auto narrow = random_hvs(600, 1024, 1);
  std::string err = check_library(narrow, 90, 7, where + " narrow");
  if (!err.empty()) fail(err);

  // At D = 1024 a row is 16 words (128 B), so a sweep chunk is 128 KiB /
  // 128 B = 1,024 rows and a minimum slice hd::kMinSliceChunks (4) chunks
  // = 4,096 rows; a block whose windows cover >= 2 minimum slices (8,192
  // rows) is split into P = min(threads, rows / 4,096) slices. With
  // 16,500 references a full-range block gets P = min(threads, 4) =
  // threads, and make_batch's half-library windows (>= 8,250 rows) split
  // in two at every pool size >= 2. 2,500 refs per chip slice gives 7
  // chip slices with a ragged 1,500-reference tail. The references sit in
  // one contiguous word block, as a mapped library's do.
  constexpr std::size_t kWide = 16500;
  const auto rows = random_hvs(kWide, 1024, 2);
  std::vector<std::uint64_t> words(kWide * 16);
  std::vector<util::BitVec> wide;
  for (std::size_t i = 0; i < kWide; ++i) {
    std::copy_n(rows[i].words().data(), 16, words.data() + i * 16);
    wide.push_back(util::BitVec::view(words.data() + i * 16, 1024));
  }
  const auto probe = random_hvs(1, 1024, 3);
  const core::Query full{&probe[0], 0, kWide, 0};
  const std::size_t p =
      hd::slice_count({&full, 1}, hd::RefView::from_span(wide));
  if (p != std::min<std::size_t>(threads, 4)) {
    fail(where + ": wide library splits into " + std::to_string(p) +
         " slices");
  }
  err = check_library(wide, 2500, 7, where + " wide");
  if (!err.empty()) fail(err);
  std::exit(0);
}

TEST(ShardedParallel, MatchesMonolithicEngineAcrossBlockAndPoolSizes) {
  // The global pool is sized once per process, so each size runs in a
  // freshly executed child (threadsafe death-test style re-executes this
  // binary for just this test).
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const std::size_t threads : {1UL, 2UL, 3UL, 4UL}) {
    EXPECT_EXIT(check_with_global_threads(threads),
                testing::ExitedWithCode(0), "")
        << "threads=" << threads;
  }
}

TEST(ShardedParallel, BackendPathsAgreeAcrossAllApplicableBackends) {
  // Backend-level equivalence for every block size: "rram-statistical"
  // cut into 6 chip slices reproduces the one-chip backend's hits, and
  // "ideal-hd" reproduces its own one-query-at-a-time hits.
  const auto refs = random_hvs(400, 512, 3);
  const auto query_hvs = random_hvs(40, 512, 7777);
  std::vector<core::Query> batch(query_hvs.size());
  for (std::size_t i = 0; i < query_hvs.size(); ++i) {
    batch[i] = core::Query{&query_hvs[i], i % 9, refs.size() - (i % 13), i};
  }
  const std::size_t k = 4;

  core::BackendOptions opts;
  opts.calibration_samples = 512;
  opts.seed = 99;
  for (const char* name : {"ideal-hd", "rram-statistical"}) {
    opts.max_refs_per_shard = 0;
    opts.query_block = 1;
    const auto mono = core::make_backend(name, refs, opts);
    ASSERT_EQ(mono->stats().shards, 1U) << name;
    const auto expected = mono->search_batch(batch, k);

    opts.max_refs_per_shard = 70;  // 6 slices, ragged tail
    for (const std::size_t block : {1UL, 7UL, 64UL}) {
      opts.query_block = block;
      const auto sliced = core::make_backend(name, refs, opts);
      expect_identical(expected, sliced->search_batch(batch, k), name);
    }
  }
}

TEST(ShardedParallel, TieBreaksHoldAcrossSliceBoundaries) {
  // Duplicated references straddling 75-reference slice boundaries force
  // exact score ties, which must come out in ascending global index order;
  // the full-range block enters all 4 slices.
  auto refs = random_hvs(300, 512, 4);
  for (const std::size_t dup : {23UL, 74UL, 75UL, 149UL, 150UL, 299UL}) {
    refs[dup] = refs[5];
  }
  const core::Query q{&refs[5], 0, refs.size(), 0};
  const auto exact = core::make_backend("ideal-hd", refs);
  const auto out = exact->search_batch(std::span(&q, 1), 7);
  ASSERT_EQ(out.size(), 1U);
  ASSERT_EQ(out[0].size(), 7U);
  const std::size_t expected[] = {5, 23, 74, 75, 149, 150, 299};
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(out[0][i].reference_index, expected[i]) << i;
    EXPECT_EQ(out[0][i].dot, 512) << i;
  }

  const auto rram =
      core::make_backend("rram-statistical", refs, sliced_options(75));
  (void)rram->search_batch(std::span(&q, 1), 7);
  EXPECT_EQ(rram->stats().shard_entries, 4U);
}

}  // namespace
}  // namespace oms::accel
