// Property suite for the ANN candidate prefilter (hd/search.hpp): with
// pruning off — the default, a keep fraction covering the window, or a
// window at/below min_keep — the prefiltered search must be bit-identical
// to the exact search and report recall 1.0; with pruning on it must stay
// deterministic, report scanned < candidates, and (when the sketch is the
// full Hamming distance) lose nothing from the top-k. Backend-level checks
// pin the BackendStats surface: default options report scanned_fraction
// and recall of exactly 1.0.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/search_backend.hpp"
#include "hd/kernels.hpp"
#include "hd/search.hpp"
#include "util/bitvec.hpp"

namespace oms::hd {
namespace {

constexpr std::size_t kDim = 512;  // multiple of 64: no tail-bit caveats
constexpr std::size_t kRefs = 600;
constexpr std::size_t kTopK = 8;

std::vector<util::BitVec> make_refs(std::size_t count, std::uint64_t seed) {
  std::vector<util::BitVec> refs(count);
  for (std::size_t i = 0; i < count; ++i) {
    refs[i] = util::BitVec(kDim);
    refs[i].randomize(seed + i);
    // A few near-duplicates so tie-breaking and near-ties get exercised.
    if (i % 97 == 0 && i > 0) refs[i] = refs[i - 1];
  }
  return refs;
}

std::vector<util::BitVec> make_queries(std::size_t count, std::uint64_t seed) {
  std::vector<util::BitVec> qs(count);
  for (std::size_t i = 0; i < count; ++i) {
    qs[i] = util::BitVec(kDim);
    qs[i].randomize(seed ^ (0x51D << 8) ^ i);
  }
  return qs;
}

TEST(PrefilterProperty, DisabledIsBitIdenticalToExactWithFullScan) {
  const auto refs = make_refs(kRefs, 100);
  const RefView rv = RefView::from_span(refs);
  const auto queries = make_queries(50, 200);

  PrefilterConfig cfg;  // enabled = false
  PrefilterCounters counters;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::size_t first = (i * 7) % 100;
    const std::size_t last = kRefs - (i * 3) % 50;
    const auto exact = top_k_search(queries[i], refs, first, last, kTopK);
    const auto pre = top_k_search_prefiltered(queries[i], rv, first, last,
                                              kTopK, cfg, /*stream=*/i,
                                              &counters);
    EXPECT_EQ(pre, exact) << "query " << i;
  }
  // Pruning off: every window candidate is exactly scanned, recall 1.0.
  EXPECT_EQ(counters.scanned, counters.window_candidates);
  EXPECT_GT(counters.window_candidates, 0u);
  EXPECT_EQ(counters.audited_queries, 0u);
}

TEST(PrefilterProperty, FullKeepFractionIsExact) {
  const auto refs = make_refs(kRefs, 300);
  const RefView rv = RefView::from_span(refs);
  const auto queries = make_queries(20, 400);

  PrefilterConfig cfg;
  cfg.enabled = true;
  cfg.keep_fraction = 1.0;  // shortlist covers the window → exact again
  cfg.min_keep = 1;
  PrefilterCounters counters;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto exact = top_k_search(queries[i], refs, 0, kRefs, kTopK);
    const auto pre = top_k_search_prefiltered(queries[i], rv, 0, kRefs,
                                              kTopK, cfg, i, &counters);
    EXPECT_EQ(pre, exact) << "query " << i;
  }
  EXPECT_EQ(counters.scanned, counters.window_candidates);
}

TEST(PrefilterProperty, TinyWindowsBypassPruning) {
  const auto refs = make_refs(kRefs, 500);
  const RefView rv = RefView::from_span(refs);
  const auto queries = make_queries(10, 600);

  PrefilterConfig cfg;
  cfg.enabled = true;
  cfg.keep_fraction = 0.01;
  cfg.min_keep = 64;  // windows <= 64 candidates are always exact
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::size_t first = i * 10;
    const std::size_t last = first + 40;  // < min_keep
    const auto exact = top_k_search(queries[i], refs, first, last, kTopK);
    const auto pre = top_k_search_prefiltered(queries[i], rv, first, last,
                                              kTopK, cfg, i);
    EXPECT_EQ(pre, exact) << "query " << i;
  }
}

TEST(PrefilterProperty, PruningIsDeterministicAndScansLess) {
  const auto refs = make_refs(kRefs, 700);
  const RefView rv = RefView::from_span(refs);
  const auto queries = make_queries(30, 800);

  PrefilterConfig cfg;
  cfg.enabled = true;
  cfg.keep_fraction = 0.125;
  cfg.min_keep = 32;
  cfg.sketch_words = 2;

  PrefilterCounters c1;
  PrefilterCounters c2;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto a =
        top_k_search_prefiltered(queries[i], rv, 0, kRefs, kTopK, cfg, i, &c1);
    const auto b =
        top_k_search_prefiltered(queries[i], rv, 0, kRefs, kTopK, cfg, i, &c2);
    EXPECT_EQ(a, b) << "query " << i;  // same inputs → same shortlist → same hits
    ASSERT_FALSE(a.empty());
    EXPECT_LE(a.size(), kTopK);
    // Every returned score is the true exact score of that reference.
    for (const SearchHit& h : a) {
      const std::size_t ham = util::xor_popcount(
          queries[i].words().data(), refs[h.reference_index].words().data(),
          queries[i].word_count());
      EXPECT_EQ(h.dot, static_cast<std::int64_t>(kDim) -
                           2 * static_cast<std::int64_t>(ham));
    }
  }
  EXPECT_EQ(c1.scanned, c2.scanned);
  EXPECT_EQ(c1.window_candidates, c2.window_candidates);
  EXPECT_LT(c1.scanned, c1.window_candidates);  // pruning actually pruned
}

TEST(PrefilterProperty, FullWordSketchHasPerfectAuditedRecall) {
  // When the sketch samples every word it IS the exact Hamming distance,
  // and the (sketch, index) shortlist order matches the exact (dot desc,
  // index asc) top-k order — so pruning cannot lose a top-k hit and the
  // in-band audit must measure recall exactly 1.0.
  const auto refs = make_refs(kRefs, 900);
  const RefView rv = RefView::from_span(refs);
  const auto queries = make_queries(25, 1000);

  PrefilterConfig cfg;
  cfg.enabled = true;
  cfg.keep_fraction = 0.1;
  cfg.min_keep = kTopK;
  cfg.sketch_words = kDim / 64;  // all words
  cfg.audit_fraction = 1.0;

  PrefilterCounters counters;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto exact = top_k_search(queries[i], refs, 0, kRefs, kTopK);
    const auto pre = top_k_search_prefiltered(queries[i], rv, 0, kRefs,
                                              kTopK, cfg, i, &counters);
    EXPECT_EQ(pre, exact) << "query " << i;
  }
  EXPECT_EQ(counters.audited_queries, queries.size());
  EXPECT_GT(counters.audit_expected, 0u);
  EXPECT_EQ(counters.audit_matched, counters.audit_expected);  // recall 1.0
}

TEST(PrefilterProperty, AuditRateNeverChangesResults) {
  const auto refs = make_refs(kRefs, 1100);
  const RefView rv = RefView::from_span(refs);
  const auto queries = make_queries(30, 1200);

  PrefilterConfig off;
  off.enabled = true;
  off.keep_fraction = 0.125;
  off.min_keep = 16;
  off.audit_fraction = 0.0;
  PrefilterConfig on = off;
  on.audit_fraction = 1.0;

  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(
        top_k_search_prefiltered(queries[i], rv, 0, kRefs, kTopK, off, i),
        top_k_search_prefiltered(queries[i], rv, 0, kRefs, kTopK, on, i))
        << "query " << i;
  }
}

TEST(PrefilterProperty, BatchMatchesPerQueryAcrossLayouts) {
  const auto refs = make_refs(kRefs, 1300);
  const RefView rv = RefView::from_span(refs);
  const auto queries = make_queries(40, 1400);

  PrefilterConfig cfg;
  cfg.enabled = true;
  cfg.keep_fraction = 0.2;
  cfg.min_keep = 16;
  cfg.audit_fraction = 0.5;

  std::vector<BatchQuery> batch;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    batch.push_back(BatchQuery{&queries[i], (i * 11) % 200,
                               kRefs - (i * 5) % 100, i});
  }

  PrefilterCounters batch_counters;
  const auto batched = top_k_search_batch_prefiltered(batch, rv, kTopK, cfg,
                                                      &batch_counters);
  ASSERT_EQ(batched.size(), batch.size());

  PrefilterCounters single_counters;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto single = top_k_search_prefiltered(
        *batch[i].hv, rv, batch[i].first, batch[i].last, kTopK, cfg,
        batch[i].stream, &single_counters);
    EXPECT_EQ(batched[i], single) << "slot " << i;
  }
  EXPECT_EQ(batch_counters.scanned, single_counters.scanned);
  EXPECT_EQ(batch_counters.audited_queries, single_counters.audited_queries);
  EXPECT_EQ(batch_counters.audit_matched, single_counters.audit_matched);

  // Same queries over other layouts of the same rows (the heap BitVecs
  // above are scattered extents): bit-identical hits, both as one
  // contiguous extent and split mid-block into two.
  std::vector<std::uint64_t> block(kRefs * (kDim / 64));
  for (std::size_t i = 0; i < kRefs; ++i) {
    const auto words = refs[i].words();
    std::copy(words.begin(), words.end(), block.begin() + i * (kDim / 64));
  }
  std::vector<util::BitVec> views;
  for (std::size_t i = 0; i < kRefs; ++i) {
    views.push_back(util::BitVec::view(block.data() + i * (kDim / 64), kDim));
  }
  const RefView view = RefView::from_span(views);
  ASSERT_TRUE(view.valid());
  ASSERT_TRUE(view.contiguous());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(top_k_search_prefiltered(*batch[i].hv, view, batch[i].first,
                                       batch[i].last, kTopK, cfg,
                                       batch[i].stream),
              batched[i])
        << "slot " << i;
  }
  // Two-extent copy of the same rows (fresh blocks, split at kRefs/2 — the
  // layout a two-segment library's interleave-free tail produces).
  std::vector<std::uint64_t> half_a(block.begin(),
                                    block.begin() + (kRefs / 2) * (kDim / 64));
  std::vector<std::uint64_t> half_b(block.begin() + (kRefs / 2) * (kDim / 64),
                                    block.end());
  std::vector<util::BitVec> split_views;
  for (std::size_t i = 0; i < kRefs / 2; ++i) {
    split_views.push_back(
        util::BitVec::view(half_a.data() + i * (kDim / 64), kDim));
  }
  for (std::size_t i = 0; i < kRefs - kRefs / 2; ++i) {
    split_views.push_back(
        util::BitVec::view(half_b.data() + i * (kDim / 64), kDim));
  }
  const RefView split = RefView::from_span(split_views);
  ASSERT_TRUE(split.valid());
  ASSERT_EQ(split.extent_count(), 2u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(top_k_search_prefiltered(*batch[i].hv, split, batch[i].first,
                                       batch[i].last, kTopK, cfg,
                                       batch[i].stream),
              batched[i])
        << "slot " << i;
  }
}

TEST(PrefilterProperty, SmallWindowsAutoDisablePruningByDefault) {
  // The default min_window turns the prefilter into a no-op on windows
  // where the sketch pass costs more than the batched sweep saves — the
  // result must be exact and the bypass must be visible in the counters.
  const auto refs = make_refs(kRefs, 1900);
  const RefView rv = RefView::from_span(refs);
  const auto queries = make_queries(20, 2000);

  PrefilterConfig cfg;
  cfg.enabled = true;
  cfg.keep_fraction = 0.125;
  cfg.min_keep = 4;  // small enough that only min_window forces the bypass
  ASSERT_EQ(cfg.min_window, 512u);

  constexpr std::size_t kSmall = 300;  // < min_window, > keep_target (37)
  PrefilterCounters counters;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::size_t first = i * 5;
    const auto exact =
        top_k_search(queries[i], refs, first, first + kSmall, kTopK);
    const auto pre = top_k_search_prefiltered(
        queries[i], rv, first, first + kSmall, kTopK, cfg, i, &counters);
    EXPECT_EQ(pre, exact) << "query " << i;
  }
  EXPECT_EQ(counters.windows_bypassed, queries.size());
  EXPECT_EQ(counters.windows_pruned, 0u);
  // Bypassed candidates count as scanned — the fraction stays honest.
  EXPECT_EQ(counters.scanned, counters.window_candidates);

  // Dropping the threshold under the window size re-enables pruning on
  // the very same windows.
  cfg.min_window = kSmall;
  PrefilterCounters pruned;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::size_t first = i * 5;
    (void)top_k_search_prefiltered(queries[i], rv, first, first + kSmall,
                                   kTopK, cfg, i, &pruned);
  }
  EXPECT_EQ(pruned.windows_pruned, queries.size());
  EXPECT_EQ(pruned.windows_bypassed, 0u);
  EXPECT_LT(pruned.scanned, pruned.window_candidates);
}

TEST(PrefilterProperty, BackendStatsSurfaceWindowBypassAndPruneCounts) {
  // BackendStats must say which windows the prefilter actually touched:
  // a mixed batch (some windows under min_window, some over) reports both
  // counters, and an all-small batch reports scanned_fraction exactly 1.0
  // even though the prefilter is enabled.
  const auto refs = make_refs(kRefs, 2100);
  const auto queries = make_queries(24, 2200);

  core::BackendOptions opts;
  opts.prefilter.enabled = true;
  opts.prefilter.keep_fraction = 0.125;
  opts.prefilter.min_keep = 4;
  const auto backend = core::make_backend("ideal-hd", refs, opts);

  std::vector<core::Query> mixed;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    // Even slots: the full window (600 ≥ min_window → pruned). Odd slots:
    // a 128-candidate window (< min_window → bypassed, swept exactly).
    const std::size_t first = i % 2 == 0 ? 0 : (i * 13) % 400;
    const std::size_t last = i % 2 == 0 ? kRefs : first + 128;
    mixed.push_back(core::Query{&queries[i], first, last, i});
  }
  (void)backend->search_batch(mixed, kTopK);

  const core::BackendStats stats = backend->stats();
  EXPECT_EQ(stats.prefilter_windows_pruned, queries.size() / 2);
  EXPECT_EQ(stats.prefilter_windows_bypassed, queries.size() / 2);
  EXPECT_LT(stats.scanned_fraction(), 1.0);

  const auto small_backend = core::make_backend("ideal-hd", refs, opts);
  std::vector<core::Query> small;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::size_t first = (i * 13) % 400;
    small.push_back(core::Query{&queries[i], first, first + 128, i});
  }
  (void)small_backend->search_batch(small, kTopK);

  const core::BackendStats small_stats = small_backend->stats();
  EXPECT_EQ(small_stats.prefilter_windows_pruned, 0u);
  EXPECT_EQ(small_stats.prefilter_windows_bypassed, queries.size());
  EXPECT_DOUBLE_EQ(small_stats.scanned_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(small_stats.prefilter_recall(), 1.0);
}

TEST(PrefilterProperty, BackendDefaultsReportExactSearch) {
  const auto refs = make_refs(kRefs, 1500);
  const auto queries = make_queries(20, 1600);

  const auto backend = core::make_backend("ideal-hd", refs, {});
  std::vector<core::Query> batch;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    batch.push_back(core::Query{&queries[i], 0, kRefs, i});
  }
  const auto results = backend->search_batch(batch, kTopK);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(results[i], top_k_search(queries[i], refs, 0, kRefs, kTopK));
  }

  const core::BackendStats stats = backend->stats();
  EXPECT_EQ(stats.backend, "ideal-hd");
  EXPECT_EQ(stats.kernel, kernels::tier_name(kernels::active_tier()));
  EXPECT_EQ(stats.prefilter_candidates, 0u);
  EXPECT_EQ(stats.prefilter_scanned, 0u);
  EXPECT_DOUBLE_EQ(stats.scanned_fraction(), 1.0);   // off by default
  EXPECT_DOUBLE_EQ(stats.prefilter_recall(), 1.0);  // exact by default
}

TEST(PrefilterProperty, BackendPrefilterSurfacesScanAndRecallStats) {
  const auto refs = make_refs(kRefs, 1700);
  const auto queries = make_queries(30, 1800);

  core::BackendOptions opts;
  opts.prefilter.enabled = true;
  opts.prefilter.keep_fraction = 0.125;
  opts.prefilter.min_keep = 16;
  opts.prefilter.audit_fraction = 1.0;
  const auto backend = core::make_backend("ideal-hd", refs, opts);

  std::vector<core::Query> batch;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    batch.push_back(core::Query{&queries[i], 0, kRefs, i});
  }
  const auto batched = backend->search_batch(batch, kTopK);

  // Batched and per-query prefiltered paths agree through the backend too.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batched[i],
              backend->top_k(queries[i], 0, kRefs, kTopK, batch[i].stream));
  }

  const core::BackendStats stats = backend->stats();
  EXPECT_GT(stats.prefilter_candidates, 0u);
  EXPECT_LT(stats.prefilter_scanned, stats.prefilter_candidates);
  EXPECT_LT(stats.scanned_fraction(), 1.0);
  EXPECT_GT(stats.scanned_fraction(), 0.0);
  EXPECT_GT(stats.prefilter_audited_queries, 0u);
  EXPECT_GT(stats.prefilter_recall(), 0.5);  // sketch should be this good
  EXPECT_LE(stats.prefilter_recall(), 1.0);
}

}  // namespace
}  // namespace oms::hd
