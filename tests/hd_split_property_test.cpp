// Properties of the sliced block search (hd::sweep_sliced): a block cut
// into P reference slices, swept slice by slice on the global pool and
// merged per query, returns exactly the unsplit sweep's hits — for the
// exact search (hd::top_k_search_batch) and the RRAM-modelled one
// (accel::ImcSearchEngine::search_many), whose modelled phase count must
// also sum exactly over the slices. Every case runs P = 1..7 over three
// layouts (one contiguous word block, scattered heap BitVecs, and a
// two-segment library interleaved into five extents), with duplicated
// references tying at the k-th place across slice boundaries and windows
// that are empty, partial, past the end, or that start or end exactly on
// a slice boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "accel/imc_search.hpp"
#include "hd/search.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace oms::hd {
namespace {

constexpr std::size_t kDim = 512;
constexpr std::size_t kRefs = 600;
constexpr std::size_t kSource = 7;  // the reference the duplicates copy

util::BitVec random_hv(std::uint64_t seed) {
  util::BitVec hv(kDim);
  hv.randomize(seed);
  return hv;
}

/// kRefs random references with kSource copied to both sides of every
/// inner cut, so equal scores straddle each slice boundary.
std::vector<util::BitVec> library_rows(std::span<const std::size_t> cuts,
                                       std::uint64_t seed) {
  std::vector<util::BitVec> rows;
  for (std::size_t i = 0; i < kRefs; ++i) rows.push_back(random_hv(seed + i));
  for (std::size_t j = 1; j + 1 < cuts.size(); ++j) {
    rows[cuts[j] - 1] = rows[kSource];
    rows[cuts[j]] = rows[kSource];
  }
  return rows;
}

/// The same rows in a given layout. `storage` owns the word blocks the
/// views alias; the returned BitVecs must not outlive it.
enum class Layout { kContiguous, kScattered, kTwoSegment };

const char* layout_name(Layout layout) {
  switch (layout) {
    case Layout::kContiguous: return "contiguous";
    case Layout::kScattered: return "scattered";
    case Layout::kTwoSegment: return "two-segment";
  }
  return "?";
}

std::vector<util::BitVec> lay_out(
    const std::vector<util::BitVec>& rows, Layout layout,
    std::vector<std::vector<std::uint64_t>>& storage) {
  if (layout == Layout::kScattered) return rows;
  const std::size_t wc = (kDim + 63) / 64;
  std::vector<util::BitVec> out;
  if (layout == Layout::kContiguous) {
    storage.assign(1, std::vector<std::uint64_t>(rows.size() * wc));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::copy_n(rows[i].words().data(), wc, storage[0].data() + i * wc);
      out.push_back(util::BitVec::view(storage[0].data() + i * wc, kDim));
    }
    return out;
  }
  // Two segments interleaved as a mass merge would: rows alternate between
  // the blocks in runs of 150, 100, 150, 130 and 70, i.e. five extents.
  storage.assign(2, std::vector<std::uint64_t>(rows.size() * wc));
  const std::size_t runs[] = {150, 100, 150, 130, 70};
  std::size_t next[2] = {0, 0};
  std::size_t i = 0;
  for (std::size_t r = 0; r < std::size(runs); ++r) {
    std::vector<std::uint64_t>& block = storage[r % 2];
    for (std::size_t j = 0; j < runs[r]; ++j, ++i) {
      std::uint64_t* dst = block.data() + next[r % 2]++ * wc;
      std::copy_n(rows[i].words().data(), wc, dst);
      out.push_back(util::BitVec::view(dst, kDim));
    }
  }
  return out;
}

/// A block whose union is the whole library (so its cuts are those of a
/// full window alone), with windows of every shape around the cuts.
std::vector<BatchQuery> make_block(const std::vector<util::BitVec>& hvs,
                                   std::span<const std::size_t> cuts) {
  // Full, past the end, empty, inverted, wholly past the end, partial.
  std::vector<std::pair<std::size_t, std::size_t>> windows = {
      {0, kRefs}, {0, 2 * kRefs},        {5, 5},
      {120, 80},  {kRefs, kRefs + 50},   {33, 301},
      {kRefs - 9, kRefs}};
  for (std::size_t j = 1; j + 1 < cuts.size(); ++j) {
    windows.emplace_back(0, cuts[j]);                // ends on a boundary
    windows.emplace_back(cuts[j], kRefs);            // starts on one
    windows.emplace_back(cuts[j] - 1, cuts[j] + 1);  // straddles it
    windows.emplace_back(cuts[j - 1], cuts[j]);      // exactly one slice
  }
  std::vector<BatchQuery> block;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    block.push_back({&hvs[i % hvs.size()], windows[i].first,
                     windows[i].second, 900 + i});
  }
  return block;
}

/// Queries: exact copies of the duplicated reference (ties at every
/// place), near copies, and random vectors.
std::vector<util::BitVec> make_queries(const std::vector<util::BitVec>& rows) {
  util::Xoshiro256 rng(77);
  std::vector<util::BitVec> hvs;
  for (std::size_t q = 0; q < 9; ++q) {
    if (q % 3 == 0) {
      hvs.push_back(rows[kSource]);
    } else if (q % 3 == 1) {
      util::BitVec hv = rows[kSource];
      for (std::size_t f = 0; f < 40 * q; ++f) hv.flip(rng.below(kDim));
      hvs.push_back(std::move(hv));
    } else {
      hvs.push_back(random_hv(5000 + q));
    }
  }
  return hvs;
}

/// The cuts a full-range block gets for `slices`: what make_block places
/// its windows around. Its other windows lie inside [0, kRefs), so they
/// leave the union, and with it the cuts, unchanged (checked below).
std::vector<std::size_t> full_range_cuts(const RefView& view,
                                         std::size_t slices) {
  const util::BitVec probe(kDim);
  const BatchQuery full{&probe, 0, kRefs, 0};
  return slice_bounds({&full, 1}, view, slices);
}

TEST(SplitProperty, SliceBoundsCoverTheWindowUnion) {
  const auto rows = library_rows({}, 1);
  const RefView view = RefView::from_span(rows);
  for (std::size_t p = 1; p <= 7; ++p) {
    const auto cuts = full_range_cuts(view, p);
    ASSERT_EQ(cuts.size(), p + 1) << p;
    EXPECT_EQ(cuts.front(), 0U);
    EXPECT_EQ(cuts.back(), kRefs);
    for (std::size_t j = 1; j < cuts.size(); ++j) {
      EXPECT_LT(cuts[j - 1], cuts[j]) << p;
      // Even split of the covered rows.
      EXPECT_LE(cuts[j] - cuts[j - 1], kRefs / p + 1) << p;
    }
  }
  // Two disjoint windows: cuts split their covered rows, skipping the gap.
  const util::BitVec probe(kDim);
  const BatchQuery two[] = {{&probe, 100, 200, 0}, {&probe, 400, 500, 1}};
  EXPECT_EQ(slice_bounds(two, view, 2),
            (std::vector<std::size_t>{100, 400, 500}));
  EXPECT_EQ(slice_bounds(two, view, 4),
            (std::vector<std::size_t>{100, 150, 400, 450, 500}));
  const BatchQuery none[] = {{&probe, 5, 5, 0}, {&probe, 700, 900, 1}};
  EXPECT_TRUE(slice_bounds(none, view, 3).empty());
}

TEST(SplitProperty, SliceCutsAlignToChunksOnWideLibraries) {
  // At D = 512 a chunk is 2048 rows, so a slice of a 40,000-row union
  // averages several chunks and every inner cut lands on a chunk
  // multiple.
  std::vector<std::uint64_t> block(40000 * (kDim / 64), 0);
  std::vector<util::BitVec> rows;
  for (std::size_t i = 0; i < 40000; ++i) {
    rows.push_back(util::BitVec::view(block.data() + i * (kDim / 64), kDim));
  }
  const RefView view = RefView::from_span(rows);
  const std::size_t chunk = kernels::sweep_chunk_rows(view.word_count());
  ASSERT_EQ(chunk, 2048U);
  const util::BitVec probe(kDim);
  const BatchQuery q{&probe, 1000, 40000, 0};
  const auto cuts = slice_bounds({&q, 1}, view, 4);
  ASSERT_EQ(cuts.size(), 5U);
  EXPECT_EQ(cuts.front(), 1000U);
  EXPECT_EQ(cuts.back(), 40000U);
  for (std::size_t j = 1; j + 1 < cuts.size(); ++j) {
    EXPECT_EQ(cuts[j] % chunk, 0U) << j;
  }
  // A few chunks of window rows stay one slice; the threshold is two
  // minimum slices.
  const std::size_t min_slice = kMinSliceChunks * chunk;
  const BatchQuery narrow{&probe, 0, 2 * min_slice - 1, 0};
  EXPECT_EQ(slice_count({&narrow, 1}, view), 1U);
  const BatchQuery wide{&probe, 0, 2 * min_slice, 0};
  EXPECT_EQ(slice_count({&wide, 1}, view),
            std::min<std::size_t>(
                2, util::ThreadPool::global().thread_count()));
}

TEST(SplitProperty, ExactSplitEqualsUnsplitSweep) {
  std::size_t ties = 0;
  for (const Layout layout :
       {Layout::kContiguous, Layout::kScattered, Layout::kTwoSegment}) {
    for (std::size_t p = 1; p <= 7; ++p) {
      SCOPED_TRACE(std::string(layout_name(layout)) + " P=" +
                   std::to_string(p));
      const auto cuts =
          full_range_cuts(RefView::from_span(library_rows({}, 1)), p);
      const auto rows = library_rows(cuts, 1);
      std::vector<std::vector<std::uint64_t>> storage;
      const auto refs = lay_out(rows, layout, storage);
      const RefView view = RefView::from_span(refs);
      if (layout == Layout::kContiguous) ASSERT_EQ(view.extent_count(), 1U);
      if (layout == Layout::kTwoSegment) ASSERT_EQ(view.extent_count(), 5U);

      const auto hvs = make_queries(rows);
      const auto block = make_block(hvs, cuts);
      ASSERT_EQ(slice_bounds(block, view, p), cuts);
      // The library is under two minimum slices, so each slice's inner
      // top_k_search_batch is the plain unsplit sweep.
      ASSERT_EQ(slice_count(block, view), 1U);

      // 2P - 1 exact copies of kSource: k = 2P - 2 cuts the tie at the
      // k-th place, leaving out the copy with the highest index.
      const std::size_t copies = 2 * p - 1;
      for (const std::size_t k :
           {std::size_t{1}, std::max<std::size_t>(1, copies - 1),
            std::size_t{9}}) {
        const auto split = sweep_sliced(
            block, view, k, p,
            [&](std::span<const BatchQuery> slice,
                std::vector<std::vector<SearchHit>>& hits) {
              hits = top_k_search_batch(slice, view, k);
            });
        const auto unsplit = top_k_search_batch(block, view, k);
        ASSERT_EQ(split.size(), block.size());
        for (std::size_t q = 0; q < block.size(); ++q) {
          const auto oracle =
              top_k_search(*block[q].hv, std::span<const util::BitVec>(refs),
                           block[q].first, block[q].last, k);
          EXPECT_EQ(split[q], unsplit[q]) << "k=" << k << " q" << q;
          EXPECT_EQ(split[q], oracle) << "k=" << k << " q" << q;
          for (std::size_t h = 1; h < oracle.size(); ++h) {
            ties += oracle[h].dot == oracle[h - 1].dot;
          }
        }
      }
    }
  }
  EXPECT_GT(ties, 0U) << "the duplicates must produce equal-score hits";
}

TEST(SplitProperty, WrongDimensionThrowsFromEverySliceCount) {
  const auto rows = library_rows({}, 1);
  const RefView view = RefView::from_span(rows);
  const util::BitVec good = rows[3];
  const util::BitVec bad(kDim + 64);
  const BatchQuery block[] = {{&good, 0, kRefs, 0}, {&bad, 10, 20, 1}};
  for (std::size_t p = 1; p <= 7; ++p) {
    EXPECT_THROW((void)sweep_sliced(
                     block, view, 3, p,
                     [&](std::span<const BatchQuery> slice,
                         std::vector<std::vector<SearchHit>>& hits) {
                       hits = top_k_search_batch(slice, view, 3);
                     }),
                 std::invalid_argument)
        << p;
  }
}

// --- RRAM-modelled search -------------------------------------------------

/// dot_keyed for every candidate of q's window, fully sorted by (dot desc,
/// index asc) and truncated to k: the search without any pruning.
std::vector<SearchHit> brute_force(const accel::ImcSearchEngine& oracle,
                                   const BatchQuery& q, std::size_t k) {
  std::vector<SearchHit> all;
  const std::size_t last = std::min(q.last, oracle.reference_count());
  const double dim = static_cast<double>(q.hv->size());
  for (std::size_t i = q.first; i < last; ++i) {
    const double d = oracle.dot_keyed(*q.hv, i, q.stream);
    all.push_back({i, std::llround(d), (d / dim + 1.0) / 2.0});
  }
  std::sort(all.begin(), all.end(), [](const SearchHit& a, const SearchHit& b) {
    return a.dot != b.dot ? a.dot > b.dot
                          : a.reference_index < b.reference_index;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

/// Rows of the union of the clipped windows: the block's modelled chip
/// scores each once.
std::size_t union_rows(std::span<const BatchQuery> block) {
  std::vector<bool> covered(kRefs, false);
  for (const BatchQuery& q : block) {
    for (std::size_t i = q.first; i < std::min(q.last, kRefs); ++i) {
      covered[i] = true;
    }
  }
  return static_cast<std::size_t>(
      std::count(covered.begin(), covered.end(), true));
}

TEST(SplitProperty, ImcSplitEqualsUnsplitSearchManyAndPhases) {
  accel::ImcSearchConfig statistical;
  statistical.calibration_samples = 512;
  accel::ImcSearchConfig noisy = statistical;
  noisy.array.sense_sigma *= 60.0;
  noisy.array.wire_sigma *= 60.0;
  accel::ImcSearchConfig ideal = statistical;
  ideal.fidelity = accel::Fidelity::kIdeal;
  const std::size_t ppq = kDim / statistical.activated_pairs;

  for (const Layout layout : {Layout::kContiguous, Layout::kTwoSegment}) {
    for (const auto* cfg : {&statistical, &noisy, &ideal}) {
      for (std::size_t p = 1; p <= 7; ++p) {
        SCOPED_TRACE(std::string(layout_name(layout)) + " sigma x" +
                     (cfg == &noisy ? "60" : "1") +
                     (cfg == &ideal ? " ideal" : "") +
                     " P=" + std::to_string(p));
        const auto cuts = full_range_cuts(
            RefView::from_span(library_rows({}, 2)), p);
        const auto rows = library_rows(cuts, 2);
        std::vector<std::vector<std::uint64_t>> storage;
        const auto refs = lay_out(rows, layout, storage);
        const accel::ImcSearchEngine engine(refs, *cfg);
        const auto hvs = make_queries(rows);
        const auto block = make_block(hvs, cuts);
        ASSERT_EQ(slice_count(block, engine.view()), 1U);
        const bool charged = cfg != &ideal;
        for (const std::size_t k : {1U, 4U}) {
          std::uint64_t before = engine.phases_executed();
          const auto split = sweep_sliced(
              block, engine.view(), k, p,
              [&](std::span<const BatchQuery> slice,
                  std::vector<std::vector<SearchHit>>& hits) {
                hits = engine.search_many(slice, k);
              });
          const std::uint64_t split_phases = engine.phases_executed() - before;
          before = engine.phases_executed();
          const auto unsplit = engine.search_many(block, k);
          const std::uint64_t unsplit_phases =
              engine.phases_executed() - before;

          EXPECT_EQ(split_phases, unsplit_phases) << "k=" << k;
          EXPECT_EQ(unsplit_phases, charged ? ppq * union_rows(block) : 0U)
              << "k=" << k;
          for (std::size_t q = 0; q < block.size(); ++q) {
            EXPECT_EQ(split[q], unsplit[q]) << "k=" << k << " q" << q;
            EXPECT_EQ(split[q], brute_force(engine, block[q], k))
                << "k=" << k << " q" << q;
          }
        }
      }
    }
  }
}

TEST(SplitProperty, WideLibrarySplitsInsideTheBatchedSearches) {
  // At D = 512 a minimum slice is 4 chunks of 2048 rows, so 20,000 rows
  // give P = min(pool threads, 2) >= 2 on any pool of two or more: the
  // batched searches split on their own, and must still equal the
  // per-query oracles.
  constexpr std::size_t kWide = 20000;
  const std::size_t wc = kDim / 64;
  std::vector<std::uint64_t> block(kWide * wc);
  std::vector<util::BitVec> refs;
  for (std::size_t i = 0; i < kWide; ++i) {
    util::BitVec row = random_hv(31 + i);
    std::copy_n(row.words().data(), wc, block.data() + i * wc);
    refs.push_back(util::BitVec::view(block.data() + i * wc, kDim));
  }
  for (const std::size_t dup : {std::size_t{8191}, std::size_t{8192},
                                std::size_t{10000}, std::size_t{10001},
                                std::size_t{12288}, std::size_t{19999}}) {
    std::copy_n(refs[9].words().data(), wc, block.data() + dup * wc);
  }
  const RefView view = RefView::from_span(refs);
  std::vector<util::BitVec> hvs = {refs[9], random_hv(404), random_hv(405)};
  const std::vector<BatchQuery> batch = {{&hvs[0], 0, kWide, 1},
                                         {&hvs[1], 3000, 17000, 2},
                                         {&hvs[2], 0, 9000, 3},
                                         {&hvs[0], 8192, kWide, 4}};
  if (util::ThreadPool::global().thread_count() >= 2) {
    EXPECT_GE(slice_count(batch, view), 2U);
  }
  const std::size_t k = 5;
  const auto exact = top_k_search_batch(batch, view, k);
  for (std::size_t q = 0; q < batch.size(); ++q) {
    EXPECT_EQ(exact[q], top_k_search(*batch[q].hv,
                                     std::span<const util::BitVec>(refs),
                                     batch[q].first, batch[q].last, k))
        << q;
  }

  accel::ImcSearchConfig cfg;
  cfg.calibration_samples = 512;
  const accel::ImcSearchEngine engine(refs, cfg);
  const std::uint64_t before = engine.phases_executed();
  const auto noisy = engine.search_many(batch, k);
  EXPECT_EQ(engine.phases_executed() - before,
            (kDim / cfg.activated_pairs) * kWide);
  for (std::size_t q = 0; q < batch.size(); ++q) {
    EXPECT_EQ(noisy[q], brute_force(engine, batch[q], k)) << q;
  }
}

}  // namespace
}  // namespace oms::hd
