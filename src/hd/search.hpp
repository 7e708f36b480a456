// Exact Hamming-similarity search over a set of encoded reference
// hypervectors (paper §3.3). Candidates are restricted to an index range —
// the precursor-mass window computed by the spectral library — which is
// what turns the same kernel into either a standard search (narrow window)
// or an open modification search (wide window).
//
// Besides the exact searches this header carries the *query block*
// vocabulary shared by every batched search path: BatchQuery (one request
// in a block), insert_top_k (the top-k maintenance every kernel uses, so
// tie-breaking is identical everywhere), for_each_query_segment (the
// reference-major segmentation that lets one pass over resident
// references serve a whole block) and sweep_batch, the one batched-sweep
// driver built on them. sweep_batch owns the dimension check, the range
// clipping, the walk (segments → RefView extents → cache-sized chunks →
// kernels::kSweepGroup query groups through the register-tiled
// kernels::hamming_sweep_tier) and its distance scratch; a caller supplies
// only what it does with a chunk's distances. top_k_search_batch passes
// the exact top-k insert, accel::ImcSearchEngine::search_many its
// noise-pruned scoring and phase count. Every single-query search is a
// one-query batch: top_k_search over a RefView here, top_k_keyed and
// ShardedSearch::top_k on the RRAM-modelled side.
//
// Kernel/dispatch seam: the word-level XOR-popcount work underneath lives
// in hd/kernels.hpp — runtime-dispatched scalar / AVX2 / AVX-512-VPOPCNTDQ
// tiers, all bit-identical, plus the piecewise RefView (an ordered list of
// contiguous extents with global indices), the one reference layout every
// sweep here takes. Sweeps are cache-blocked per extent, so a mapped
// monolithic index::LibraryIndex (one extent), a multi-segment
// index::SegmentedLibrary (one extent per run of same-segment rows) and
// in-process encodings (RefView::from_span) all go through the same
// kernel. The span top_k_search and best_match are the scalar reference:
// a plain per-BitVec loop the test suites compare every sweep against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "hd/kernels.hpp"
#include "util/bitvec.hpp"

namespace oms::hd {

/// One search hit: index into the reference set plus the similarity score.
/// A default-constructed hit is invalid (no match); check valid() before
/// using reference_index.
struct SearchHit {
  /// Sentinel reference_index of a no-match hit.
  static constexpr std::size_t kNoMatch = static_cast<std::size_t>(-1);

  std::size_t reference_index = kNoMatch;
  std::int64_t dot = 0;        ///< Bipolar dot product in [-D, D].
  double similarity = 0.0;     ///< Hamming similarity in [0, 1].

  /// True when this hit refers to an actual reference (best_match over an
  /// empty candidate range yields an invalid hit).
  [[nodiscard]] constexpr bool valid() const noexcept {
    return reference_index != kNoMatch;
  }

  [[nodiscard]] bool operator==(const SearchHit&) const = default;
};

/// Scores `query` against references[first..last) and returns up to `k`
/// best hits sorted by decreasing similarity (ties broken by lower index,
/// so results are deterministic). The scalar reference oracle: one
/// dispatched pair-popcount per BitVec, no layout detection — what the
/// RefView sweeps are tested against.
[[nodiscard]] std::vector<SearchHit> top_k_search(
    const util::BitVec& query, std::span<const util::BitVec> references,
    std::size_t first, std::size_t last, std::size_t k);

/// Same search over a piecewise view (bit-identical results): a one-query
/// top_k_search_batch, so it sweeps per extent with global reference
/// indices, visiting candidates in ascending global order. Callers holding
/// a library build the view once (RefView::from_span, or the library's
/// ref_view()) and reuse it per query. Throws std::invalid_argument,
/// naming both, when the query's dimension is not the view's.
[[nodiscard]] std::vector<SearchHit> top_k_search(const util::BitVec& query,
                                                  const RefView& references,
                                                  std::size_t first,
                                                  std::size_t last,
                                                  std::size_t k);

/// Convenience single-best search; returns an invalid hit (!hit.valid())
/// if the candidate range is empty.
[[nodiscard]] SearchHit best_match(const util::BitVec& query,
                                   std::span<const util::BitVec> references,
                                   std::size_t first, std::size_t last);

/// One request of a query block: score `*hv` against references
/// [first, last) under noise stream `stream` (ignored by exact kernels;
/// conventionally the query spectrum id for simulated hardware).
struct BatchQuery {
  const util::BitVec* hv = nullptr;
  std::size_t first = 0;
  std::size_t last = 0;
  std::uint64_t stream = 0;
};

/// Inserts `hit` into `hits` keeping it sorted by (dot desc, index asc)
/// with at most `k` entries. Every top-k loop in the codebase uses this,
/// so the equal-score-orders-by-lower-index contract cannot drift: callers
/// visit references in ascending index order and equal-dot hits land after
/// their earlier-indexed peers.
inline void insert_top_k(std::vector<SearchHit>& hits, const SearchHit& hit,
                         std::size_t k) {
  if (k == 0) return;
  if (hits.size() == k && hit.dot <= hits.back().dot) return;
  const auto pos = std::upper_bound(
      hits.begin(), hits.end(), hit,
      [](const SearchHit& a, const SearchHit& b) { return a.dot > b.dot; });
  hits.insert(pos, hit);
  if (hits.size() > k) hits.pop_back();
}

/// Reference-major sweep over a query block: partitions the union of the
/// block's candidate ranges into maximal segments over which the set of
/// covering queries is constant, and calls
///
///   segment(seg_first, seg_last, active)
///
/// for each, where `active` lists the block slots whose [first, last)
/// contains the whole segment, ascending. Iterating references in the
/// outer loop and the active queries in the inner loop means each resident
/// reference (a programmed crossbar tile in hardware, a cache-resident
/// bit vector here) serves the entire block before the sweep advances —
/// the batching the paper's accelerator amortizes its cost with. Every
/// query still sees its candidates in ascending reference order, so
/// per-query results are bit-identical to an independent scan.
template <typename Fn>
void for_each_query_segment(std::span<const BatchQuery> queries,
                            Fn&& segment) {
  std::vector<std::size_t> bounds;
  bounds.reserve(queries.size() * 2);
  for (const BatchQuery& q : queries) {
    if (q.first < q.last) {
      bounds.push_back(q.first);
      bounds.push_back(q.last);
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  std::vector<std::size_t> active;
  for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
    const std::size_t lo = bounds[b];
    const std::size_t hi = bounds[b + 1];
    active.clear();
    for (std::size_t slot = 0; slot < queries.size(); ++slot) {
      if (queries[slot].first <= lo && queries[slot].last >= hi) {
        active.push_back(slot);
      }
    }
    if (!active.empty()) {
      segment(lo, hi, std::span<const std::size_t>(active));
    }
  }
}

/// The one batched-sweep driver behind every RefView search, exact and
/// RRAM-modelled. Returns at once when `queries` is empty or `refs` is
/// invalid. Otherwise it throws std::invalid_argument, naming `who` and
/// both dimensions, when any query's dimension is not the view's — before
/// sweeping, and for an empty range too. With k > 0 it clips every range
/// to [0, refs.count()) and walks the block reference-major:
///
///   on_segment(lo, hi, active)          once per for_each_query_segment
///                                       segment;
///   on_distances(slot, dist, n, base)   per active query and chunk, where
///                                       dist[0..n) are the Hamming distances
///                                       of queries[slot] to the global rows
///                                       base, base + 1, ...
///
/// Each segment is split into its RefView extents and each extent into
/// kernels::sweep_chunk_rows chunks, so a run of reference rows stays
/// cache-resident while every active query is scored against it — the
/// cache-level analogue of the crossbar's program-once-serve-the-block
/// phase. Within a chunk the active queries go kernels::kSweepGroup at a
/// time through the register-tiled kernels::hamming_sweep_tier, on the
/// tier resolved once per call. Extents and chunks ascend, so every query
/// sees its candidates in ascending global order (the insert_top_k
/// tie-break contract) and results do not depend on block composition.
template <typename OnSegment, typename OnDistances>
void sweep_batch(std::span<const BatchQuery> queries, const RefView& refs,
                 std::size_t k, const char* who, OnSegment&& on_segment,
                 OnDistances&& on_distances) {
  if (queries.empty() || !refs.valid()) return;
  // The sweep reads word_count() words of every query and scores its dot
  // against the library's dimension, so a shorter query would be read
  // past its end and a longer one scored on a prefix.
  for (const BatchQuery& q : queries) {
    if (q.hv->size() != refs.dim()) {
      throw std::invalid_argument(
          std::string(who) + ": query dimension " +
          std::to_string(q.hv->size()) +
          " differs from the library dimension " + std::to_string(refs.dim()));
    }
  }
  if (k == 0) return;

  std::vector<BatchQuery> clipped(queries.begin(), queries.end());
  for (BatchQuery& q : clipped) {
    q.last = std::min(q.last, refs.count());
    q.first = std::min(q.first, q.last);
  }
  constexpr std::size_t kGroup = kernels::kSweepGroup;
  const kernels::Tier tier = kernels::active_tier();
  const std::size_t wc = refs.word_count();
  std::vector<std::uint32_t> dist;
  for_each_query_segment(clipped, [&](std::size_t lo, std::size_t hi,
                                      std::span<const std::size_t> active) {
    on_segment(lo, hi, active);
    refs.for_each_extent(lo, hi, [&](const RefExtent& ext, std::size_t lfirst,
                                     std::size_t llast) {
      const std::size_t chunk = kernels::sweep_chunk_rows(ext.stride);
      const std::size_t rows = std::min(chunk, llast - lfirst);
      if (dist.size() < kGroup * rows) dist.resize(kGroup * rows);
      for (std::size_t c0 = lfirst; c0 < llast; c0 += chunk) {
        const std::size_t c1 = std::min(llast, c0 + chunk);
        for (std::size_t g0 = 0; g0 < active.size(); g0 += kGroup) {
          const std::size_t n = std::min(kGroup, active.size() - g0);
          const std::uint64_t* group[kGroup];
          for (std::size_t g = 0; g < n; ++g) {
            group[g] = clipped[active[g0 + g]].hv->words().data();
          }
          kernels::hamming_sweep_tier(tier, {group, n}, ext, wc, c0, c1,
                                      dist.data(), rows);
          for (std::size_t g = 0; g < n; ++g) {
            on_distances(active[g0 + g], dist.data() + g * rows, c1 - c0,
                         ext.base + c0);
          }
        }
      }
    });
  });
}

/// Batched exact kernel: searches a whole query block in one
/// reference-major sweep_batch. result[i] is bit-identical to
/// top_k_search(*queries[i].hv, references, queries[i].first,
/// queries[i].last, k). Throws std::invalid_argument when any query's
/// dimension is not the view's, before sweeping.
[[nodiscard]] std::vector<std::vector<SearchHit>> top_k_search_batch(
    std::span<const BatchQuery> queries, const RefView& references,
    std::size_t k);

}  // namespace oms::hd
