// Exact Hamming-similarity search over a set of encoded reference
// hypervectors (paper §3.3). Candidates are restricted to an index range —
// the precursor-mass window computed by the spectral library — which is
// what turns the same kernel into either a standard search (narrow window)
// or an open modification search (wide window).
//
// Besides the per-query kernels this header carries the *query block*
// vocabulary shared by every batched search path: BatchQuery (one request
// in a block), insert_top_k (the top-k maintenance every kernel uses, so
// tie-breaking is identical everywhere), for_each_query_segment (the
// reference-major sweep that lets one pass over resident references serve a
// whole block), and top_k_search_batch (the batched exact kernel built on
// them).
//
// Kernel/dispatch seam: the word-level XOR-popcount work underneath lives
// in hd/kernels.hpp — runtime-dispatched scalar / AVX2 / AVX-512-VPOPCNTDQ
// tiers, all bit-identical, plus the piecewise RefView (an ordered list of
// contiguous extents with global indices), the one reference layout every
// sweep here takes. Every sweep goes through the one register-tiled group
// primitive, kernels::hamming_sweep_tier: the batched kernel feeds it the
// active queries kernels::kSweepGroup at a time, so each reference row
// load scores a whole group, and the per-query kernel passes a group of
// one. Sweeps are cache-blocked per extent, so a mapped
// monolithic index::LibraryIndex (one extent), a multi-segment
// index::SegmentedLibrary (one extent per run of same-segment rows) and
// in-process encodings (RefView::from_span) all go through the same
// kernel. The span top_k_search and best_match are the scalar reference:
// a plain per-BitVec loop the test suites compare every sweep against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
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

/// Same search over a piecewise view (bit-identical results): the chunked
/// SIMD sweep runs per extent with global reference indices, visiting
/// candidates in ascending global order. Callers holding a library build
/// the view once (RefView::from_span, or the library's ref_view()) and
/// reuse it per query. Throws std::invalid_argument, naming both, when the
/// query's dimension is not the view's.
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

/// Batched exact kernel: searches a whole query block in one
/// reference-major sweep. result[i] is bit-identical to
/// top_k_search(*queries[i].hv, references, queries[i].first,
/// queries[i].last, k). The segment sweep runs per extent and is chunked
/// (kernels::sweep_chunk_rows) so a chunk of reference rows stays
/// cache-resident while every active query of the block is scored against
/// it, kernels::kSweepGroup queries per register-tiled sweep call; the
/// kernel tier is resolved once per call. Throws std::invalid_argument
/// when any query's dimension is not the view's, before sweeping.
[[nodiscard]] std::vector<std::vector<SearchHit>> top_k_search_batch(
    std::span<const BatchQuery> queries, const RefView& references,
    std::size_t k);

}  // namespace oms::hd
