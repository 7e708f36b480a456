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
// sweep here takes. Sweeps are cache-blocked per extent, so a mapped
// monolithic index::LibraryIndex (one extent), a multi-segment
// index::SegmentedLibrary (one extent per run of same-segment rows) and
// in-process encodings (RefView::from_span) all go through the same
// kernel. The span top_k_search and best_match are the scalar reference:
// a plain per-BitVec loop the test suites compare every sweep against.
//
// ANN candidate prefilter (opt-in, off by default): before the exact sweep
// of a precursor window, a cheap sampled-word Hamming sketch ranks the
// window's candidates and only the best keep_fraction are exactly scored —
// scan *less* instead of just scanning faster. Approximate by design, so
// it never runs unless explicitly enabled (PrefilterConfig / the backend's
// BackendOptions::prefilter); PrefilterCounters reports the scanned
// fraction and a deterministic audit measures recall in-band.
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
/// reuse it per query.
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
/// it; the kernel tier is resolved once per call.
[[nodiscard]] std::vector<std::vector<SearchHit>> top_k_search_batch(
    std::span<const BatchQuery> queries, const RefView& references,
    std::size_t k);

/// Opt-in ANN-style candidate prefilter ahead of the exact sweep. With
/// `enabled` false (the default) the prefiltered entry points are exactly
/// the exact search — recall 1.0 by construction.
struct PrefilterConfig {
  bool enabled = false;
  /// Fraction of each window's candidates shortlisted for the exact sweep
  /// (>= 1.0 keeps everything, making the search exact again).
  double keep_fraction = 0.125;
  /// Windows at or below this candidate count are always swept exactly —
  /// pruning tiny windows saves nothing and risks the top-k itself.
  std::size_t min_keep = 64;
  /// Windows with fewer candidates than this are swept exactly even when
  /// the prefilter is enabled: the per-query sketch pass costs more than
  /// the batched SIMD sweep saves on small windows, so pruning them is a
  /// slowdown AND a recall risk. 512 is coherent with the defaults above
  /// (min_keep 64 = 0.125 × 512 — below it the shortlist could not shrink
  /// anyway). Bypassed windows are reported via
  /// PrefilterCounters::windows_bypassed so scanned fractions stay honest.
  std::size_t min_window = 512;
  /// Words of each hypervector sampled (evenly spaced) into the sketch
  /// score. 16 words = 1024 bits: a 1/8 sketch at the paper's D = 8k.
  std::size_t sketch_words = 16;
  /// Fraction of queries (chosen deterministically by stream key) whose
  /// window is *also* swept exactly to measure recall in-band. Audited
  /// queries still return the prefiltered result, so results never depend
  /// on the audit rate; only the counters do.
  double audit_fraction = 0.0;
};

/// Work and recall accounting for the prefiltered paths. Plain counters —
/// callers running concurrently aggregate per-call instances.
struct PrefilterCounters {
  std::uint64_t window_candidates = 0;  ///< Candidates inside all windows.
  std::uint64_t scanned = 0;            ///< Exactly swept after pruning.
  /// Non-empty windows where the sketch pass ran and pruned candidates.
  std::uint64_t windows_pruned = 0;
  /// Non-empty windows swept exactly instead: prefilter disabled, window
  /// under min_window, or shortlist no smaller than the window. Their
  /// candidates count as scanned, so scanned fractions stay honest.
  std::uint64_t windows_bypassed = 0;
  std::uint64_t audited_queries = 0;
  std::uint64_t audit_matched = 0;   ///< |prefiltered top-k ∩ exact top-k|.
  std::uint64_t audit_expected = 0;  ///< Σ |exact top-k| over audits.

  void accumulate(const PrefilterCounters& other) noexcept {
    window_candidates += other.window_candidates;
    scanned += other.scanned;
    windows_pruned += other.windows_pruned;
    windows_bypassed += other.windows_bypassed;
    audited_queries += other.audited_queries;
    audit_matched += other.audit_matched;
    audit_expected += other.audit_expected;
  }
};

/// Prefiltered single-query search: sketch-rank the window, exactly sweep
/// the shortlist. Deterministic (sketch ties break by lower index) but
/// approximate when pruning is active; bit-identical to top_k_search when
/// cfg.enabled is false or the shortlist covers the window. `stream` keys
/// the audit choice only — never the result. The sketch pass and the
/// shortlist sweep both visit rows in ascending global order, walking the
/// view's extents with an amortized-O(1) cursor.
[[nodiscard]] std::vector<SearchHit> top_k_search_prefiltered(
    const util::BitVec& query, const RefView& references, std::size_t first,
    std::size_t last, std::size_t k, const PrefilterConfig& cfg,
    std::uint64_t stream, PrefilterCounters* counters = nullptr);

/// Batched prefiltered search: per-query pruning (candidate shortlists are
/// scattered, so there is no shared reference-major segment sweep to
/// amortize). result[i] is bit-identical to top_k_search_prefiltered on
/// queries[i].
[[nodiscard]] std::vector<std::vector<SearchHit>> top_k_search_batch_prefiltered(
    std::span<const BatchQuery> queries, const RefView& references,
    std::size_t k, const PrefilterConfig& cfg,
    PrefilterCounters* counters = nullptr);

}  // namespace oms::hd
