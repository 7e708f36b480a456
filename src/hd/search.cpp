#include "hd/search.hpp"

#include <algorithm>
#include <utility>

#include "util/rng.hpp"

namespace oms::hd {

namespace {

SearchHit make_hit(std::size_t index, std::size_t ham,
                   std::size_t dim) noexcept {
  const auto dot =
      static_cast<std::int64_t>(dim) - 2 * static_cast<std::int64_t>(ham);
  return SearchHit{index, dot,
                   1.0 - static_cast<double>(ham) / static_cast<double>(dim)};
}

/// Scratch distance buffer for the chunked sweeps, reused across chunks.
class DistanceBuffer {
 public:
  std::uint32_t* ensure(std::size_t n) {
    if (buf_.size() < n) buf_.resize(n);
    return buf_.data();
  }

 private:
  std::vector<std::uint32_t> buf_;
};

/// Chunked sweep of one query over extent rows [lfirst, llast), inserting
/// hits with *global* indices — the core of the per-query RefView search
/// (no allocation beyond the caller's scratch). `word_count` sizes the word
/// sweep, `query_dim` the dot/similarity scale.
void sweep_extent_into_top_k(kernels::Tier tier, const std::uint64_t* qwords,
                             std::size_t query_dim, std::size_t word_count,
                             const RefExtent& ext, std::size_t lfirst,
                             std::size_t llast, std::size_t k,
                             std::vector<SearchHit>& hits,
                             DistanceBuffer& scratch) {
  const std::size_t chunk = kernels::sweep_chunk_rows(ext.stride);
  std::uint32_t* dist = scratch.ensure(std::min(chunk, llast - lfirst));
  for (std::size_t c0 = lfirst; c0 < llast; c0 += chunk) {
    const std::size_t c1 = std::min(llast, c0 + chunk);
    kernels::hamming_sweep_tier(tier, qwords, ext, word_count, c0, c1, dist);
    for (std::size_t j = 0; j < c1 - c0; ++j) {
      insert_top_k(hits, make_hit(ext.base + c0 + j, dist[j], query_dim), k);
    }
  }
}

}  // namespace

std::vector<SearchHit> top_k_search(const util::BitVec& query,
                                    std::span<const util::BitVec> references,
                                    std::size_t first, std::size_t last,
                                    std::size_t k) {
  std::vector<SearchHit> hits;
  if (k == 0 || first >= last) return hits;
  last = std::min(last, references.size());

  const std::size_t dim = query.size();
  const std::uint64_t* qwords = query.words().data();
  const std::size_t nwords = query.word_count();

  // Keep a small sorted buffer of the k best; k is tiny (≤ 16) in practice.
  for (std::size_t i = first; i < last; ++i) {
    const std::size_t ham = kernels::xor_popcount(
        qwords, references[i].words().data(), nwords);
    insert_top_k(hits, make_hit(i, ham, dim), k);
  }
  return hits;
}

std::vector<SearchHit> top_k_search(const util::BitVec& query,
                                    const RefView& references,
                                    std::size_t first, std::size_t last,
                                    std::size_t k) {
  std::vector<SearchHit> hits;
  if (k == 0 || !references.valid()) return hits;
  last = std::min(last, references.count());
  if (first >= last) return hits;

  const kernels::Tier tier = kernels::active_tier();
  const std::uint64_t* qwords = query.words().data();
  const std::size_t query_dim = query.size();
  const std::size_t wc = references.word_count();
  DistanceBuffer scratch;
  references.for_each_extent(
      first, last,
      [&](const RefExtent& ext, std::size_t lfirst, std::size_t llast) {
        sweep_extent_into_top_k(tier, qwords, query_dim, wc, ext, lfirst,
                                llast, k, hits, scratch);
      });
  return hits;
}

namespace {

/// Clips every query range to [0, n_refs) once so the sweeps only see
/// valid indices.
std::vector<BatchQuery> clip_queries(std::span<const BatchQuery> queries,
                                     std::size_t n_refs) {
  std::vector<BatchQuery> clipped(queries.begin(), queries.end());
  for (BatchQuery& q : clipped) {
    q.last = std::min(q.last, n_refs);
    q.first = std::min(q.first, q.last);
  }
  return clipped;
}

/// Per-slot query words/size, hoisted out of the reference loops (the
/// inner loop must not re-derive them per reference × slot).
struct SlotQueries {
  std::vector<const std::uint64_t*> words;
  std::vector<std::size_t> dims;

  explicit SlotQueries(std::span<const BatchQuery> queries) {
    words.reserve(queries.size());
    dims.reserve(queries.size());
    for (const BatchQuery& q : queries) {
      words.push_back(q.hv->words().data());
      dims.push_back(q.hv->size());
    }
  }
};

}  // namespace

std::vector<std::vector<SearchHit>> top_k_search_batch(
    std::span<const BatchQuery> queries, const RefView& references,
    std::size_t k) {
  std::vector<std::vector<SearchHit>> out(queries.size());
  if (k == 0 || queries.empty() || !references.valid()) return out;

  const auto clipped = clip_queries(queries, references.count());
  const SlotQueries slots(clipped);
  const kernels::Tier tier = kernels::active_tier();
  const std::size_t wc = references.word_count();
  DistanceBuffer scratch;

  for_each_query_segment(
      clipped, [&](std::size_t lo, std::size_t hi,
                   std::span<const std::size_t> active) {
        // Decompose the segment into its overlapping extents, then chunk
        // each extent so one run of reference rows stays resident while
        // every active query is scored against it — the cache-level
        // analogue of the crossbar's program-once-serve-the-block phase.
        // Extents ascend and chunks ascend within them, so every query
        // still sees its candidates in ascending global order (the
        // insert_top_k tie-break contract).
        references.for_each_extent(
            lo, hi,
            [&](const RefExtent& ext, std::size_t lfirst,
                std::size_t llast) {
              const std::size_t chunk = kernels::sweep_chunk_rows(ext.stride);
              std::uint32_t* dist =
                  scratch.ensure(std::min(chunk, llast - lfirst));
              for (std::size_t c0 = lfirst; c0 < llast; c0 += chunk) {
                const std::size_t c1 = std::min(llast, c0 + chunk);
                for (const std::size_t slot : active) {
                  kernels::hamming_sweep_tier(tier, slots.words[slot], ext,
                                              wc, c0, c1, dist);
                  const std::size_t dim = slots.dims[slot];
                  for (std::size_t j = 0; j < c1 - c0; ++j) {
                    insert_top_k(out[slot],
                                 make_hit(ext.base + c0 + j, dist[j], dim), k);
                  }
                }
              }
            });
      });
  return out;
}

SearchHit best_match(const util::BitVec& query,
                     std::span<const util::BitVec> references,
                     std::size_t first, std::size_t last) {
  const auto hits = top_k_search(query, references, first, last, 1);
  if (hits.empty()) {
    return SearchHit{};  // invalid: no candidate in range
  }
  return hits.front();
}

namespace {

/// Row access over a piecewise view for the prefilter passes. Both (the
/// sketch scan and the shortlist sweep) visit rows in ascending global
/// order, so the extent cursor advances amortized O(1) instead of
/// binary-searching per row.
struct RowSource {
  const RefView& view;
  std::size_t cursor = 0;  ///< Extent hint for ascending access.

  [[nodiscard]] const std::uint64_t* row(std::size_t i) noexcept {
    const std::span<const RefExtent> extents = view.extents();
    if (i < extents[cursor].base) cursor = view.extent_index(i);
    while (i >= extents[cursor].base + extents[cursor].rows) ++cursor;
    const RefExtent& e = extents[cursor];
    return e.words + (i - e.base) * e.stride;
  }
};

/// Deterministic audit pick: keyed on the query's stream id only, so
/// results and counters are independent of scheduling and block shape.
bool audit_this_query(const PrefilterConfig& cfg,
                      std::uint64_t stream) noexcept {
  if (cfg.audit_fraction <= 0.0) return false;
  if (cfg.audit_fraction >= 1.0) return true;
  constexpr std::uint64_t kScale = 1u << 20;
  const std::uint64_t level =
      util::hash_combine(0xA0D17'F117E5ULL, stream) % kScale;
  return static_cast<double>(level) <
         cfg.audit_fraction * static_cast<double>(kScale);
}

}  // namespace

std::vector<SearchHit> top_k_search_prefiltered(
    const util::BitVec& query, const RefView& references, std::size_t first,
    std::size_t last, std::size_t k, const PrefilterConfig& cfg,
    std::uint64_t stream, PrefilterCounters* counters) {
  last = std::min(last, references.count());
  first = std::min(first, last);
  if (k == 0 || first >= last) return {};

  RowSource rows{references};
  const std::size_t window = last - first;
  const std::size_t keep_target = std::max<std::size_t>(
      cfg.min_keep,
      static_cast<std::size_t>(cfg.keep_fraction * static_cast<double>(window)));

  if (!cfg.enabled || window < cfg.min_window || keep_target >= window) {
    // Pruning off, the window too small to be worth a sketch pass, or
    // nothing to prune: the exact sweep, with the full window accounted
    // as scanned — recall is 1.0 by construction.
    if (counters != nullptr) {
      counters->window_candidates += window;
      counters->scanned += window;
      counters->windows_bypassed += 1;
    }
    return top_k_search(query, references, first, last, k);
  }

  // Sketch pass: sampled-word Hamming over `sketch_words` evenly spaced
  // words of each candidate. Distinct indices because sketch_words <=
  // word_count; strictly increasing so the tie-break below is on the full
  // (sketch score, candidate index) key.
  const std::size_t nwords = query.word_count();
  const std::size_t n_sample =
      std::clamp<std::size_t>(cfg.sketch_words, 1, nwords);
  std::vector<std::uint32_t> sample(n_sample);
  for (std::size_t s = 0; s < n_sample; ++s) {
    sample[s] = static_cast<std::uint32_t>((s * nwords) / n_sample);
  }

  const std::uint64_t* qwords = query.words().data();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> scored(window);
  for (std::size_t i = first; i < last; ++i) {
    const std::uint64_t* rwords = rows.row(i);
    std::uint32_t sketch = 0;
    for (const std::uint32_t w : sample) {
      sketch += static_cast<std::uint32_t>(
          std::popcount(qwords[w] ^ rwords[w]));
    }
    scored[i - first] = {sketch, static_cast<std::uint32_t>(i - first)};
  }

  // Shortlist the keep_target sketch-nearest candidates; ties broken by
  // lower index so the shortlist (hence the result) is deterministic.
  std::nth_element(scored.begin(), scored.begin() + keep_target, scored.end());
  scored.resize(keep_target);
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });

  // Exact sweep over the shortlist, ascending candidate index (the
  // insert_top_k tie-break contract).
  std::vector<SearchHit> hits;
  const std::size_t dim = query.size();
  for (const auto& [sketch, offset] : scored) {
    const std::size_t i = first + offset;
    const std::size_t ham = kernels::xor_popcount(qwords, rows.row(i), nwords);
    insert_top_k(hits, make_hit(i, ham, dim), k);
  }

  if (counters != nullptr) {
    counters->window_candidates += window;
    counters->scanned += keep_target;
    counters->windows_pruned += 1;
    if (audit_this_query(cfg, stream)) {
      // In-band recall measurement: sweep the full window exactly and
      // count how much of the true top-k the shortlist preserved. The
      // audited query still returns the prefiltered hits, so turning
      // auditing on can never change a PSM.
      const auto exact = top_k_search(query, references, first, last, k);
      counters->audited_queries += 1;
      counters->audit_expected += exact.size();
      for (const SearchHit& e : exact) {
        for (const SearchHit& h : hits) {
          if (h.reference_index == e.reference_index) {
            counters->audit_matched += 1;
            break;
          }
        }
      }
    }
  }
  return hits;
}

std::vector<std::vector<SearchHit>> top_k_search_batch_prefiltered(
    std::span<const BatchQuery> queries, const RefView& references,
    std::size_t k, const PrefilterConfig& cfg, PrefilterCounters* counters) {
  std::vector<std::vector<SearchHit>> out(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const BatchQuery& q = queries[i];
    out[i] = top_k_search_prefiltered(*q.hv, references, q.first, q.last, k,
                                      cfg, q.stream, counters);
  }
  return out;
}

}  // namespace oms::hd
