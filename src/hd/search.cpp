#include "hd/search.hpp"

#include <algorithm>

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

}  // namespace oms::hd
