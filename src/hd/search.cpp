#include "hd/search.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace oms::hd {

namespace {

SearchHit make_hit(std::size_t index, std::size_t ham,
                   std::size_t dim) noexcept {
  const auto dot =
      static_cast<std::int64_t>(dim) - 2 * static_cast<std::int64_t>(ham);
  return SearchHit{index, dot,
                   1.0 - static_cast<double>(ham) / static_cast<double>(dim)};
}

/// Throws unless `query` has the library's dimension: the sweeps read
/// word_count() words of every query and scale its dot by the query's own
/// size, so a shorter query would be read past its end and a longer one
/// scored on a prefix.
void check_query_dim(const util::BitVec& query, const RefView& references) {
  if (query.size() != references.dim()) {
    throw std::invalid_argument(
        "hd search: query dimension " + std::to_string(query.size()) +
        " differs from the library dimension " +
        std::to_string(references.dim()));
  }
}

/// Inserts the candidates at global indices base, base + 1, ... with
/// Hamming distances dist[0..n) into `hits`. Candidates arrive in
/// ascending index order, so once the list is full a candidate can enter
/// only with dot = dim - 2 * ham strictly above the k-th best dot — the
/// insert_top_k rule, decided on integers before any hit is built.
void insert_distances(const std::uint32_t* dist, std::size_t n,
                      std::size_t base, std::size_t dim, std::size_t k,
                      std::vector<SearchHit>& hits) {
  const auto idim = static_cast<std::int64_t>(dim);
  for (std::size_t j = 0; j < n; ++j) {
    if (hits.size() == k &&
        2 * static_cast<std::int64_t>(dist[j]) >= idim - hits.back().dot) {
      continue;
    }
    insert_top_k(hits, make_hit(base + j, dist[j], dim), k);
  }
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

/// Chunked sweep of one query (a group of one) over extent rows
/// [lfirst, llast), inserting hits with *global* indices — the core of the
/// per-query RefView search (no allocation beyond the caller's scratch).
void sweep_extent_into_top_k(kernels::Tier tier, const std::uint64_t* qwords,
                             std::size_t dim, std::size_t word_count,
                             const RefExtent& ext, std::size_t lfirst,
                             std::size_t llast, std::size_t k,
                             std::vector<SearchHit>& hits,
                             DistanceBuffer& scratch) {
  const std::size_t chunk = kernels::sweep_chunk_rows(ext.stride);
  const std::size_t rows = std::min(chunk, llast - lfirst);
  std::uint32_t* dist = scratch.ensure(rows);
  for (std::size_t c0 = lfirst; c0 < llast; c0 += chunk) {
    const std::size_t c1 = std::min(llast, c0 + chunk);
    kernels::hamming_sweep_tier(tier, {&qwords, 1}, ext, word_count, c0, c1,
                                dist, rows);
    insert_distances(dist, c1 - c0, ext.base + c0, dim, k, hits);
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
  if (!references.valid()) return hits;
  check_query_dim(query, references);
  last = std::min(last, references.count());
  if (k == 0 || first >= last) return hits;

  const kernels::Tier tier = kernels::active_tier();
  const std::uint64_t* qwords = query.words().data();
  const std::size_t dim = references.dim();
  const std::size_t wc = references.word_count();
  DistanceBuffer scratch;
  references.for_each_extent(
      first, last,
      [&](const RefExtent& ext, std::size_t lfirst, std::size_t llast) {
        sweep_extent_into_top_k(tier, qwords, dim, wc, ext, lfirst, llast, k,
                                hits, scratch);
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

}  // namespace

std::vector<std::vector<SearchHit>> top_k_search_batch(
    std::span<const BatchQuery> queries, const RefView& references,
    std::size_t k) {
  std::vector<std::vector<SearchHit>> out(queries.size());
  if (queries.empty() || !references.valid()) return out;
  for (const BatchQuery& q : queries) check_query_dim(*q.hv, references);
  if (k == 0) return out;

  const auto clipped = clip_queries(queries, references.count());
  const kernels::Tier tier = kernels::active_tier();
  const std::size_t dim = references.dim();
  const std::size_t wc = references.word_count();
  DistanceBuffer scratch;

  for_each_query_segment(
      clipped, [&](std::size_t lo, std::size_t hi,
                   std::span<const std::size_t> active) {
        // Decompose the segment into its overlapping extents, then chunk
        // each extent so one run of reference rows stays resident while
        // every active query is scored against it — the cache-level
        // analogue of the crossbar's program-once-serve-the-block phase.
        // Within a chunk the active queries go kSweepGroup at a time
        // through the register-tiled sweep, so each row load serves a
        // whole group. Extents ascend and chunks ascend within them, so
        // every query still sees its candidates in ascending global order
        // (the insert_top_k tie-break contract).
        references.for_each_extent(
            lo, hi,
            [&](const RefExtent& ext, std::size_t lfirst,
                std::size_t llast) {
              const std::size_t chunk = kernels::sweep_chunk_rows(ext.stride);
              const std::size_t rows = std::min(chunk, llast - lfirst);
              std::uint32_t* dist = scratch.ensure(kernels::kSweepGroup * rows);
              for (std::size_t c0 = lfirst; c0 < llast; c0 += chunk) {
                const std::size_t c1 = std::min(llast, c0 + chunk);
                for (std::size_t g0 = 0; g0 < active.size();
                     g0 += kernels::kSweepGroup) {
                  const std::size_t n =
                      std::min(kernels::kSweepGroup, active.size() - g0);
                  const std::uint64_t* group[kernels::kSweepGroup];
                  for (std::size_t g = 0; g < n; ++g) {
                    group[g] = clipped[active[g0 + g]].hv->words().data();
                  }
                  kernels::hamming_sweep_tier(tier, {group, n}, ext, wc, c0,
                                              c1, dist, rows);
                  for (std::size_t g = 0; g < n; ++g) {
                    insert_distances(dist + g * rows, c1 - c0, ext.base + c0,
                                     dim, k, out[active[g0 + g]]);
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
