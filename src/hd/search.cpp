#include "hd/search.hpp"

#include <algorithm>
#include <utility>

namespace oms::hd {

namespace {

SearchHit make_hit(std::size_t index, std::size_t ham,
                   std::size_t dim) noexcept {
  const auto dot =
      static_cast<std::int64_t>(dim) - 2 * static_cast<std::int64_t>(ham);
  return SearchHit{index, dot,
                   1.0 - static_cast<double>(ham) / static_cast<double>(dim)};
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
  const BatchQuery q{&query, first, last, 0};
  return std::move(top_k_search_batch({&q, 1}, references, k).front());
}

std::vector<std::vector<SearchHit>> top_k_search_batch(
    std::span<const BatchQuery> queries, const RefView& references,
    std::size_t k) {
  std::vector<std::vector<SearchHit>> out(queries.size());
  const std::size_t dim = references.dim();
  sweep_batch(
      queries, references, k, "hd search",
      [](auto&&...) {},
      [&](std::size_t slot, const std::uint32_t* dist, std::size_t n,
          std::size_t base) {
        insert_distances(dist, n, base, dim, k, out[slot]);
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
