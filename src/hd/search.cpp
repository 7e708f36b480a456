#include "hd/search.hpp"

#include <algorithm>
#include <utility>

#include "util/thread_pool.hpp"

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

/// The union of the queries' windows clipped to [0, count), as ascending
/// disjoint [first, last) runs.
std::vector<std::pair<std::size_t, std::size_t>> window_union(
    std::span<const BatchQuery> queries, std::size_t count) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  runs.reserve(queries.size());
  for (const BatchQuery& q : queries) {
    const std::size_t last = std::min(q.last, count);
    if (q.first < last) runs.emplace_back(q.first, last);
  }
  std::sort(runs.begin(), runs.end());
  std::size_t merged = 0;
  for (const auto& run : runs) {
    if (merged > 0 && run.first <= runs[merged - 1].second) {
      runs[merged - 1].second = std::max(runs[merged - 1].second, run.second);
    } else {
      runs[merged++] = run;
    }
  }
  runs.resize(merged);
  return runs;
}

std::size_t covered_rows(
    std::span<const std::pair<std::size_t, std::size_t>> runs) {
  std::size_t rows = 0;
  for (const auto& [first, last] : runs) rows += last - first;
  return rows;
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

std::size_t slice_count(std::span<const BatchQuery> queries,
                        const RefView& refs) {
  if (!refs.valid()) return 1;
  const std::size_t min_slice =
      kMinSliceChunks * kernels::sweep_chunk_rows(refs.word_count());
  const std::size_t rows = covered_rows(window_union(queries, refs.count()));
  if (rows < 2 * min_slice) return 1;
  return std::min(util::ThreadPool::global().thread_count(),
                  rows / min_slice);
}

std::vector<std::size_t> slice_bounds(std::span<const BatchQuery> queries,
                                      const RefView& refs,
                                      std::size_t slices) {
  std::vector<std::size_t> cuts;
  const auto runs = window_union(queries, refs.count());
  if (runs.empty()) return cuts;
  const std::size_t rows = covered_rows(runs);
  slices = std::max<std::size_t>(1, slices);
  const std::size_t chunk = kernels::sweep_chunk_rows(refs.word_count());
  const bool align = rows / slices >= chunk;
  const std::size_t end = runs.back().second;

  cuts.push_back(runs.front().first);
  std::size_t run = 0;
  std::size_t before = 0;  // covered rows in runs[0..run)
  for (std::size_t j = 1; j < slices; ++j) {
    const std::size_t rank = rows * j / slices;
    while (before + (runs[run].second - runs[run].first) <= rank) {
      before += runs[run].second - runs[run].first;
      ++run;
    }
    std::size_t cut = runs[run].first + (rank - before);
    if (align) cut = (cut + chunk / 2) / chunk * chunk;
    if (cut > cuts.back() && cut < end) cuts.push_back(cut);
  }
  cuts.push_back(end);
  return cuts;
}

std::vector<std::vector<SearchHit>> sweep_sliced(
    std::span<const BatchQuery> queries, const RefView& refs, std::size_t k,
    std::size_t slices, const SliceSweep& sweep) {
  std::vector<std::vector<SearchHit>> out(queries.size());
  const std::vector<std::size_t> cuts =
      slices > 1 && k > 0 ? slice_bounds(queries, refs, slices)
                          : std::vector<std::size_t>{};
  if (cuts.size() < 3) {
    sweep(queries, out);
    return out;
  }

  const std::size_t n = cuts.size() - 1;
  std::vector<std::vector<std::vector<SearchHit>>> parts(n);
  util::ThreadPool::global().parallel_tasks(n, [&](std::size_t s) {
    std::vector<BatchQuery> slice(queries.begin(), queries.end());
    for (BatchQuery& q : slice) {
      q.last = std::min(q.last, cuts[s + 1]);
      q.first = std::min(std::max(q.first, cuts[s]), q.last);
    }
    parts[s].resize(queries.size());
    sweep(slice, parts[s]);
  });

  for (std::size_t slot = 0; slot < queries.size(); ++slot) {
    std::vector<SearchHit>& hits = out[slot];
    hits = std::move(parts[0][slot]);
    for (std::size_t s = 1; s < n; ++s) {
      for (const SearchHit& hit : parts[s][slot]) insert_top_k(hits, hit, k);
    }
  }
  return out;
}

std::vector<std::vector<SearchHit>> top_k_search_batch(
    std::span<const BatchQuery> queries, const RefView& references,
    std::size_t k) {
  const std::size_t dim = references.dim();
  return sweep_sliced(
      queries, references, k, slice_count(queries, references),
      [&](std::span<const BatchQuery> slice,
          std::vector<std::vector<SearchHit>>& hits) {
        sweep_batch(
            slice, references, k, "hd search", [](auto&&...) {},
            [&](std::size_t slot, const std::uint32_t* dist, std::size_t n,
                std::size_t base) {
              insert_distances(dist, n, base, dim, k, hits[slot]);
            });
      });
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
