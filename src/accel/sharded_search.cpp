#include "accel/sharded_search.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.hpp"

namespace oms::accel {

namespace {

/// Bounded k-way merge of per-shard top-k lists into `out`. Every input
/// list is already sorted by (dot desc, reference_index asc) and the lists
/// arrive in shard order, i.e. ascending disjoint global index ranges —
/// so the strictly-better comparison below keeps the "equal scores order
/// by lower reference index" contract (the earlier list wins ties).
/// O(S·k) with S intersecting shards, replacing the old
/// sort-the-concatenation O(S·k·log(S·k)).
void merge_top_k(std::span<const std::vector<hd::SearchHit>* const> lists,
                 std::size_t k, std::vector<hd::SearchHit>& out) {
  out.clear();
  if (lists.empty() || k == 0) return;
  if (lists.size() == 1) {
    const auto& only = *lists.front();
    out.assign(only.begin(), only.begin() +
                                 static_cast<std::ptrdiff_t>(
                                     std::min(k, only.size())));
    return;
  }
  std::vector<std::size_t> pos(lists.size(), 0);
  out.reserve(k);
  while (out.size() < k) {
    std::size_t best = lists.size();
    for (std::size_t l = 0; l < lists.size(); ++l) {
      if (pos[l] >= lists[l]->size()) continue;
      if (best == lists.size()) {
        best = l;
        continue;
      }
      const hd::SearchHit& a = (*lists[l])[pos[l]];
      const hd::SearchHit& b = (*lists[best])[pos[best]];
      if (a.dot > b.dot ||
          (a.dot == b.dot && a.reference_index < b.reference_index)) {
        best = l;
      }
    }
    if (best == lists.size()) break;  // every list exhausted
    out.push_back((*lists[best])[pos[best]++]);
  }
}

/// Gathers per-shard values and weights, then defers to the one
/// phase_weighted_mean implementation (the same function the aggregation
/// tests pin down).
template <typename Get>
double weighted_over_shards(
    const std::vector<std::unique_ptr<ImcSearchEngine>>& shards, Get get,
    double empty_value) {
  std::vector<double> values;
  std::vector<std::uint64_t> phases;
  std::vector<std::size_t> refs;
  values.reserve(shards.size());
  phases.reserve(shards.size());
  refs.reserve(shards.size());
  for (const auto& s : shards) {
    values.push_back(get(*s));
    phases.push_back(s->phases_executed());
    refs.push_back(s->reference_count());
  }
  return phase_weighted_mean(values, phases, refs, empty_value);
}

}  // namespace

double phase_weighted_mean(std::span<const double> values,
                           std::span<const std::uint64_t> phase_weights,
                           std::span<const std::size_t> fallback_weights,
                           double empty_value) {
  if (values.empty()) return empty_value;
  std::uint64_t total_phases = 0;
  for (const std::uint64_t w : phase_weights) total_phases += w;
  double acc = 0.0;
  double wsum = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double w = total_phases > 0
                         ? static_cast<double>(phase_weights[i])
                         : static_cast<double>(fallback_weights[i]);
    acc += w * values[i];
    wsum += w;
  }
  return wsum > 0.0 ? acc / wsum : empty_value;
}

ShardedSearch::ShardedSearch(std::span<const util::BitVec> references,
                             const ShardedSearchConfig& cfg)
    : refs_(references),
      parallel_shards_(cfg.parallel_shards),
      pool_(cfg.pool) {
  if (references.empty()) {
    throw std::invalid_argument("ShardedSearch: empty reference set");
  }
  const std::uint32_t dim =
      static_cast<std::uint32_t>(references.front().size());

  refs_per_shard_ = cfg.max_refs_per_shard;
  if (refs_per_shard_ == 0) {
    // Columns the chip can host: arrays / vertical tiles per reference,
    // times columns per array.
    const std::size_t pair_rows = cfg.chip.array.pair_rows();
    const std::size_t vtiles = (dim + pair_rows - 1) / pair_rows;
    const std::size_t blocks =
        std::max<std::size_t>(1, cfg.chip.array_count / vtiles);
    refs_per_shard_ = blocks * cfg.chip.array.cols;
  }

  for (std::size_t start = 0; start < references.size();
       start += refs_per_shard_) {
    const std::size_t count =
        std::min(refs_per_shard_, references.size() - start);
    ImcSearchConfig engine_cfg = cfg.engine;
    // Same seed everywhere + global index offset: shard s applies exactly
    // the keyed noise a monolithic engine over the full library would, so
    // sharded and single-engine searches return identical hits.
    engine_cfg.index_offset = cfg.engine.index_offset + start;
    shards_.push_back(std::make_unique<ImcSearchEngine>(
        references.subspan(start, count), engine_cfg));
    plans_.push_back(plan_search_mapping(count, dim, cfg.chip,
                                         cfg.engine.activated_pairs));
  }
}

util::ThreadPool& ShardedSearch::task_pool() const {
  return pool_ != nullptr ? *pool_ : util::ThreadPool::global();
}

std::vector<hd::SearchHit> ShardedSearch::top_k(const util::BitVec& query,
                                                std::size_t first,
                                                std::size_t last,
                                                std::size_t k,
                                                std::uint64_t stream) const {
  const hd::BatchQuery q{&query, first, last, stream};
  return std::move(search_many({&q, 1}, k).front());
}

std::vector<std::vector<hd::SearchHit>> ShardedSearch::search_many(
    std::span<const hd::BatchQuery> queries, std::size_t k) const {
  std::vector<std::vector<hd::SearchHit>> out(queries.size());
  if (k == 0 || queries.empty()) return out;

  // Localize the block once per intersecting shard, up front: every block
  // query whose window intersects the shard is shipped together, so the
  // shard (one chip in the deployment picture) is entered once per block.
  struct ShardTask {
    std::size_t shard = 0;
    std::vector<hd::BatchQuery> sub;                ///< Shard-local windows.
    std::vector<std::size_t> slots;                 ///< Block slot of sub[j].
    std::vector<std::vector<hd::SearchHit>> hits;   ///< Global indices.
  };
  std::vector<ShardTask> tasks;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::size_t base = s * refs_per_shard_;
    ShardTask task;
    task.shard = s;
    for (std::size_t slot = 0; slot < queries.size(); ++slot) {
      const hd::BatchQuery& q = queries[slot];
      const std::size_t first = q.first;
      const std::size_t last = std::min(q.last, refs_.size());
      if (first >= last) continue;
      const std::size_t lo = first > base ? first - base : 0;
      const std::size_t hi =
          last > base ? std::min(last - base, refs_per_shard_) : 0;
      if (lo >= hi) continue;
      task.sub.push_back(hd::BatchQuery{q.hv, lo, hi, q.stream});
      task.slots.push_back(slot);
    }
    if (!task.sub.empty()) tasks.push_back(std::move(task));
  }

  // Each intersecting shard's sub-block is one independent task; results
  // land in per-shard buffers so the merge below reads the same inputs
  // whether the tasks ran sequentially or concurrently (keyed noise:
  // scores never depend on scheduling). parallel_tasks lets the caller
  // help, so blocks already running on the pool can still fan out.
  const auto run_task = [&](std::size_t t) {
    ShardTask& task = tasks[t];
    const std::size_t base = task.shard * refs_per_shard_;
    shard_entries_.fetch_add(1, std::memory_order_relaxed);
    task.hits = shards_[task.shard]->search_many(task.sub, k);
    for (auto& hits : task.hits) {
      for (auto& h : hits) h.reference_index += base;  // back to global
    }
  };
  if (parallel_shards_ && tasks.size() > 1) {
    task_pool().parallel_tasks(tasks.size(), run_task);
  } else {
    for (std::size_t t = 0; t < tasks.size(); ++t) run_task(t);
  }

  // Deterministic merge in shard order: gather each slot's per-shard
  // lists (ascending shard id == ascending global index range) and run
  // the bounded k-way merge.
  std::vector<std::vector<const std::vector<hd::SearchHit>*>> per_slot(
      queries.size());
  for (const ShardTask& task : tasks) {
    for (std::size_t j = 0; j < task.slots.size(); ++j) {
      if (!task.hits[j].empty()) {
        per_slot[task.slots[j]].push_back(&task.hits[j]);
      }
    }
  }
  for (std::size_t slot = 0; slot < queries.size(); ++slot) {
    merge_top_k(per_slot[slot], k, out[slot]);
  }
  return out;
}

std::uint64_t ShardedSearch::phases_executed() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->phases_executed();
  return total;
}

double ShardedSearch::phase_sigma() const noexcept {
  return weighted_over_shards(
      shards_, [](const ImcSearchEngine& s) { return s.phase_sigma(); }, 0.0);
}

double ShardedSearch::gain() const noexcept {
  return weighted_over_shards(
      shards_, [](const ImcSearchEngine& s) { return s.gain(); }, 1.0);
}

}  // namespace oms::accel
