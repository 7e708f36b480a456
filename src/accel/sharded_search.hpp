// Sharded multi-chip search. The paper's motivation is data volume: public
// MS repositories grow exponentially while single chips do not. This
// executor splits a reference library into contiguous shards sized to one
// chip's capacity (via the mapping planner), builds one in-memory search
// engine per shard, and merges per-shard top-k results — the scale-out
// layer a deployment of the accelerator needs.
//
// Shards inherit the library's precursor-mass order, so a query's mass
// window intersects only a contiguous run of shards and the executor
// skips the rest.
//
// Parallelism: search_many (and top_k, a one-query search_many) runs
// every intersecting shard's sub-block as an independent task — one chip
// searching its partition — on a util::ThreadPool (the nested-safe parallel_tasks
// primitive, so blocks already running on the pool can still fan their
// shards out). Per-shard results land in per-shard buffers and are merged
// deterministically in shard order afterward; keyed noise guarantees the
// merge input never depends on scheduling, so results are bit-identical
// to one monolithic ImcSearchEngine over the whole library.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "accel/imc_search.hpp"
#include "accel/mapper.hpp"

namespace oms::util {
class ThreadPool;
}  // namespace oms::util

namespace oms::accel {

struct ShardedSearchConfig {
  rram::ChipConfig chip{};          ///< Capacity unit per shard.
  ImcSearchConfig engine{};         ///< Per-shard engine configuration.
  /// Cap on references per shard; 0 derives it from chip capacity
  /// (columns × column blocks that fit the chip's arrays).
  std::size_t max_refs_per_shard = 0;
  /// Pool the shard tasks run on; null → util::ThreadPool::global().
  util::ThreadPool* pool = nullptr;
};

/// Weighted mean of per-shard values (sigma, gain) where the weights are
/// the activation phases each shard executed — the share of the search
/// each shard's calibration actually colored. Before any search has run
/// (`phase_weights` all zero) the fallback weights (reference counts) are
/// used, since phases are proportional to references for any fixed query
/// mix. Exposed as a free function so the aggregation math is testable
/// with deliberately uneven per-shard values.
[[nodiscard]] double phase_weighted_mean(
    std::span<const double> values,
    std::span<const std::uint64_t> phase_weights,
    std::span<const std::size_t> fallback_weights, double empty_value);

class ShardedSearch {
 public:
  /// Builds shards over `references` (not owned; must outlive this).
  /// References must be ordered by precursor mass if window-based
  /// candidate ranges are used (the SpectralLibrary guarantees this).
  ShardedSearch(std::span<const util::BitVec> references,
                const ShardedSearchConfig& cfg);

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t reference_count() const noexcept {
    return refs_.size();
  }
  [[nodiscard]] std::size_t references_per_shard() const noexcept {
    return refs_per_shard_;
  }
  /// Accounting across shards: total activation phases, and the
  /// phase-weighted aggregate of the shard engines' noise parameters
  /// (each shard calibrates independently, so a ragged final shard could
  /// settle on different values; see phase_weighted_mean).
  [[nodiscard]] std::uint64_t phases_executed() const noexcept;
  [[nodiscard]] double phase_sigma() const noexcept;
  [[nodiscard]] double gain() const noexcept;
  /// Per-shard accounting, for tests and calibration audits.
  [[nodiscard]] double shard_phase_sigma(std::size_t i) const {
    return shards_.at(i)->phase_sigma();
  }
  [[nodiscard]] double shard_gain(std::size_t i) const {
    return shards_.at(i)->gain();
  }
  [[nodiscard]] std::uint64_t shard_phases_executed(std::size_t i) const {
    return shards_.at(i)->phases_executed();
  }
  /// The mapping plan of shard `i` (for capacity/energy accounting).
  [[nodiscard]] const MappingPlan& plan(std::size_t i) const {
    return plans_.at(i);
  }

  /// Top-k search over global reference indices [first, last), merged
  /// across every intersecting shard: a one-query search_many, so it
  /// enters the same shards. Thread-safe for statistical/ideal fidelity
  /// (keyed noise).
  [[nodiscard]] std::vector<hd::SearchHit> top_k(const util::BitVec& query,
                                                 std::size_t first,
                                                 std::size_t last,
                                                 std::size_t k,
                                                 std::uint64_t stream) const;

  /// Batched search: ships the whole query block to each intersecting
  /// shard once (one shard entry per block instead of one per query), runs
  /// the intersecting shards concurrently, and merges the per-shard top-k
  /// lists per query with a bounded k-way merge. result[i] is
  /// bit-identical to top_k(*queries[i].hv, ...) — shard noise is keyed on
  /// global reference indices, so neither blocking, shard order, nor
  /// scheduling changes any score.
  [[nodiscard]] std::vector<std::vector<hd::SearchHit>> search_many(
      std::span<const hd::BatchQuery> queries, std::size_t k) const;

  /// Shard search entries so far: one per (block, intersecting shard), so
  /// one per (query, intersecting shard) on the per-query top_k — the
  /// scale-out cost the batched path amortizes. Exact (atomically counted
  /// per shard task) regardless of how many threads execute the shards,
  /// so the measured perf-model path is deterministic.
  [[nodiscard]] std::uint64_t shard_entries() const noexcept {
    return shard_entries_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] util::ThreadPool& task_pool() const;

  std::span<const util::BitVec> refs_;
  std::size_t refs_per_shard_ = 0;
  util::ThreadPool* pool_ = nullptr;
  std::vector<std::unique_ptr<ImcSearchEngine>> shards_;
  std::vector<MappingPlan> plans_;
  mutable std::atomic<std::uint64_t> shard_entries_{0};
};

}  // namespace oms::accel
