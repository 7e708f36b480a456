// Reference-library → chip mapping (paper §4.1 "weight mapping" made
// concrete). Each reference hypervector occupies one logical column of
// differential pairs; a D-dimensional reference spans ceil(D / pair_rows)
// vertically stacked arrays, and a search phase activates `n_act` pairs
// while sensing candidate columns in parallel. This module computes the
// layout, capacity utilization, and per-query latency/energy from the
// same constants the analytic performance model uses — letting tests
// cross-check the two.
#pragma once

#include <cstdint>

#include "rram/chip.hpp"

namespace oms::accel {

struct MappingPlan {
  std::size_t references = 0;
  std::uint32_t dim = 0;
  std::size_t activated_pairs = 0;

  std::size_t pair_rows_per_array = 0;
  std::size_t cols_per_array = 0;
  std::size_t vertical_tiles = 0;   ///< Arrays stacked per reference.
  std::size_t column_blocks = 0;    ///< ceil(references / cols).
  std::size_t arrays_needed = 0;    ///< column_blocks × vertical_tiles.
  std::size_t chips_needed = 0;
  std::uint64_t cells_used = 0;     ///< 2 cells per stored dimension.
  double chip_utilization = 0.0;    ///< cells used / cells provisioned.

  std::size_t phases_per_candidate = 0;  ///< ceil(D / activated_pairs).
};

/// Computes the layout of `references` hypervectors of dimension `dim`
/// over chips of the given configuration.
[[nodiscard]] MappingPlan plan_search_mapping(std::size_t references,
                                              std::uint32_t dim,
                                              const rram::ChipConfig& chip,
                                              std::size_t activated_pairs);

/// References of dimension `dim` one chip holds: the column blocks that
/// fit its arrays (array_count / vertical tiles per reference, at least
/// one) times the columns per array. The chip slice "rram-statistical"
/// counts a library in (core/search_backend.hpp). Like
/// plan_search_mapping, throws std::invalid_argument naming array.rows
/// when an array holds no differential pair (rows < 2).
[[nodiscard]] std::size_t references_per_chip(std::uint32_t dim,
                                              const rram::ChipConfig& chip);

/// Latency of scoring `candidates` references for one query, assuming
/// `adcs_per_array` columns sensed per phase per array and all arrays
/// operating in parallel.
[[nodiscard]] double query_latency_s(const MappingPlan& plan,
                                     std::size_t candidates,
                                     std::size_t adcs_per_array,
                                     double cycle_s);

/// Energy of scoring `candidates` references for one query.
[[nodiscard]] double query_energy_j(const MappingPlan& plan,
                                    std::size_t candidates,
                                    double e_cell_read_j, double e_adc_j);

/// Wall-clock overhead of `shard_entries` query-block shipments (block
/// DMA into a chip + per-query top-k merge back) when they spread across
/// `shards` chips entering in parallel: the longest per-chip chain is
/// ceil(entries / shards) sequential entries. This is the latency term
/// the measured perf-model path charges per BackendStats::shard_entries.
[[nodiscard]] double shard_entry_latency_s(std::uint64_t shard_entries,
                                           std::size_t shards,
                                           double t_shard_entry_s);

/// Energy of `shard_entries` query-block shipments — every entry pays the
/// interconnect + merge cost regardless of how the entries overlap in
/// time.
[[nodiscard]] double shard_entry_energy_j(std::uint64_t shard_entries,
                                          double e_shard_entry_j);

}  // namespace oms::accel
