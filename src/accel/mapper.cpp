#include "accel/mapper.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace oms::accel {

namespace {

/// Differential pairs per array column; throws std::invalid_argument,
/// naming array.rows, when the array holds none (every layout divides by
/// it).
std::size_t checked_pair_rows(const rram::ChipConfig& chip, const char* who) {
  const std::size_t pair_rows = chip.array.pair_rows();
  if (pair_rows == 0) {
    throw std::invalid_argument(
        std::string(who) + ": array.rows " + std::to_string(chip.array.rows) +
        " holds no differential pair (need at least 2)");
  }
  return pair_rows;
}

}  // namespace

MappingPlan plan_search_mapping(std::size_t references, std::uint32_t dim,
                                const rram::ChipConfig& chip,
                                std::size_t activated_pairs) {
  if (references == 0 || dim == 0) {
    throw std::invalid_argument("plan_search_mapping: empty problem");
  }
  const std::size_t pair_rows =
      checked_pair_rows(chip, "plan_search_mapping");
  if (activated_pairs == 0 || pair_rows % activated_pairs != 0) {
    throw std::invalid_argument(
        "plan_search_mapping: activated_pairs must divide array pair rows");
  }

  MappingPlan plan;
  plan.references = references;
  plan.dim = dim;
  plan.activated_pairs = activated_pairs;
  plan.pair_rows_per_array = pair_rows;
  plan.cols_per_array = chip.array.cols;
  plan.vertical_tiles = (dim + pair_rows - 1) / pair_rows;
  plan.column_blocks =
      (references + chip.array.cols - 1) / chip.array.cols;
  plan.arrays_needed = plan.column_blocks * plan.vertical_tiles;
  plan.chips_needed =
      (plan.arrays_needed + chip.array_count - 1) / chip.array_count;
  plan.cells_used = static_cast<std::uint64_t>(references) * dim * 2;
  const std::uint64_t provisioned =
      static_cast<std::uint64_t>(plan.chips_needed) * chip.total_cells();
  plan.chip_utilization =
      provisioned == 0 ? 0.0
                       : static_cast<double>(plan.cells_used) /
                             static_cast<double>(provisioned);
  plan.phases_per_candidate =
      (dim + activated_pairs - 1) / activated_pairs;
  return plan;
}

std::size_t references_per_chip(std::uint32_t dim,
                                const rram::ChipConfig& chip) {
  const std::size_t pair_rows =
      checked_pair_rows(chip, "references_per_chip");
  const std::size_t vtiles = (dim + pair_rows - 1) / pair_rows;
  const std::size_t blocks =
      std::max<std::size_t>(1, chip.array_count / vtiles);
  return blocks * chip.array.cols;
}

double query_latency_s(const MappingPlan& plan, std::size_t candidates,
                       std::size_t adcs_per_array, double cycle_s) {
  if (adcs_per_array == 0) {
    throw std::invalid_argument("query_latency_s: need at least one ADC");
  }
  // Every candidate needs phases_per_candidate activations of its column;
  // within one array, adcs_per_array candidate columns are sensed per
  // cycle, and all arrays (column blocks × tiles) run in parallel.
  const double total_column_phases =
      static_cast<double>(candidates) *
      static_cast<double>(plan.phases_per_candidate);
  const double parallel =
      static_cast<double>(plan.arrays_needed) *
      static_cast<double>(adcs_per_array) /
      static_cast<double>(plan.vertical_tiles);  // tiles work on the same
                                                 // candidate's partials
  return total_column_phases / parallel * cycle_s;
}

double query_energy_j(const MappingPlan& plan, std::size_t candidates,
                      double e_cell_read_j, double e_adc_j) {
  const double phases = static_cast<double>(candidates) *
                        static_cast<double>(plan.phases_per_candidate);
  const double per_phase =
      2.0 * static_cast<double>(plan.activated_pairs) * e_cell_read_j +
      e_adc_j;
  return phases * per_phase;
}

double shard_entry_latency_s(std::uint64_t shard_entries, std::size_t shards,
                             double t_shard_entry_s) {
  if (shard_entries == 0) return 0.0;
  const std::uint64_t chips = std::max<std::uint64_t>(1, shards);
  const std::uint64_t longest_chain = (shard_entries + chips - 1) / chips;
  return static_cast<double>(longest_chain) * t_shard_entry_s;
}

double shard_entry_energy_j(std::uint64_t shard_entries,
                            double e_shard_entry_j) {
  return static_cast<double>(shard_entries) * e_shard_entry_j;
}

}  // namespace oms::accel
