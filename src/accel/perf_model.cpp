#include "accel/perf_model.hpp"

#include <algorithm>
#include <cmath>

#include "accel/mapper.hpp"
#include "core/search_backend.hpp"

namespace oms::accel {

PerfModel::PerfModel(const PerfWorkload& workload, const RramPerfConfig& hw)
    : workload_(workload), hw_(hw) {}

PerfModel PerfModel::from_measured(const MeasuredCounters& counters,
                                   const PerfWorkload& workload,
                                   const RramPerfConfig& hw) {
  PerfModel model(workload, hw);
  model.measured_ = counters;
  model.measured_->shards = std::max<std::size_t>(1, counters.shards);
  return model;
}

PerfModel PerfModel::from_measured(const core::BackendStats& stats,
                                   const PerfWorkload& workload,
                                   const RramPerfConfig& hw) {
  MeasuredCounters counters;
  counters.search_phases = stats.phases_executed;
  counters.shard_entries = stats.shard_entries;
  counters.query_blocks = stats.query_blocks;
  counters.shards = stats.shards;
  return from_measured(counters, workload, hw);
}

std::uint64_t PerfModel::search_phases() const {
  if (measured_) return measured_->search_phases;
  const auto candidates = static_cast<double>(workload_.n_queries) *
                          workload_.candidate_fraction *
                          static_cast<double>(workload_.n_references);
  const double phases_per_candidate =
      std::ceil(static_cast<double>(workload_.dim) /
                static_cast<double>(hw_.activated_pairs));
  return static_cast<std::uint64_t>(candidates * phases_per_candidate);
}

std::uint64_t PerfModel::search_phase_count() const { return search_phases(); }

std::uint64_t PerfModel::charged_entry_count() const {
  if (!measured_) return 0;
  return measured_->shard_entries > 0 ? measured_->shard_entries
                                      : measured_->query_blocks;
}

std::uint64_t PerfModel::encode_phases() const {
  // One MVM phase per LV chunk per query spectrum (Fig. 5c).
  return workload_.n_queries * workload_.chunks;
}

double PerfModel::this_work_time_s() const {
  // Search phases across candidates are independent: every (array, ADC)
  // pair retires one candidate-phase per cycle.
  const double parallel_lanes =
      static_cast<double>(hw_.arrays * hw_.adcs_per_array);
  const double t_search =
      static_cast<double>(search_phases()) / parallel_lanes * hw_.cycle_s;
  // Encoding parallelizes across arrays (one spectrum per array).
  const double t_encode = static_cast<double>(encode_phases()) /
                          static_cast<double>(hw_.arrays) * hw_.cycle_s;
  // Measured runs charge each chip entry (per-(block, chip slice)
  // shipments, or one per block when no slices are counted); the entries
  // spread across chips entering in parallel (mapper.hpp).
  const double t_entries =
      measured_ ? shard_entry_latency_s(charged_entry_count(),
                                        measured_->shards, hw_.t_shard_entry_s)
                : 0.0;
  return t_search + t_encode + t_entries;
}

double PerfModel::this_work_energy_j() const {
  const double e_phase_col =
      static_cast<double>(2 * hw_.activated_pairs) * hw_.e_cell_read_j +
      hw_.e_adc_j;
  const double e_dynamic =
      static_cast<double>(search_phases() + encode_phases()) * e_phase_col;
  const double e_entries =
      measured_ ? shard_entry_energy_j(charged_entry_count(),
                                       hw_.e_shard_entry_j)
                : 0.0;
  return e_dynamic + e_entries + hw_.p_static_w * this_work_time_s();
}

std::vector<BaselineModel> PerfModel::default_baselines() {
  // Slowdowns are the paper's published speedups of this work over each
  // tool (§5.3.3). Powers: i7-11700K sustained core power ~65 W; the
  // ANN-SoLo GPU port is partially CPU-bound and underutilizes the RTX
  // 4090 (~142 W average); HyperOMS saturates GPU + host (~540 W system).
  return {
      {"ANN-SoLo (CPU)", 76.7, 65.0},
      {"ANN-SoLo (GPU)", 24.8, 142.0},
      {"HyperOMS (GPU)", 1.7, 540.0},
  };
}

std::vector<PerfResult> PerfModel::compare() const {
  const double t_ours = this_work_time_s();
  const double e_ours = this_work_energy_j();

  std::vector<PerfResult> rows;
  for (const auto& b : default_baselines()) {
    PerfResult r;
    r.tool = b.name;
    r.time_s = t_ours * b.slowdown;
    r.power_w = b.power_w;
    r.energy_j = r.time_s * r.power_w;
    r.speedup_vs_tool = b.slowdown;
    rows.push_back(r);
  }
  PerfResult ours;
  ours.tool = "This Work";
  ours.time_s = t_ours;
  ours.energy_j = e_ours;
  ours.power_w = e_ours / t_ours;
  ours.speedup_vs_tool = 1.0;
  rows.push_back(ours);

  const double e_ref = rows.front().energy_j;  // ANN-SoLo CPU anchor.
  for (auto& r : rows) r.energy_improvement = e_ref / r.energy_j;
  return rows;
}

double PerfModel::throughput_gain_vs_li2022() const {
  // Li et al. (JSSC 2022): at most 4 activated rows; this design drives
  // `activated_pairs` rows per phase. Throughput scales with rows driven.
  return static_cast<double>(hw_.activated_pairs) / 4.0;
}

}  // namespace oms::accel
