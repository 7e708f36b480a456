// Analytic + measurement-driven performance/energy model (paper §5.3.3,
// Fig. 12). The paper itself *simulates* speedup and energy ("We simulated
// the speedup and energy efficiency improvement..."), so this model is the
// reproduction of that experiment, not a stand-in for a measurement.
//
// "This work" has two modes:
//   * analytic   — phase counts from first principles: search needs
//                  D/n_act activation phases per candidate, candidates =
//                  n_queries × candidate_fraction × n_references; encode
//                  is one phase per LV chunk.
//   * measured   — PerfModel::from_measured consumes the counters a real
//                  backend run recorded (core::BackendStats:
//                  phases_executed, shard_entries, query_blocks), so the
//                  batched sweeps' phase amortization and the per-block
//                  chip-slice entries feed the latency and
//                  energy numbers directly instead of the
//                  candidate_fraction-only estimate. Shard entries carry a
//                  per-entry latency/energy overhead (block shipment into a
//                  chip + top-k merge back; see accel/mapper.hpp).
//
// Baseline tools are modeled as (relative throughput, average system
// power) pairs fitted to the measurements published in the ANN-SoLo and
// HyperOMS papers; the power assignments are chosen to be physically
// plausible (ANN-SoLo's GPU port is partially CPU-bound and underutilizes
// the board; HyperOMS saturates GPU + host). All constants are printed by
// bench/fig12_energy so the fit is transparent.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace oms::core {
struct BackendStats;
}  // namespace oms::core

namespace oms::accel {

/// Workload description for the performance model.
struct PerfWorkload {
  std::string name = "iPRG2012";
  std::uint64_t n_queries = 16000;
  std::uint64_t n_references = 2000000;  ///< Including decoys.
  double candidate_fraction = 0.30;      ///< OMS window selectivity.
  std::uint32_t dim = 8192;
  std::uint32_t chunks = 256;            ///< LV chunks (encode phases).
};

/// Hardware constants for "this work".
struct RramPerfConfig {
  std::size_t arrays = 48;
  std::size_t activated_pairs = 64;   ///< Paper's operating point.
  std::size_t adcs_per_array = 32;    ///< Columns sensed per phase.
  double cycle_s = 100e-9;            ///< Sense+ADC phase time.
  double e_cell_read_j = 0.225e-12;   ///< Per cell per phase (0.3 V, 25 µS).
  double e_adc_j = 2.0e-12;           ///< 8-bit SAR conversion.
  double p_static_w = 1.2;            ///< Controller & periphery standby.
  /// Per shard entry (one query block shipped into one chip and its top-k
  /// lists merged back): interconnect + controller latency and energy.
  /// Charged only on the measured path — the analytic estimate has no
  /// shard-entry count to charge it against.
  double t_shard_entry_s = 2.0e-6;
  double e_shard_entry_j = 0.5e-9;
};

/// Fitted baseline constants (relative to "this work").
struct BaselineModel {
  std::string name;
  double slowdown;   ///< T_tool / T_this_work (from published speedups).
  double power_w;    ///< Average system power while searching.
};

/// One row of the Fig. 12 style report.
struct PerfResult {
  std::string tool;
  double time_s = 0.0;
  double power_w = 0.0;
  double energy_j = 0.0;
  double speedup_vs_tool = 0.0;       ///< T_tool / T_this_work.
  double energy_improvement = 0.0;    ///< E_annsolo_cpu / E_tool.
};

/// Counters a real backend run recorded, feeding the measured model path.
/// Mirrors the relevant fields of core::BackendStats so the two stay
/// decoupled at the header level.
struct MeasuredCounters {
  std::uint64_t search_phases = 0;  ///< Activation column-phases executed.
  std::uint64_t shard_entries = 0;  ///< Query blocks shipped into shards.
  std::uint64_t query_blocks = 0;   ///< Batched blocks served; charged as
                                    ///< chip entries when shard_entries is
                                    ///< 0 (see charged_entry_count).
  std::size_t shards = 1;           ///< Chips the entries spread across.
};

class PerfModel {
 public:
  PerfModel(const PerfWorkload& workload, const RramPerfConfig& hw);

  /// Measurement-driven model: search phases and shard entries come from
  /// the counters a backend actually recorded instead of the
  /// candidate_fraction estimate. `workload` should describe the measured
  /// run (its n_queries/chunks still drive the analytic encode-phase term;
  /// candidate_fraction is ignored).
  [[nodiscard]] static PerfModel from_measured(const core::BackendStats& stats,
                                               const PerfWorkload& workload,
                                               const RramPerfConfig& hw);
  /// Same, from explicit counters.
  [[nodiscard]] static PerfModel from_measured(const MeasuredCounters& counters,
                                               const PerfWorkload& workload,
                                               const RramPerfConfig& hw);

  /// True when this model runs on measured counters.
  [[nodiscard]] bool measured() const noexcept {
    return measured_.has_value();
  }
  /// The measured counters, or nullptr on the analytic path.
  [[nodiscard]] const MeasuredCounters* measured_counters() const noexcept {
    return measured_ ? &*measured_ : nullptr;
  }

  /// Search phases feeding the model: measured when present, otherwise
  /// the analytic candidates × ceil(D / n_act) estimate.
  [[nodiscard]] std::uint64_t search_phase_count() const;

  /// Chip entries the measured path charges t_shard_entry_s /
  /// e_shard_entry_j for: the per-(block, chip slice) entries when
  /// present, otherwise one entry per batched query block — a backend
  /// that counts no slices is one chip that every block enters once.
  /// 0 on the analytic path (it has no entry counts to charge).
  [[nodiscard]] std::uint64_t charged_entry_count() const;

  /// Time for "this work" to encode all queries and search all candidates
  /// (plus, on the measured path, the per-shard-entry overhead).
  [[nodiscard]] double this_work_time_s() const;
  /// Energy for "this work" (device + shard entries + static) over that
  /// time.
  [[nodiscard]] double this_work_energy_j() const;

  /// Full comparison table: ANN-SoLo CPU / ANN-SoLo GPU / HyperOMS GPU /
  /// This work, with energy improvements normalized to ANN-SoLo CPU.
  [[nodiscard]] std::vector<PerfResult> compare() const;

  /// Throughput gain over the MLC CIM macro of [Li et al., JSSC 2022]
  /// which drives at most 4 rows with 3-level cells (paper §5.2.2).
  [[nodiscard]] double throughput_gain_vs_li2022() const;

  [[nodiscard]] const PerfWorkload& workload() const noexcept {
    return workload_;
  }
  [[nodiscard]] const RramPerfConfig& hardware() const noexcept { return hw_; }
  [[nodiscard]] static std::vector<BaselineModel> default_baselines();

 private:
  [[nodiscard]] std::uint64_t search_phases() const;
  [[nodiscard]] std::uint64_t encode_phases() const;

  PerfWorkload workload_;
  RramPerfConfig hw_;
  std::optional<MeasuredCounters> measured_;
};

}  // namespace oms::accel
