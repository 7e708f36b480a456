// In-memory Hamming-similarity search (paper §4.1). Reference hypervectors
// are stored vertically in differential pairs; a query enters as bit-line
// voltages, and each reference's bipolar dot product is accumulated over
// D / n_act activation phases of n_act rows each (the paper operates at 64
// activated rows with 8-level cells).
//
// Fidelity:
//  * kCircuit      — references are programmed into real CrossbarArray
//                    tiles; every phase runs through the analog model.
//                    Use for small reference sets (tests, Fig. 9 style).
//  * kStatistical  — exact popcount dot + Gaussian noise with the phase
//                    sigma measured by calibrate_mvm_error. Scales to
//                    full workloads (Figs. 10/11/13). The keyed paths take
//                    exact dots from hd::sweep_batch, the same batched-sweep
//                    driver the exact search runs on, and draw noise only
//                    for candidates it could lift into the top-k (see
//                    search_many); the modelled phases still charge every
//                    candidate.
//
// Device noise changes only how a candidate's dot is scored (§4.1), so the
// RRAM-modelled search has no walk of its own: search_many hands
// hd::sweep_sliced one hd::sweep_batch per reference slice, with its
// per-query scoring constants, its noise-pruned scoring rule and its
// per-segment phase count, and top_k_keyed is a one-query search_many.
//  * kIdeal        — exact search (equivalent to hd::top_k_search).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "accel/error_model.hpp"
#include "hd/search.hpp"
#include "rram/chip.hpp"
#include "util/bitvec.hpp"

namespace oms::accel {

struct ImcSearchConfig {
  rram::ArrayConfig array{};        ///< Array geometry and device model.
  std::size_t activated_pairs = 64; ///< Differential pairs per phase.
  Fidelity fidelity = Fidelity::kStatistical;
  std::size_t calibration_samples = 4096;
  std::uint64_t seed = 11;
  /// Weight precision for the stored (binary) references is 1 bit; the
  /// cell still uses its configured MLC levels for calibration parity
  /// with the paper's device experiments.
  int weight_bits = 1;
};

class ImcSearchEngine {
 public:
  /// Builds the engine over `references` (not owned; must outlive the
  /// engine). In circuit mode the references are programmed into arrays
  /// immediately. Throws std::invalid_argument, naming array.rows, when
  /// the array holds no differential pair (rows < 2).
  ImcSearchEngine(std::span<const util::BitVec> references,
                  const ImcSearchConfig& cfg);
  ~ImcSearchEngine();

  ImcSearchEngine(const ImcSearchEngine&) = delete;
  ImcSearchEngine& operator=(const ImcSearchEngine&) = delete;

  [[nodiscard]] const ImcSearchConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t reference_count() const noexcept {
    return refs_.size();
  }
  /// The piecewise layout the keyed sweeps run over (hd::RefView).
  [[nodiscard]] const hd::RefView& view() const noexcept { return view_; }
  /// Phase sigma used in statistical mode (0 for ideal fidelity).
  [[nodiscard]] double phase_sigma() const noexcept { return phase_sigma_; }
  /// Fitted IR-droop gain applied to statistical scores (1 for ideal).
  [[nodiscard]] double gain() const noexcept { return gain_; }

  /// Approximate dot product of `query` with reference `index`, as the
  /// hardware would produce it.
  [[nodiscard]] double dot(const util::BitVec& query, std::size_t index);

  /// Top-k search over references[first..last) using hardware-fidelity
  /// scores. Deterministic for a fixed engine state and call sequence.
  [[nodiscard]] std::vector<hd::SearchHit> top_k(const util::BitVec& query,
                                                 std::size_t first,
                                                 std::size_t last,
                                                 std::size_t k);

  /// Thread-safe, order-independent variant for statistical/ideal
  /// fidelity: the noise draw is keyed on (seed, stream, reference), so
  /// results are reproducible no matter how queries are scheduled across
  /// threads. `stream` should identify the query (e.g. its id).
  [[nodiscard]] double dot_keyed(const util::BitVec& query, std::size_t index,
                                 std::uint64_t stream) const;

  /// Thread-safe top-k with dot_keyed's scores (statistical/ideal only):
  /// a one-query search_many.
  [[nodiscard]] std::vector<hd::SearchHit> top_k_keyed(
      const util::BitVec& query, std::size_t first, std::size_t last,
      std::size_t k, std::uint64_t stream) const;

  /// Genuinely batched top-k over a query block (statistical/ideal only;
  /// throws std::logic_error in circuit fidelity): the sweep is
  /// reference-major, so each activation phase of resident reference rows
  /// serves the whole block before advancing, and the phase accounting is
  /// charged once per block instead of once per query. result[i] is
  /// bit-identical to top_k_keyed(*queries[i].hv, ..., queries[i].stream)
  /// — keyed noise depends on (seed, stream, global reference index), not
  /// on block composition.
  ///
  /// Exact dots come from hd::sweep_batch (the dimension check, range
  /// clipping and register-tiled walk shared with hd::top_k_search_batch),
  /// hd::kernels::kSweepGroup active queries per row load, one sweep per
  /// hd::sweep_sliced reference slice; noise is keyed on the global index
  /// and phases are linear in a segment's rows, so the hits and
  /// phases_executed do not depend on the slicing. Once a
  /// query's list holds k hits, a candidate whose score cannot reach the
  /// k-th best under any draw (|z| <= util::kCounterNormalMax) skips its
  /// noise draw; the hits are those of scoring every candidate with
  /// dot_keyed, and phases_executed still counts every candidate. Throws
  /// std::invalid_argument, naming both, when a query's dimension is not
  /// the references'.
  [[nodiscard]] std::vector<std::vector<hd::SearchHit>> search_many(
      std::span<const hd::BatchQuery> queries, std::size_t k) const;

  /// Operation counters aggregated from the underlying chip (circuit
  /// mode) or modeled (statistical/keyed modes).
  [[nodiscard]] std::uint64_t phases_executed() const noexcept {
    return phases_executed_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] double circuit_dot(const util::BitVec& query,
                                   std::size_t index);
  [[nodiscard]] double statistical_dot(const util::BitVec& query,
                                       std::size_t index);
  /// dot_keyed without the phase accounting.
  [[nodiscard]] double keyed_value(const util::BitVec& query,
                                   std::size_t index,
                                   std::uint64_t stream) const;
  [[nodiscard]] std::size_t phases_per_query(
      const util::BitVec& query) const noexcept {
    return (query.size() + cfg_.activated_pairs - 1) / cfg_.activated_pairs;
  }

  ImcSearchConfig cfg_;
  std::span<const util::BitVec> refs_;
  hd::RefView view_;  ///< Piecewise layout of refs_ for the kernel sweeps.
  double phase_sigma_ = 0.0;
  double gain_ = 1.0;
  mutable std::atomic<std::uint64_t> phases_executed_{0};
  util::Xoshiro256 rng_;

  // Circuit mode state: one logical column per reference, tiled over
  // arrays of `activated_pairs` rows per phase.
  std::unique_ptr<rram::MlcChip> chip_;
  std::size_t refs_per_array_ = 0;
  std::size_t phases_per_ref_ = 0;
};

}  // namespace oms::accel
