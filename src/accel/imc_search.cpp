#include "accel/imc_search.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace oms::accel {

ImcSearchEngine::ImcSearchEngine(std::span<const util::BitVec> references,
                                 const ImcSearchConfig& cfg)
    : cfg_(cfg),
      refs_(references),
      view_(hd::RefView::from_span(references)),
      rng_(util::hash_combine(cfg.seed, 0x1333C5ULL)) {
  if (refs_.empty()) return;
  const std::size_t dim = refs_.front().size();
  for (const auto& r : refs_) {
    if (r.size() != dim) {
      throw std::invalid_argument("ImcSearchEngine: dimension mismatch");
    }
  }
  if (cfg_.activated_pairs == 0 ||
      cfg_.array.pair_rows() % cfg_.activated_pairs != 0) {
    throw std::invalid_argument(
        "ImcSearchEngine: activated_pairs must divide array pair rows");
  }

  rram::ArrayConfig acfg = cfg_.array;
  acfg.cell.levels = 1 << cfg_.weight_bits;

  switch (cfg_.fidelity) {
    case Fidelity::kIdeal:
      phase_sigma_ = 0.0;
      break;
    case Fidelity::kStatistical: {
      const MvmErrorStats stats =
          calibrate_mvm_error(acfg, cfg_.activated_pairs, cfg_.weight_bits,
                              cfg_.calibration_samples, cfg_.seed);
      // Gain (IR droop) scales every partial uniformly; the stochastic
      // residual is what perturbs rankings.
      phase_sigma_ = stats.sigma_mac;
      gain_ = stats.bias_gain;
      break;
    }
    case Fidelity::kCircuit: {
      const std::size_t pair_rows = acfg.pair_rows();
      const std::size_t vtiles = (dim + pair_rows - 1) / pair_rows;
      refs_per_array_ = acfg.cols;
      const std::size_t ref_blocks =
          (refs_.size() + refs_per_array_ - 1) / refs_per_array_;
      rram::ChipConfig chip_cfg;
      chip_cfg.array = acfg;
      chip_cfg.array_count = ref_blocks * vtiles;
      chip_ = std::make_unique<rram::MlcChip>(chip_cfg, cfg_.seed);
      phases_per_ref_ = (dim + cfg_.activated_pairs - 1) / cfg_.activated_pairs;

      // Program every reference: bit d of reference j lives in vertical
      // tile d / pair_rows, local pair d % pair_rows, column j % cols.
      for (std::size_t j = 0; j < refs_.size(); ++j) {
        const std::size_t block = j / refs_per_array_;
        const std::size_t col = j % refs_per_array_;
        for (std::size_t d = 0; d < dim; ++d) {
          const std::size_t tile = d / pair_rows;
          const std::size_t pair = d % pair_rows;
          const double w = refs_[j].get(d) ? 1.0 : -1.0;
          chip_->array(block * vtiles + tile).program_weight(pair, col, w);
        }
      }
      break;
    }
  }
}

ImcSearchEngine::~ImcSearchEngine() = default;

double ImcSearchEngine::statistical_dot(const util::BitVec& query,
                                        std::size_t index) {
  const double exact = static_cast<double>(util::bipolar_dot(query, refs_[index]));
  if (cfg_.fidelity == Fidelity::kIdeal || phase_sigma_ <= 0.0) return exact;
  const std::size_t phases = phases_per_query(query);
  phases_executed_.fetch_add(phases, std::memory_order_relaxed);
  return gain_ * exact +
         rng_.normal(0.0, phase_sigma_ * std::sqrt(static_cast<double>(phases)));
}

double ImcSearchEngine::circuit_dot(const util::BitVec& query,
                                    std::size_t index) {
  const std::size_t dim = query.size();
  const std::size_t pair_rows = cfg_.array.pair_rows();
  const std::size_t vtiles = (dim + pair_rows - 1) / pair_rows;
  const std::size_t block = index / refs_per_array_;
  const std::size_t col = index % refs_per_array_;

  std::vector<int> x(cfg_.activated_pairs, 0);
  double total = 0.0;
  for (std::size_t d0 = 0; d0 < dim; d0 += cfg_.activated_pairs) {
    const std::size_t n = std::min(cfg_.activated_pairs, dim - d0);
    for (std::size_t k = 0; k < n; ++k) {
      x[k] = query.get(d0 + k) ? 1 : -1;
    }
    const std::size_t tile = d0 / pair_rows;
    const std::size_t pair0 = d0 % pair_rows;
    const std::vector<double> macs = chip_->array(block * vtiles + tile)
                                         .mvm({x.data(), n}, pair0, n, col,
                                              col + 1);
    total += macs.front();
    phases_executed_.fetch_add(1, std::memory_order_relaxed);
  }
  return total;
}

double ImcSearchEngine::dot(const util::BitVec& query, std::size_t index) {
  if (index >= refs_.size()) {
    throw std::out_of_range("ImcSearchEngine::dot");
  }
  if (cfg_.fidelity == Fidelity::kCircuit) return circuit_dot(query, index);
  return statistical_dot(query, index);
}

double ImcSearchEngine::keyed_value(const util::BitVec& query,
                                    std::size_t index,
                                    std::uint64_t stream) const {
  const double exact =
      static_cast<double>(util::bipolar_dot(query, refs_[index]));
  if (cfg_.fidelity == Fidelity::kIdeal || phase_sigma_ <= 0.0) return exact;

  // Keyed on the *global* reference index so a shard reproduces exactly
  // the noise a monolithic engine would apply to the same reference.
  const double z = util::counter_normal(util::hash_combine(cfg_.seed, stream),
                                        index + cfg_.index_offset);
  const std::size_t phases = phases_per_query(query);
  return gain_ * exact +
         z * phase_sigma_ * std::sqrt(static_cast<double>(phases));
}

double ImcSearchEngine::dot_keyed(const util::BitVec& query, std::size_t index,
                                  std::uint64_t stream) const {
  if (index >= refs_.size()) {
    throw std::out_of_range("ImcSearchEngine::dot_keyed");
  }
  if (cfg_.fidelity == Fidelity::kCircuit) {
    throw std::logic_error("dot_keyed is not available in circuit fidelity");
  }
  if (cfg_.fidelity == Fidelity::kStatistical && phase_sigma_ > 0.0) {
    phases_executed_.fetch_add(phases_per_query(query),
                               std::memory_order_relaxed);
  }
  return keyed_value(query, index, stream);
}

std::vector<hd::SearchHit> ImcSearchEngine::top_k_keyed(
    const util::BitVec& query, std::size_t first, std::size_t last,
    std::size_t k, std::uint64_t stream) const {
  const hd::BatchQuery q{&query, first, last, stream};
  return std::move(search_many({&q, 1}, k).front());
}

std::vector<std::vector<hd::SearchHit>> ImcSearchEngine::search_many(
    std::span<const hd::BatchQuery> queries, std::size_t k) const {
  if (cfg_.fidelity == Fidelity::kCircuit) {
    throw std::logic_error(
        "keyed search is not available in circuit fidelity");
  }
  std::vector<std::vector<hd::SearchHit>> out(queries.size());
  const bool noisy =
      cfg_.fidelity == Fidelity::kStatistical && phase_sigma_ > 0.0;

  // Per-query constants hoisted out of the sweep. Multiplication order
  // below matches keyed_value exactly, so hoisting cannot move a score by
  // even one ulp. `margin` is the largest noise term any draw can add:
  // |z| <= kCounterNormalMax, and rounding is monotone, so the computed
  // z * sigma * sqrt_phases never exceeds it.
  struct Slot {
    double dim;
    std::uint64_t key;
    double sqrt_phases;
    double margin;
  };
  std::vector<Slot> slots(queries.size());
  for (std::size_t s = 0; s < queries.size(); ++s) {
    const util::BitVec& hv = *queries[s].hv;
    const double sqrt_phases =
        std::sqrt(static_cast<double>(phases_per_query(hv)));
    slots[s] = {static_cast<double>(hv.size()),
                util::hash_combine(cfg_.seed, queries[s].stream), sqrt_phases,
                util::kCounterNormalMax * phase_sigma_ * sqrt_phases};
  }

  // Shared phase scheduling: one activation pass over a segment's
  // reference rows serves every covering query, so the phase count is per
  // segment, not per (query, segment). The modelled chip scores every
  // candidate, pruned or not.
  std::uint64_t phases = 0;
  const auto count_phases = [&](std::size_t lo, std::size_t hi,
                                std::span<const std::size_t> active) {
    if (noisy) {
      phases += phases_per_query(*queries[active.front()].hv) * (hi - lo);
    }
  };

  // Scores query `s`'s distances dist[0..n) to the candidates at global
  // indices base, base + 1, ... into its hits.
  const auto score = [&](std::size_t s, const std::uint32_t* dist,
                         std::size_t n, std::size_t base) {
    const Slot& q = slots[s];
    std::vector<hd::SearchHit>& hits = out[s];
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i = base + j;
      const double exact = q.dim - 2.0 * dist[j];
      double d = exact;
      if (noisy) {
        // Exact pruning: d <= gain * exact + margin =: u and
        // llround(d) <= d + 0.5, so once the list is full a candidate with
        // u + 1 <= the k-th best dot rounds to less than that dot, and
        // insert_top_k (dot desc, index asc) would reject it under any
        // draw. Skip the draw.
        if (hits.size() == k && gain_ * exact + q.margin + 1.0 <=
                                    static_cast<double>(hits.back().dot)) {
          continue;
        }
        const double z = util::counter_normal(q.key, i + cfg_.index_offset);
        d = gain_ * exact + z * phase_sigma_ * q.sqrt_phases;
      }
      const auto dot_int = static_cast<std::int64_t>(std::llround(d));
      hd::insert_top_k(hits, hd::SearchHit{i, dot_int, (d / q.dim + 1.0) / 2.0},
                       k);
    }
  };

  hd::sweep_batch(queries, view_, k, "ImcSearchEngine::search_many",
                  count_phases, score);
  if (phases > 0) {
    phases_executed_.fetch_add(phases, std::memory_order_relaxed);
  }
  return out;
}

std::vector<hd::SearchHit> ImcSearchEngine::top_k(const util::BitVec& query,
                                                  std::size_t first,
                                                  std::size_t last,
                                                  std::size_t k) {
  std::vector<hd::SearchHit> hits;
  last = std::min(last, refs_.size());
  if (k == 0 || first >= last) return hits;
  const double dim = static_cast<double>(query.size());

  for (std::size_t i = first; i < last; ++i) {
    const double d = dot(query, i);
    const auto dot_int = static_cast<std::int64_t>(std::llround(d));
    hd::insert_top_k(hits, hd::SearchHit{i, dot_int, (d / dim + 1.0) / 2.0},
                     k);
  }
  return hits;
}

}  // namespace oms::accel
