#include "accel/imc_search.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
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
  if (queries.empty() || !view_.valid()) return out;
  for (const hd::BatchQuery& q : queries) {
    // The sweep reads word_count() words of every query and scales its dot
    // by the query's own size: a query of another dimension is refused.
    if (q.hv->size() != view_.dim()) {
      throw std::invalid_argument(
          "ImcSearchEngine::search_many: query dimension " +
          std::to_string(q.hv->size()) + " differs from the library dimension " +
          std::to_string(view_.dim()));
    }
  }
  if (k == 0) return out;

  std::vector<hd::BatchQuery> clipped(queries.begin(), queries.end());
  for (hd::BatchQuery& q : clipped) {
    q.last = std::min(q.last, refs_.size());
    q.first = std::min(q.first, q.last);
  }

  const bool noisy =
      cfg_.fidelity == Fidelity::kStatistical && phase_sigma_ > 0.0;

  // Per-query constants hoisted out of the sweep. Multiplication order
  // below matches keyed_value exactly, so hoisting cannot move a score by
  // even one ulp. `margin` is the largest noise term any draw can add:
  // |z| <= kCounterNormalMax, and rounding is monotone, so the computed
  // z * sigma * sqrt_phases never exceeds it.
  struct Slot {
    const std::uint64_t* words;
    double dim;
    std::uint64_t key;
    double sqrt_phases;
    double margin;
  };
  std::vector<Slot> slots(clipped.size());
  for (std::size_t s = 0; s < clipped.size(); ++s) {
    const util::BitVec& hv = *clipped[s].hv;
    const double sqrt_phases =
        std::sqrt(static_cast<double>(phases_per_query(hv)));
    slots[s] = {hv.words().data(), static_cast<double>(hv.size()),
                util::hash_combine(cfg_.seed, clipped[s].stream), sqrt_phases,
                util::kCounterNormalMax * phase_sigma_ * sqrt_phases};
  }

  // Scores one query's distances dist[0..n) to the candidates at global
  // indices base, base + 1, ... into its hits.
  const auto score = [&](const Slot& q, const std::uint32_t* dist,
                         std::size_t n, std::size_t base,
                         std::vector<hd::SearchHit>& hits) {
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

  constexpr std::size_t kGroup = hd::kernels::kSweepGroup;
  const hd::kernels::Tier tier = hd::kernels::active_tier();
  const std::size_t wc = view_.word_count();
  std::vector<std::uint32_t> dist;
  std::uint64_t phases = 0;
  hd::for_each_query_segment(
      clipped, [&](std::size_t lo, std::size_t hi,
                   std::span<const std::size_t> active) {
        if (noisy) {
          // Shared phase scheduling: one activation pass over this
          // segment's reference rows serves every covering query, so the
          // phase count is per segment, not per (query, segment). The
          // modelled chip scores every candidate, pruned or not.
          phases += phases_per_query(*clipped[active.front()].hv) * (hi - lo);
        }
        // Per extent, chunked so a run of reference rows stays
        // cache-resident while every active query is scored against it,
        // kSweepGroup queries per register-tiled sweep; candidates still
        // ascend per query (the insert_top_k tie-break contract).
        view_.for_each_extent(lo, hi, [&](const hd::RefExtent& ext,
                                          std::size_t lfirst,
                                          std::size_t llast) {
          const std::size_t chunk = hd::kernels::sweep_chunk_rows(ext.stride);
          const std::size_t rows = std::min(chunk, llast - lfirst);
          if (dist.size() < kGroup * rows) dist.resize(kGroup * rows);
          for (std::size_t c0 = lfirst; c0 < llast; c0 += chunk) {
            const std::size_t c1 = std::min(llast, c0 + chunk);
            for (std::size_t g0 = 0; g0 < active.size(); g0 += kGroup) {
              const std::size_t n = std::min(kGroup, active.size() - g0);
              const std::uint64_t* group[kGroup];
              for (std::size_t g = 0; g < n; ++g) {
                group[g] = slots[active[g0 + g]].words;
              }
              hd::kernels::hamming_sweep_tier(tier, {group, n}, ext, wc, c0,
                                              c1, dist.data(), rows);
              for (std::size_t g = 0; g < n; ++g) {
                const std::size_t s = active[g0 + g];
                score(slots[s], dist.data() + g * rows, c1 - c0,
                      ext.base + c0, out[s]);
              }
            }
          }
        });
      });
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
