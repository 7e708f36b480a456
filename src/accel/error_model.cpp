#include "accel/error_model.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace oms::accel {

MvmErrorStats calibrate_mvm_error(const rram::ArrayConfig& base,
                                  std::size_t n_pairs, int weight_bits,
                                  std::size_t samples, std::uint64_t seed) {
  return calibrate_mvm_error(base, n_pairs, weight_bits, samples, seed,
                             util::ThreadPool::global());
}

MvmErrorStats calibrate_mvm_error(const rram::ArrayConfig& base,
                                  std::size_t n_pairs, int weight_bits,
                                  std::size_t samples, std::uint64_t seed,
                                  util::ThreadPool& pool) {
  rram::ArrayConfig cfg = base;
  cfg.cell.levels = 1 << weight_bits;

  if (cfg.cols == 0 || n_pairs > cfg.pair_rows()) {
    std::ostringstream msg;
    msg << "calibrate_mvm_error: " << n_pairs
        << " activated pairs need array.rows >= " << 2 * n_pairs
        << " and array.cols >= 1 (got array.rows = " << cfg.rows
        << ", array.cols = " << cfg.cols << ")";
    throw std::invalid_argument(msg.str());
  }

  util::Xoshiro256 rng(util::hash_combine(seed, n_pairs,
                                          static_cast<std::uint64_t>(weight_bits)));

  MvmErrorStats stats;
  stats.n_pairs = n_pairs;
  stats.weight_bits = weight_bits;

  // Each round programs a fresh array and senses one MVM phase. Its draws
  // come from `rng` in a fixed order (array seed, weight levels column by
  // column, then inputs), so they are taken sequentially up front; the
  // rounds themselves — array construction, programming with the array's
  // own RNG, ideal_mvm and mvm — depend on nothing else and run as pool
  // tasks. Outputs append in round order, so the stats are bit-identical
  // for every pool size.
  const int levels = cfg.cell.levels;
  const std::size_t cols_per_round = std::min<std::size_t>(cfg.cols, 32);
  const std::size_t rounds = (samples + cols_per_round - 1) / cols_per_round;
  // A round programs and senses only its first cols_per_round columns, and
  // no column's value or noise depends on the array's width (only on its
  // pair rows), so each round's scratch array is that narrow.
  cfg.cols = cols_per_round;

  struct Round {
    std::uint64_t array_seed = 0;
    std::vector<int> level;  ///< Column-major: level[c * n_pairs + r].
    std::vector<int> x;
    std::vector<double> truth;
    std::vector<double> out;
  };
  std::vector<Round> plan(rounds);
  for (Round& round : plan) {
    round.array_seed = rng.next();
    round.level.resize(cols_per_round * n_pairs);
    for (int& level : round.level) {
      level = static_cast<int>(rng.below(static_cast<std::uint64_t>(levels)));
    }
    round.x.resize(n_pairs);
    for (int& x : round.x) x = rng.bernoulli(0.5) ? 1 : -1;
  }

  pool.parallel_tasks(rounds, [&](std::size_t i) {
    Round& round = plan[i];
    rram::CrossbarArray array(cfg, round.array_seed);
    // Random quantized weights in the columns we will sense.
    for (std::size_t c = 0; c < cols_per_round; ++c) {
      for (std::size_t r = 0; r < n_pairs; ++r) {
        const int level = round.level[c * n_pairs + r];
        const double w =
            2.0 * static_cast<double>(level) / static_cast<double>(levels - 1) -
            1.0;
        array.program_weight(r, c, w);
      }
    }
    round.truth = array.ideal_mvm(round.x, 0, n_pairs, 0, cols_per_round);
    round.out = array.mvm(round.x, 0, n_pairs, 0, cols_per_round);
  });

  std::vector<double> ideal;
  std::vector<double> measured;
  ideal.reserve(samples);
  measured.reserve(samples);
  for (const Round& round : plan) {
    for (std::size_t c = 0; c < cols_per_round && ideal.size() < samples; ++c) {
      ideal.push_back(round.truth[c]);
      measured.push_back(round.out[c]);
    }
  }

  // Least-squares gain fit: measured ≈ gain · ideal.
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < ideal.size(); ++i) {
    num += measured[i] * ideal[i];
    den += ideal[i] * ideal[i];
  }
  stats.bias_gain = den > 0.0 ? num / den : 1.0;

  double raw = 0.0;
  double resid = 0.0;
  for (std::size_t i = 0; i < ideal.size(); ++i) {
    const double e_raw = measured[i] - ideal[i];
    const double e_res = measured[i] - stats.bias_gain * ideal[i];
    raw += e_raw * e_raw;
    resid += e_res * e_res;
  }
  const auto n = static_cast<double>(ideal.size());
  stats.rmse_mac = std::sqrt(raw / n);
  stats.sigma_mac = std::sqrt(resid / n);

  double ideal_sq = 0.0;
  for (const double v : ideal) ideal_sq += v * v;
  const double ideal_std = std::sqrt(ideal_sq / n);
  stats.rmse_normalized =
      ideal_std > 0.0 ? stats.rmse_mac / ideal_std : stats.rmse_mac;
  stats.sigma_normalized =
      ideal_std > 0.0 ? stats.sigma_mac / ideal_std : stats.sigma_mac;
  return stats;
}

}  // namespace oms::accel
