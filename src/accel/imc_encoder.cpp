#include "accel/imc_encoder.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

#include "hd/kernels.hpp"
#include "rram/chip.hpp"
#include "util/rng.hpp"

namespace oms::accel {
namespace {

/// Mean square magnitude of ID components at a given precision: the odd
/// lattice ±{1}, ±{1,3}, ±{1,3,5,7} gives 1, 5, 21.
double mean_square_magnitude(hd::IdPrecision p) {
  const int mags = hd::magnitude_count(p);
  double acc = 0.0;
  for (int k = 0; k < mags; ++k) {
    const double m = 2.0 * k + 1.0;
    acc += m * m;
  }
  return acc / mags;
}

}  // namespace

ImcEncoder::ImcEncoder(const hd::Encoder& encoder, const ImcEncoderConfig& cfg)
    : encoder_(encoder),
      cfg_(cfg),
      rng_(util::hash_combine(cfg.seed, 0xE2C0DEULL)) {}

util::BitVec ImcEncoder::encode(std::span<const std::uint32_t> bins,
                                std::span<const float> weights) {
  if (bins.empty()) return util::BitVec(encoder_.config().dim);
  switch (cfg_.fidelity) {
    case Fidelity::kIdeal:
      return encoder_.encode(bins, weights);
    case Fidelity::kCircuit:
      return encode_circuit(bins, weights);
    case Fidelity::kStatistical:
      return encode_statistical(bins, weights);
  }
  return encoder_.encode(bins, weights);
}

std::size_t ImcEncoder::bucket_for(std::size_t n_rows) const {
  // Activated-row counts round up to the calibration grid (multiples of
  // 8, minimum 8) so the sigma cache stays small. One peak activates one
  // differential pair row, so a spectrum may not have more peaks than the
  // array has pair rows; a bucket that rounds up past them calibrates at
  // the full array instead.
  const std::size_t pairs = cfg_.array.pair_rows();
  if (n_rows > pairs) {
    std::ostringstream msg;
    msg << "ImcEncoder: a spectrum with " << n_rows
        << " peaks needs as many differential pair rows, but the array has "
        << pairs << " (array.rows = " << cfg_.array.rows
        << "); lower preprocess.max_peaks or raise array.rows";
    throw std::invalid_argument(msg.str());
  }
  return std::min(std::max<std::size_t>(8, (n_rows + 7) / 8 * 8), pairs);
}

double ImcEncoder::sigma_for(std::size_t n_rows) {
  // Cached value is the *normalized* RMSE (error / ideal-output spread),
  // which transfers between the calibration's uniform weights and the
  // encoder's ID magnitude lattice. Calibration runs outside the cache
  // lock: it fans its rounds out over the global pool, and a thread
  // waiting on those tasks must not hold the lock that concurrent
  // streaming encoders take for every spectrum. Concurrent misses on one
  // bucket compute the same deterministic value; the first insert wins.
  const std::size_t bucket = bucket_for(n_rows);
  {
    const std::lock_guard<std::mutex> lock(sigma_mutex_);
    const auto it = sigma_cache_.find(bucket);
    if (it != sigma_cache_.end()) return it->second;
  }
  const int bits = static_cast<int>(encoder_.config().id_precision);
  const MvmErrorStats stats = calibrate_mvm_error(
      cfg_.array, bucket, bits, cfg_.calibration_samples, cfg_.seed);
  // A uniform gain cannot flip Sign(); only the stochastic residual
  // produces encoding bit errors.
  const std::lock_guard<std::mutex> lock(sigma_mutex_);
  return sigma_cache_.emplace(bucket, stats.sigma_normalized).first->second;
}

double ImcEncoder::sigma_for_const(std::size_t n_rows) const {
  const std::size_t bucket = bucket_for(n_rows);
  const std::lock_guard<std::mutex> lock(sigma_mutex_);
  const auto it = sigma_cache_.find(bucket);
  if (it == sigma_cache_.end()) {
    throw std::logic_error(
        "ImcEncoder: bucket not precalibrated for encode_keyed");
  }
  return it->second;
}

void ImcEncoder::precalibrate(
    std::span<const std::vector<std::uint32_t>> bin_lists) {
  if (cfg_.fidelity != Fidelity::kStatistical) return;
  for (const auto& bl : bin_lists) {
    if (!bl.empty()) (void)sigma_for(bl.size());
  }
}

void ImcEncoder::precalibrate(std::span<const std::size_t> peak_counts) {
  if (cfg_.fidelity != Fidelity::kStatistical) return;
  for (const std::size_t n : peak_counts) {
    if (n > 0) (void)sigma_for(n);
  }
}

util::BitVec ImcEncoder::encode_statistical(
    std::span<const std::uint32_t> bins, std::span<const float> weights) {
  const auto& cfg = encoder_.config();
  std::vector<std::int32_t> acc(cfg.dim, 0);
  encoder_.accumulate(bins, weights, acc);

  mac_sigma_ = sigma_for(bins.size());
  // Scale the normalized error back to accumulator units via the signal
  // spread of a MAC over this many peaks: std = sqrt(f · E[m²]).
  const double sigma_acc =
      mac_sigma_ * std::sqrt(static_cast<double>(bins.size()) *
                             mean_square_magnitude(cfg.id_precision));

  util::BitVec hv(cfg.dim);
  for (std::size_t d = 0; d < cfg.dim; ++d) {
    const double noisy =
        static_cast<double>(acc[d]) + rng_.normal(0.0, sigma_acc);
    if (noisy > 0.0) hv.set(d, true);
  }
  return hv;
}

double ImcEncoder::keyed_noise_sigma(std::size_t peaks) const {
  return sigma_for_const(peaks) *
         std::sqrt(static_cast<double>(peaks) *
                   mean_square_magnitude(encoder_.config().id_precision));
}

util::BitVec ImcEncoder::encode_keyed(std::span<const std::uint32_t> bins,
                                      std::span<const float> weights,
                                      std::uint64_t stream) const {
  const auto& cfg = encoder_.config();
  if (bins.empty()) return util::BitVec(cfg.dim);
  if (cfg_.fidelity == Fidelity::kIdeal) {
    return encoder_.encode(bins, weights);
  }
  if (cfg_.fidelity != Fidelity::kStatistical) {
    throw std::logic_error("encode_keyed requires statistical fidelity");
  }
  std::vector<std::int32_t> acc(cfg.dim, 0);
  encoder_.accumulate(bins, weights, acc);

  const double sigma_acc = keyed_noise_sigma(bins.size());
  const std::uint64_t key = util::hash_combine(cfg_.seed, stream, 0xE2C0ULL);

  // Bit d is (acc[d] + sigma_acc * z_d > 0). Where |acc[d]| exceeds
  // sigma_acc times a bound on |z_d| the noise cannot flip the sign
  // (rounding is monotone, so the computed product respects the bound
  // too), and the bit is sign(acc[d]). The sign pass (on the active kernel
  // tier) writes those bits and lists the components the bound cannot
  // settle; only they draw their noise.
  util::BitVec hv(cfg.dim);
  const std::span<std::uint64_t> words = hv.words();
  std::vector<std::uint32_t> undecided(cfg.dim);
  const std::size_t n = hd::kernels::keyed_sign_pass(
      acc, sigma_acc, key, words.data(), undecided.data());
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t d = undecided[t];
    const double noisy = static_cast<double>(acc[d]) +
                         sigma_acc * util::counter_normal(key, d);
    const std::uint64_t bit = std::uint64_t{1} << (d & 63);
    std::uint64_t& word = words[d >> 6];
    word = noisy > 0.0 ? (word | bit) : (word & ~bit);
  }
  return hv;
}

util::BitVec ImcEncoder::encode_circuit(std::span<const std::uint32_t> bins,
                                        std::span<const float> weights) {
  const auto& ecfg = encoder_.config();
  const auto& lv = encoder_.level_bank();
  const std::size_t f = bins.size();

  rram::ArrayConfig acfg = cfg_.array;
  acfg.cell.levels = 1 << static_cast<int>(ecfg.id_precision);
  if (f > acfg.pair_rows()) {
    throw std::invalid_argument(
        "ImcEncoder (circuit): more peaks than array pair rows");
  }
  const double maxmag =
      static_cast<double>(hd::max_magnitude(ecfg.id_precision));

  // Program ID rows: peak r occupies pair row r; dimension d occupies a
  // column, tiled across as many arrays as needed.
  const std::size_t cols = acfg.cols;
  const std::size_t ctiles = (ecfg.dim + cols - 1) / cols;
  rram::ChipConfig chip_cfg;
  chip_cfg.array = acfg;
  chip_cfg.array_count = ctiles;
  rram::MlcChip chip(chip_cfg, rng_.next());

  std::vector<std::int8_t> id(ecfg.dim);
  for (std::size_t r = 0; r < f; ++r) {
    hd::expand_row(encoder_.id_bank().row(bins[r]), ecfg.id_precision, id);
    for (std::size_t d = 0; d < ecfg.dim; ++d) {
      chip.array(d / cols).program_weight(r, d % cols,
                                          static_cast<double>(id[d]) / maxmag);
    }
  }

  // One MVM phase per LV chunk (Fig. 5c): all dims of the chunk sensed in
  // parallel with the chunk's per-peak input signs.
  const std::vector<std::uint32_t> levels = encoder_.quantize_levels(weights);
  const std::uint32_t width = lv.chunk_width();
  std::vector<int> x(f);
  util::BitVec hv(ecfg.dim);

  for (std::uint32_t c = 0; c < lv.chunk_count(); ++c) {
    for (std::size_t r = 0; r < f; ++r) {
      x[r] = lv.chunk_sign(levels[r], c);
    }
    // The chunk's dims may straddle column-tile boundaries.
    std::uint32_t d = c * width;
    const std::uint32_t d_end = d + width;
    while (d < d_end) {
      const std::size_t tile = d / cols;
      const std::size_t col0 = d % cols;
      const std::size_t take =
          std::min<std::size_t>(d_end - d, cols - col0);
      const std::vector<double> macs =
          chip.array(tile).mvm(x, 0, f, col0, col0 + take);
      for (std::size_t k = 0; k < take; ++k) {
        if (macs[k] > 0.0) hv.set(d + k, true);
      }
      d += static_cast<std::uint32_t>(take);
    }
  }
  return hv;
}

double ImcEncoder::encoding_bit_error_rate(
    std::span<const std::vector<std::uint32_t>> bin_lists,
    std::span<const std::vector<float>> weight_lists) {
  if (bin_lists.size() != weight_lists.size()) {
    throw std::invalid_argument("encoding_bit_error_rate: size mismatch");
  }
  std::size_t flips = 0;
  std::size_t bits = 0;
  for (std::size_t i = 0; i < bin_lists.size(); ++i) {
    const util::BitVec ideal =
        encoder_.encode(bin_lists[i], weight_lists[i]);
    const util::BitVec noisy = encode(bin_lists[i], weight_lists[i]);
    flips += util::hamming_distance(ideal, noisy);
    bits += ideal.size();
  }
  return bits == 0 ? 0.0
                   : static_cast<double>(flips) / static_cast<double>(bits);
}

}  // namespace oms::accel
