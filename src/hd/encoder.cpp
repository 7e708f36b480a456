#include "hd/encoder.hpp"

#include <algorithm>
#include <stdexcept>

#include "hd/kernels.hpp"

namespace oms::hd {

Encoder::Encoder(const EncoderConfig& cfg)
    : cfg_(cfg),
      ids_(cfg.bins, cfg.dim, cfg.id_precision, cfg.seed),
      levels_(cfg.levels, cfg.dim, cfg.chunks, cfg.seed) {
  if (cfg.dim == 0 || cfg.dim % 64 != 0) {
    throw std::invalid_argument("EncoderConfig: dim must be a multiple of 64");
  }
}

std::vector<std::uint32_t> Encoder::quantize_levels(
    std::span<const float> weights) const {
  float max_w = 0.0F;
  for (const float w : weights) max_w = std::max(max_w, w);
  std::vector<std::uint32_t> out(weights.size(), 0);
  if (max_w <= 0.0F) return out;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    out[i] = levels_.quantize(static_cast<double>(weights[i]) / max_w);
  }
  return out;
}

void Encoder::run_kernel(std::span<const std::uint32_t> bins,
                         std::span<const float> weights, std::uint64_t* bits,
                         std::int32_t* acc) const {
  if (bins.size() != weights.size()) {
    throw std::invalid_argument("Encoder: bins/weights size mismatch");
  }
  // Chunked LV scheme: each peak adds or subtracts its ID row, signed per
  // component by its level's sign words (chunk-constant runs, Fig. 5c). The
  // kernel sums one 64-component column block at a time across all peaks.
  const std::vector<std::uint32_t> lvls = quantize_levels(weights);
  std::vector<const std::uint64_t*> ids(bins.size());
  std::vector<const std::uint64_t*> signs(bins.size());
  for (std::size_t i = 0; i < bins.size(); ++i) {
    ids[i] = ids_.row(bins[i]).data();
    signs[i] = levels_.sign_words(lvls[i]).data();
  }
  const kernels::EncodeOperands ops{ids, signs, cfg_.dim, cfg_.id_precision};
  kernels::encode(ops, bits, acc);
}

void Encoder::accumulate(std::span<const std::uint32_t> bins,
                         std::span<const float> weights,
                         std::span<std::int32_t> acc) const {
  if (acc.size() != cfg_.dim) {
    throw std::invalid_argument("Encoder::accumulate: bad accumulator size");
  }
  run_kernel(bins, weights, nullptr, acc.data());
}

util::BitVec Encoder::encode(std::span<const std::uint32_t> bins,
                             std::span<const float> weights) const {
  util::BitVec hv(cfg_.dim);
  run_kernel(bins, weights, hv.words().data(), nullptr);
  return hv;
}

void Encoder::validate(std::span<const std::vector<std::uint32_t>> bin_lists,
                       std::span<const std::vector<float>> weight_lists) const {
  if (bin_lists.size() != weight_lists.size()) {
    throw std::invalid_argument("Encoder: batch size mismatch");
  }
  for (std::size_t i = 0; i < bin_lists.size(); ++i) {
    if (bin_lists[i].size() != weight_lists[i].size()) {
      throw std::invalid_argument("Encoder: bins/weights size mismatch");
    }
    for (const std::uint32_t bin : bin_lists[i]) {
      if (bin >= cfg_.bins) (void)ids_.row(bin);  // throws, naming the bin
    }
  }
}

std::vector<util::BitVec> Encoder::encode_batch(
    std::span<const std::vector<std::uint32_t>> bin_lists,
    std::span<const std::vector<float>> weight_lists) const {
  validate(bin_lists, weight_lists);
  std::vector<util::BitVec> out(bin_lists.size());
  util::ThreadPool::global().parallel_for(
      0, bin_lists.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          out[i] = encode(bin_lists[i], weight_lists[i]);
        }
      });
  return out;
}

}  // namespace oms::hd
