#include "hd/id_bank.hpp"

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <tuple>

#include "util/rng.hpp"

namespace oms::hd {

namespace {

/// Golden-ratio stride between the counters of one row's hash words.
constexpr std::uint64_t kWordStride = 0x9e3779b97f4a7c15ULL;

/// Padding after every row slot: one cache line, so the same column block
/// of different rows does not map to one L1 set (a 4 KiB row stride would).
constexpr std::size_t kSlotPadWords = 8;

/// Seed of one row's hash-word stream: independent per (seed, bin).
std::uint64_t row_seed(std::uint64_t seed, std::uint32_t bin) noexcept {
  return util::hash_combine(seed, bin, 0x4944ULL);
}

enum RowState : std::uint8_t { kEmpty = 0, kWriting = 1, kReady = 2 };

struct FreeRegion {
  void operator()(std::uint64_t* p) const noexcept { std::free(p); }
};

}  // namespace

struct IdStore {
  IdStore(std::uint32_t bins, std::size_t row_words)
      : stride(row_words + kSlotPadWords),
        state(std::make_unique<std::atomic<std::uint8_t>[]>(bins)) {
    // Page-aligned and never written before a row is: large regions come
    // straight from the OS, resident page by page as rows are published.
    const std::size_t bytes = std::size_t{bins} * stride * sizeof(std::uint64_t);
    rows.reset(static_cast<std::uint64_t*>(
        std::aligned_alloc(4096, (bytes + 4095) / 4096 * 4096)));
    if (!rows && bytes != 0) throw std::bad_alloc();
  }

  std::size_t stride;  ///< Words between consecutive row slots.
  std::unique_ptr<std::atomic<std::uint8_t>[]> state;  ///< RowState per bin.
  std::unique_ptr<std::uint64_t[], FreeRegion> rows;
};

namespace {

/// The process-wide stores, one per key. Intentionally never destroyed:
/// rows stay valid for encoders that outlive static teardown.
struct Registry {
  using Key = std::tuple<std::uint64_t, std::uint32_t, std::uint32_t,
                         IdPrecision>;  // seed, bins, dim, precision
  std::mutex mutex;
  std::map<Key, std::unique_ptr<IdStore>> stores;
};

Registry& registry() {
  static Registry* const r = new Registry;
  return *r;
}

}  // namespace

void expand_row(std::span<const std::uint64_t> packed, IdPrecision precision,
                std::span<std::int8_t> out) {
  const std::array<std::int8_t, 16> lut = nibble_values(precision);
  for (std::size_t d = 0; d < out.size(); ++d) {
    out[d] = lut[(packed[d / 16] >> (4 * (d % 16))) & 15];
  }
}

IdBank::IdBank(std::uint32_t bins, std::uint32_t dim, IdPrecision precision,
               std::uint64_t seed)
    : bins_(bins), dim_(dim), precision_(precision), seed_(seed) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  auto& store = r.stores[{seed, bins, dim, precision}];
  if (!store) store = std::make_unique<IdStore>(bins, row_words());
  store_ = store.get();
}

void IdBank::generate_row(std::uint32_t bin,
                          std::span<std::int8_t> out) const {
  // Counter-based generation: every 64-bit word of entropy yields 16
  // components (4 bits each: 1 sign bit + up to 2 magnitude bits). The
  // stream is independent per (seed, bin, word index).
  const int mags = magnitude_count(precision_);
  const std::uint64_t rs = row_seed(seed_, bin);
  std::uint32_t produced = 0;
  std::uint64_t counter = 0;
  while (produced < dim_) {
    std::uint64_t word = util::mix64(rs ^ (counter++ * kWordStride));
    for (int k = 0; k < 16 && produced < dim_; ++k, word >>= 4) {
      const int sign = (word & 1) ? 1 : -1;
      // Odd magnitudes 1, 3, ..., 2^p - 1, uniform.
      const int mag =
          2 * (static_cast<int>((word >> 1) & 3) % mags) + 1;
      out[produced++] = static_cast<std::int8_t>(sign * mag);
    }
  }
}

std::span<const std::uint64_t> IdBank::row(std::uint32_t bin) const {
  if (bin >= bins_) {
    throw std::out_of_range("IdBank: bin " + std::to_string(bin) +
                            " out of range (bins = " + std::to_string(bins_) +
                            ")");
  }
  std::uint64_t* const slot = store_->rows.get() + bin * store_->stride;
  std::atomic<std::uint8_t>& state = store_->state[bin];
  std::uint8_t seen = state.load(std::memory_order_acquire);
  if (seen != kReady) {
    if (seen == kEmpty && state.compare_exchange_strong(
                              seen, kWriting, std::memory_order_acquire)) {
      const std::uint64_t rs = row_seed(seed_, bin);
      for (std::size_t c = 0; c < row_words(); ++c) {
        slot[c] = util::mix64(rs ^ (c * kWordStride));
      }
      state.store(kReady, std::memory_order_release);
      state.notify_all();
    } else {
      // Another thread claimed the slot: wait for its one row.
      while ((seen = state.load(std::memory_order_acquire)) != kReady) {
        state.wait(seen, std::memory_order_acquire);
      }
    }
  }
  return {slot, row_words()};
}

void IdBank::ensure(std::span<const std::uint32_t> bins) const {
  for (const std::uint32_t bin : bins) (void)row(bin);
}

}  // namespace oms::hd
