// Concurrent first touches of the process-wide ID store: threads with
// their own fresh encoders (or banks) on one key race to publish
// overlapping rows. Every thread must see the same published row pointers
// and encode the same hypervectors; run under ThreadSanitizer (label
// `tsan`), this also checks that publication is race-free.
#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include "hd/encoder.hpp"
#include "util/rng.hpp"

namespace oms::hd {
namespace {

constexpr std::size_t kThreads = 8;
constexpr std::size_t kSpectra = 12;
constexpr std::size_t kPeaks = 30;
constexpr std::uint32_t kBins = 300;  // few bins: heavy overlap

struct ThreadView {
  std::vector<const std::uint64_t*> rows;  ///< row(bin).data(), bin order
  std::vector<util::BitVec> hvs;           ///< spectrum order
};

TEST(IdBankConcurrency, FirstTouchThroughEncodePublishesOneRowPerBin) {
  for (const std::uint64_t seed : {0xA11CE0ULL, 0xA11CE1ULL, 0xA11CE2ULL}) {
    EncoderConfig cfg;
    cfg.dim = 1024;
    cfg.bins = kBins;
    cfg.levels = 16;
    cfg.chunks = 32;
    cfg.seed = seed;  // a fresh key per round: every row starts cold

    util::Xoshiro256 rng(seed);
    std::vector<std::vector<std::uint32_t>> bins(kSpectra);
    std::vector<std::vector<float>> weights(kSpectra);
    for (std::size_t i = 0; i < kSpectra; ++i) {
      for (std::size_t p = 0; p < kPeaks; ++p) {
        bins[i].push_back(static_cast<std::uint32_t>(rng.below(kBins)));
        weights[i].push_back(static_cast<float>(rng.uniform(0.05, 1.0)));
      }
    }

    std::vector<ThreadView> views(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const Encoder enc(cfg);
        ThreadView& view = views[t];
        view.hvs.resize(kSpectra);
        start.arrive_and_wait();
        // Each thread walks the spectra from a different offset, so first
        // touches of shared bins collide in every order.
        for (std::size_t k = 0; k < kSpectra; ++k) {
          const std::size_t i = (k + t * 5) % kSpectra;
          view.hvs[i] = enc.encode(bins[i], weights[i]);
        }
        for (std::uint32_t b = 0; b < kBins; ++b) {
          view.rows.push_back(enc.id_bank().row(b).data());
        }
      });
    }
    for (std::thread& th : threads) th.join();

    for (std::size_t t = 1; t < kThreads; ++t) {
      EXPECT_EQ(views[t].rows, views[0].rows) << "thread " << t;
      EXPECT_EQ(views[t].hvs, views[0].hvs) << "thread " << t;
    }
    const IdBank bank(cfg.bins, cfg.dim, cfg.id_precision, cfg.seed);
    std::vector<std::int8_t> expanded(cfg.dim);
    std::vector<std::int8_t> fresh(cfg.dim);
    for (const std::uint32_t b : bins.front()) {
      expand_row(bank.row(b), cfg.id_precision, expanded);
      bank.generate_row(b, fresh);
      ASSERT_EQ(expanded, fresh) << "bin " << b;
    }
  }
}

TEST(IdBankConcurrency, RowsTouchedInLockstepWaitForOneWriter) {
  // All threads first-touch the same rows in the same order, so most
  // touches find the row claimed by another thread mid-write and wait.
  constexpr std::uint32_t kDim = 4096;
  constexpr std::uint64_t kSeed = 0xB0B0B0ULL;
  std::vector<std::vector<const std::uint64_t*>> rows(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const IdBank bank(kBins, kDim, IdPrecision::k3Bit, kSeed);
      start.arrive_and_wait();
      for (std::uint32_t b = 0; b < kBins; ++b) {
        rows[t].push_back(bank.row(b).data());
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(rows[t], rows[0]) << "thread " << t;
  }
  const IdBank bank(kBins, kDim, IdPrecision::k3Bit, kSeed);
  std::vector<std::int8_t> expanded(kDim);
  std::vector<std::int8_t> fresh(kDim);
  for (std::uint32_t b = 0; b < kBins; b += 37) {
    expand_row(bank.row(b), IdPrecision::k3Bit, expanded);
    bank.generate_row(b, fresh);
    ASSERT_EQ(expanded, fresh) << "bin " << b;
  }
}

}  // namespace
}  // namespace oms::hd
