// Concurrency contract of the MVM-error calibration: calibrate_mvm_error
// draws every crossbar round's operands sequentially from one keyed
// stream, runs the rounds as util::ThreadPool::global() tasks and reduces
// them in round order, so its MvmErrorStats must be bit-identical at every
// global-pool size — and equal to the values the one-round-at-a-time loop
// produced, pinned below as hex floats. ImcEncoder calibrates buckets
// outside its cache lock, so concurrent precalibrate() calls must still
// agree with a serial encoder. Registered under the `tsan` ctest label so
// the ThreadSanitizer CI job covers the round tasks and the sigma cache.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "accel/error_model.hpp"
#include "accel/imc_encoder.hpp"
#include "util/thread_pool.hpp"

namespace oms::accel {
namespace {

struct Pinned {
  std::size_t pairs;
  int bits;
  std::size_t samples;
  std::uint64_t seed;
  double sigma_mac;
  double bias_gain;
  double rmse_mac;
  double rmse_normalized;
  double sigma_normalized;
};

/// Stats of the default ArrayConfig from the sequential calibration loop.
/// 1000 samples end on a partial 32-column round.
constexpr Pinned kPinned[] = {
    {8, 1, 4096, 13, 0x1.12928d282332fp-3, 0x1.db33cd3b82c6p-1,
     0x1.f238889d49953p-3, 0x1.60ca7a5e6971p-4, 0x1.84d9b141cdf4ap-5},
    {24, 3, 4096, 13, 0x1.79735f395c1e3p-2, 0x1.d7ff08c823f4ap-1,
     0x1.c9c8d266b1ff4p-2, 0x1.1acafaaad392ap-3, 0x1.d255a7f7afd86p-4},
    {64, 3, 4096, 13, 0x1.4a1ab34147f73p-1, 0x1.c35f81d7a87dap-1,
     0x1.cdea4362680cep-1, 0x1.5ab13f8441616p-3, 0x1.ef85bdb186c0ap-4},
    {128, 2, 1000, 7, 0x1.4f7c01b29d2dap+0, 0x1.a1f431f38d64ep-1,
     0x1.0360788e54f05p+1, 0x1.ed348e5ae23c7p-3, 0x1.3ef6422d7b0dp-3},
    {64, 1, 512, 5, 0x1.fa21515fed21fp-2, 0x1.c0e2e8e577963p-1,
     0x1.22c3b6e5746c6p+0, 0x1.18659517bcbdap-3, 0x1.e8154daadf9e9p-5},
};

/// First field of `got` that differs from `want`, or "" when all match.
std::string mismatch(const MvmErrorStats& got, const Pinned& want) {
  const auto field = [](const char* name, double g, double w) {
    if (g == w) return std::string();
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s %a != %a", name, g, w);
    return std::string(buf);
  };
  std::string err = field("sigma_mac", got.sigma_mac, want.sigma_mac);
  if (err.empty()) err = field("bias_gain", got.bias_gain, want.bias_gain);
  if (err.empty()) err = field("rmse_mac", got.rmse_mac, want.rmse_mac);
  if (err.empty()) {
    err = field("rmse_normalized", got.rmse_normalized, want.rmse_normalized);
  }
  if (err.empty()) {
    err = field("sigma_normalized", got.sigma_normalized,
                want.sigma_normalized);
  }
  if (err.empty() && (got.n_pairs != want.pairs || got.weight_bits != want.bits)) {
    err = "n_pairs/weight_bits not echoed";
  }
  if (err.empty()) return err;
  return "pairs " + std::to_string(want.pairs) + " bits " +
         std::to_string(want.bits) + ": " + err;
}

MvmErrorStats calibrate(const Pinned& p) {
  return calibrate_mvm_error(rram::ArrayConfig{}, p.pairs, p.bits, p.samples,
                             p.seed);
}

/// Child-process body: sizes the fresh process's global pool to
/// `threads` and checks every pinned case. Exits 0 on success; otherwise
/// prints the first mismatch and exits 1.
[[noreturn]] void check_with_global_threads(std::size_t threads) {
  const auto fail = [](const std::string& what) {
    std::fprintf(stderr, "%s\n", what.c_str());
    std::exit(1);
  };
  if (!util::ThreadPool::set_global_threads(threads) ||
      util::ThreadPool::global().thread_count() != threads) {
    fail("global pool not sized to " + std::to_string(threads));
  }
  for (const Pinned& p : kPinned) {
    const std::string err = mismatch(calibrate(p), p);
    if (!err.empty()) fail("threads=" + std::to_string(threads) + " " + err);
  }
  std::exit(0);
}

TEST(CalibrationParallel, PinnedStatsAtEveryGlobalPoolSize) {
  // The global pool is sized once per process, so each size runs in a
  // freshly executed child (threadsafe death-test style re-executes this
  // binary for just this test).
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const std::size_t threads : {1UL, 2UL, 3UL, 4UL}) {
    EXPECT_EXIT(check_with_global_threads(threads),
                testing::ExitedWithCode(0), "")
        << "threads=" << threads;
  }
}

TEST(CalibrationParallel, ConcurrentCallersShareThePool) {
  // Several threads calibrating at once all fork-join on the one global
  // pool (each caller also works its own rounds).
  std::vector<MvmErrorStats> got(std::size(kPinned));
  std::vector<std::thread> callers;
  for (std::size_t i = 0; i < got.size(); ++i) {
    callers.emplace_back([&, i] { got[i] = calibrate(kPinned[i]); });
  }
  for (std::thread& t : callers) t.join();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(mismatch(got[i], kPinned[i]), "");
  }
}

TEST(CalibrationParallel, ConcurrentPrecalibrateMatchesSerialSigmas) {
  // Calibration runs outside the encoder's cache lock, so concurrent
  // misses on one bucket may both calibrate; the cached sigma must still
  // be the serial encoder's, bucket for bucket.
  hd::EncoderConfig ecfg;
  ecfg.dim = 256;
  ecfg.chunks = 4;
  ecfg.id_precision = hd::IdPrecision::k3Bit;
  const hd::Encoder enc(ecfg);
  ImcEncoderConfig icfg;
  icfg.calibration_samples = 256;
  const std::vector<std::size_t> counts = {3, 9, 17, 33, 50, 64, 100, 128};

  ImcEncoder serial(enc, icfg);
  serial.precalibrate(counts);
  ImcEncoder shared(enc, icfg);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      // Each worker walks the buckets from a different start, so misses
      // on one bucket overlap across threads.
      std::vector<std::size_t> mine(counts.size());
      for (std::size_t i = 0; i < counts.size(); ++i) {
        mine[i] = counts[(i + 2 * t) % counts.size()];
      }
      shared.precalibrate(mine);
    });
  }
  for (std::thread& w : workers) w.join();
  for (const std::size_t n : counts) {
    EXPECT_EQ(shared.keyed_noise_sigma(n), serial.keyed_noise_sigma(n)) << n;
  }
}

TEST(CalibrationParallel, RejectsMorePairsThanTheArrayHolds) {
  const rram::ArrayConfig cfg;  // 256 rows: 128 differential pairs
  try {
    (void)calibrate_mvm_error(cfg, 129, 3, 64, 1);
    ADD_FAILURE() << "129 pairs accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("array.rows"), std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW((void)calibrate_mvm_error(cfg, 128, 3, 64, 1));
}

}  // namespace
}  // namespace oms::accel
