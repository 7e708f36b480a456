// Kernel microbenchmarks (google-benchmark): the Hamming-distance kernel —
// per dispatch tier (scalar / AVX2 / AVX-512-VPOPCNTDQ) — ID-Level
// encoding, preprocessing, exact top-k search, and the crossbar MVM
// circuit model. These are the software building blocks whose costs the
// performance model (bench/fig12_energy) abstracts.
//
// Besides the google-benchmark loops, a hand-rolled section measures the
// contiguous-block Hamming sweep per (dimension × tier), the multi-query
// group sweep per (tier × group size: ns per query-reference pair over
// L2-resident chunks, the "sweep_group" rows) and the ID-Level
// encoder per tier (µs per 50-peak spectrum at D = 8192, and the packed ID
// bytes each peak reads), verifies every tier is bit-identical to the
// scalar reference — for encode, a plain int32 evaluation of Eq. 1 over
// the int8 oracle rows — while timing it, and
// emits machine-readable BENCH_kernels.json (--kernels-out=...) so the
// CI artifact trail has per-PR kernel numbers. Its "imc" rows time the
// RRAM-modelled encode_keyed (per tier, with its keyed sign pass alone)
// and search_many against their unpruned reference loops and report how
// often each still draws noise, and time the MVM-error calibration per
// bucket on a one-worker pool and on the global pool. CI runs only this
// section (`--benchmark_filter=NONE` skips the gbench loops).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "accel/imc_encoder.hpp"
#include "accel/imc_search.hpp"
#include "hd/encoder.hpp"
#include "hd/kernels.hpp"
#include "hd/search.hpp"
#include "ms/preprocess.hpp"
#include "ms/synthetic.hpp"
#include "rram/array.hpp"
#include "util/bitvec.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using oms::hd::RefExtent;
using oms::hd::kernels::Tier;
namespace kernels = oms::hd::kernels;

void BM_XorPopcount(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  oms::util::BitVec a(dim);
  oms::util::BitVec b(dim);
  a.randomize(1);
  b.randomize(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oms::util::hamming_distance(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_XorPopcount)->Arg(1024)->Arg(8192)->Arg(32768);

// One pair distance through an explicit dispatch tier: range(0) = dim,
// range(1) = Tier. Unsupported tiers are skipped, not failed, so one
// static registration list serves every machine.
void BM_XorPopcountTier(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  const Tier tier = static_cast<Tier>(state.range(1));
  if (tier > kernels::best_supported()) {
    state.SkipWithError("tier unsupported on this CPU/build");
    return;
  }
  oms::util::BitVec a(dim);
  oms::util::BitVec b(dim);
  a.randomize(1);
  b.randomize(2);
  const std::size_t n = a.word_count();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::xor_popcount_tier(
        tier, a.words().data(), b.words().data(), n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * 8));
  state.SetLabel(std::string(kernels::tier_name(tier)));
}
BENCHMARK(BM_XorPopcountTier)
    ->Args({8192, 0})
    ->Args({8192, 1})
    ->Args({8192, 2})
    ->Args({32768, 0})
    ->Args({32768, 1})
    ->Args({32768, 2});

void BM_Encode(benchmark::State& state) {
  oms::hd::EncoderConfig cfg;
  cfg.dim = static_cast<std::uint32_t>(state.range(0));
  cfg.chunks = cfg.dim / 32;
  oms::hd::Encoder encoder(cfg);

  oms::util::Xoshiro256 rng(3);
  std::vector<std::uint32_t> bins;
  std::vector<float> weights;
  std::uint32_t bin = 0;
  for (int i = 0; i < 50; ++i) {
    bin += 1 + static_cast<std::uint32_t>(rng.below(100));
    bins.push_back(bin);
    weights.push_back(static_cast<float>(rng.uniform(0.05, 1.0)));
  }
  encoder.id_bank().ensure(bins);

  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(bins, weights));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Encode)->Arg(1024)->Arg(8192);

void BM_TopKSearch(benchmark::State& state) {
  const std::size_t n_refs = static_cast<std::size_t>(state.range(0));
  std::vector<oms::util::BitVec> refs(n_refs);
  for (std::size_t i = 0; i < n_refs; ++i) {
    refs[i] = oms::util::BitVec(8192);
    refs[i].randomize(i);
  }
  oms::util::BitVec query(8192);
  query.randomize(999);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        oms::hd::top_k_search(query, refs, 0, refs.size(), 5));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n_refs));
}
BENCHMARK(BM_TopKSearch)->Arg(1024)->Arg(16384);

void BM_Preprocess(benchmark::State& state) {
  const oms::ms::Peptide pep("ACDEFGHIKLMNPQRSTVWK");
  const oms::ms::SynthesisParams params{};
  const oms::ms::Spectrum spectrum =
      oms::ms::synthesize_spectrum(pep, 2, params, 7, 1);
  const oms::ms::PreprocessConfig cfg;
  oms::ms::BinnedSpectrum out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oms::ms::preprocess(spectrum, cfg, out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Preprocess);

void BM_SparseDot(benchmark::State& state) {
  const oms::ms::SynthesisParams params{};
  const oms::ms::PreprocessConfig cfg;
  const auto peptides = oms::ms::generate_tryptic_peptides(2, 15, 20, 5);
  oms::ms::BinnedSpectrum a;
  oms::ms::BinnedSpectrum b;
  (void)oms::ms::preprocess(
      oms::ms::synthesize_spectrum(peptides[0], 2, params, 1, 0), cfg, a);
  (void)oms::ms::preprocess(
      oms::ms::synthesize_spectrum(peptides[1], 2, params, 1, 1), cfg, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oms::ms::sparse_dot(a, b));
  }
}
BENCHMARK(BM_SparseDot);

void BM_CrossbarMvm(benchmark::State& state) {
  const std::size_t n_pairs = static_cast<std::size_t>(state.range(0));
  oms::rram::ArrayConfig cfg;
  oms::rram::CrossbarArray array(cfg, 11);
  oms::util::Xoshiro256 rng(4);
  for (std::size_t c = 0; c < 32; ++c) {
    for (std::size_t r = 0; r < n_pairs; ++r) {
      array.program_weight(r, c, rng.uniform(-1.0, 1.0));
    }
  }
  std::vector<int> x(n_pairs);
  for (auto& v : x) v = rng.bernoulli(0.5) ? 1 : -1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.mvm(x, 0, n_pairs, 0, 32));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_CrossbarMvm)->Arg(16)->Arg(64)->Arg(128);

// --- BENCH_kernels.json: per-(dim × tier) contiguous sweep ----------------

struct KernelPoint {
  std::size_t dim = 0;
  std::string tier;
  double ns_per_ref = 0.0;
  double gib_per_s = 0.0;
  double speedup_vs_scalar = 1.0;
  bool identical = true;  ///< Tier counts == scalar reference counts.
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times the full-block Hamming sweep for one tier; best of `reps` passes.
/// Also checks the produced distances against `expected` (scalar counts).
KernelPoint measure_sweep(std::size_t dim, Tier tier, const RefExtent& block,
                          const std::uint64_t* qwords,
                          const std::vector<std::uint32_t>& expected,
                          std::size_t reps) {
  const std::size_t wc = (dim + 63) / 64;
  std::vector<std::uint32_t> dist(block.rows);
  double best = 1e300;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const double t0 = now_s();
    kernels::hamming_sweep_tier(tier, {&qwords, 1}, block, wc, 0, block.rows,
                                dist.data(), block.rows);
    const double t1 = now_s();
    benchmark::DoNotOptimize(dist.data());
    best = std::min(best, t1 - t0);
  }

  KernelPoint p;
  p.dim = dim;
  p.tier = std::string(kernels::tier_name(tier));
  p.identical = dist == expected;
  p.ns_per_ref = best * 1e9 / static_cast<double>(block.rows);
  const double bytes = static_cast<double>(block.rows) *
                       static_cast<double>(wc) * 8.0;
  p.gib_per_s = bytes / best / (1024.0 * 1024.0 * 1024.0);
  return p;
}

struct GroupPoint {
  std::string tier;
  std::size_t group = 1;       ///< Queries per sweep call.
  double ns_per_pair = 0.0;    ///< Per (query, reference) distance.
  double speedup_vs_single = 1.0;  ///< Against group 1 on the same tier.
  bool identical = true;  ///< Distances == scalar single-query counts.
};

/// The batched-search access pattern at D = 8192: kQueries queries swept
/// chunk by chunk (kernels::sweep_chunk_rows, L2-resident) over one
/// contiguous block, `group` queries per hamming_sweep_tier call, every
/// distance written straight into a queries x rows matrix (out_stride =
/// rows, wider than any chunk). Best of `reps` passes per tier and group
/// size; every distance is checked against the scalar pair kernel.
std::vector<GroupPoint> measure_sweep_groups(std::size_t reps) {
  constexpr std::size_t kDim = 8192;
  constexpr std::size_t kWords = kDim / 64;
  constexpr std::size_t kRows = 2048;
  constexpr std::size_t kQueries = 48;  // whole groups of 1, 2, 3 and 4
  oms::util::SplitMix64 sm(0x6E0C4);
  std::vector<std::uint64_t> block(kRows * kWords);
  for (auto& w : block) w = sm.next();
  std::vector<std::uint64_t> qwords(kQueries * kWords);
  for (auto& w : qwords) w = sm.next();
  const RefExtent extent{block.data(), kWords, kRows, 0};
  std::vector<const std::uint64_t*> queries;
  for (std::size_t q = 0; q < kQueries; ++q) {
    queries.push_back(qwords.data() + q * kWords);
  }
  std::vector<std::uint32_t> expected(kQueries * kRows);
  for (std::size_t q = 0; q < kQueries; ++q) {
    for (std::size_t i = 0; i < kRows; ++i) {
      expected[q * kRows + i] =
          static_cast<std::uint32_t>(kernels::xor_popcount_tier(
              Tier::kScalar, queries[q], block.data() + i * kWords, kWords));
    }
  }

  const std::size_t chunk = kernels::sweep_chunk_rows(kWords);
  std::vector<GroupPoint> points;
  for (const Tier tier : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    if (tier > kernels::best_supported()) continue;
    double single_ns = 0.0;
    for (std::size_t group = 1; group <= kernels::kSweepGroup; ++group) {
      std::vector<std::uint32_t> dist(kQueries * kRows, 0xFFFFFFFFU);
      double best = 1e300;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const double t0 = now_s();
        for (std::size_t c0 = 0; c0 < kRows; c0 += chunk) {
          const std::size_t c1 = std::min(kRows, c0 + chunk);
          for (std::size_t q0 = 0; q0 < kQueries; q0 += group) {
            kernels::hamming_sweep_tier(
                tier, {queries.data() + q0, std::min(group, kQueries - q0)},
                extent, kWords, c0, c1, dist.data() + q0 * kRows + c0, kRows);
          }
        }
        best = std::min(best, now_s() - t0);
        benchmark::DoNotOptimize(dist.data());
        benchmark::ClobberMemory();
      }
      GroupPoint p;
      p.tier = std::string(kernels::tier_name(tier));
      p.group = group;
      p.ns_per_pair = best * 1e9 / static_cast<double>(kQueries * kRows);
      if (group == 1) single_ns = p.ns_per_pair;
      p.speedup_vs_single = single_ns / p.ns_per_pair;
      p.identical = dist == expected;
      points.push_back(std::move(p));
    }
  }
  return points;
}

struct EncodePoint {
  std::string tier;
  double us_per_spectrum = 0.0;
  double speedup_vs_scalar = 1.0;
  std::size_t id_row_bytes_per_peak = 0;  ///< Packed ID bytes one peak reads.
  bool identical = true;  ///< Tier hypervectors == the int32 reference.
};

/// Sign() of the plain int32 Eq. 1 sums over the int8 oracle rows
/// (IdBank::generate_row), with the parity tie-break: what every tier of
/// the packed-row kernel must reproduce.
oms::util::BitVec reference_encode(const oms::hd::Encoder& encoder,
                                   const std::vector<std::uint32_t>& bins,
                                   const std::vector<float>& weights) {
  const std::uint32_t dim = encoder.config().dim;
  const std::uint32_t width = encoder.level_bank().chunk_width();
  const std::vector<std::uint32_t> levels = encoder.quantize_levels(weights);
  std::vector<std::int32_t> sums(dim, 0);
  std::vector<std::int8_t> id(dim);
  for (std::size_t p = 0; p < bins.size(); ++p) {
    encoder.id_bank().generate_row(bins[p], id);
    for (std::uint32_t d = 0; d < dim; ++d) {
      sums[d] += id[d] * encoder.level_bank().chunk_sign(levels[p], d / width);
    }
  }
  oms::util::BitVec hv(dim);
  for (std::uint32_t d = 0; d < dim; ++d) {
    hv.set(d, sums[d] > 0 || (sums[d] == 0 && (d & 1) != 0));
  }
  return hv;
}

/// Times Encoder::encode per tier over `spectra` (best of `reps` passes)
/// and checks every hypervector against the int32 reference.
std::vector<EncodePoint> measure_encode(std::size_t reps) {
  constexpr std::size_t kSpectra = 64;
  constexpr std::size_t kPeaks = 50;
  oms::hd::EncoderConfig cfg;  // paper shape: D = 8192, 3-bit IDs
  oms::hd::Encoder encoder(cfg);
  // Bins drawn uniformly over the whole bank, as a real spectrum's peaks
  // spread over the m/z range: the ID rows are not cache-resident.
  oms::util::Xoshiro256 rng(0xE1C0DE);
  std::vector<std::vector<std::uint32_t>> bins(kSpectra);
  std::vector<std::vector<float>> weights(kSpectra);
  for (std::size_t i = 0; i < kSpectra; ++i) {
    for (std::size_t p = 0; p < kPeaks; ++p) {
      bins[i].push_back(static_cast<std::uint32_t>(rng.below(cfg.bins)));
      weights[i].push_back(static_cast<float>(rng.uniform(0.05, 1.0)));
    }
    encoder.id_bank().ensure(bins[i]);
  }
  std::vector<oms::util::BitVec> expected;
  for (std::size_t i = 0; i < kSpectra; ++i) {
    expected.push_back(reference_encode(encoder, bins[i], weights[i]));
  }

  const Tier saved = kernels::active_tier();
  std::vector<EncodePoint> points;
  for (const Tier tier : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    if (tier > kernels::best_supported()) continue;
    kernels::set_active_tier(tier);
    std::vector<oms::util::BitVec> hvs(kSpectra);
    double best = 1e300;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const double t0 = now_s();
      for (std::size_t i = 0; i < kSpectra; ++i) {
        hvs[i] = encoder.encode(bins[i], weights[i]);
      }
      best = std::min(best, now_s() - t0);
      benchmark::DoNotOptimize(hvs.data());
    }
    EncodePoint p;
    p.tier = std::string(kernels::tier_name(tier));
    p.us_per_spectrum = best * 1e6 / static_cast<double>(kSpectra);
    p.speedup_vs_scalar = points.empty()
                              ? 1.0
                              : points.front().us_per_spectrum /
                                    p.us_per_spectrum;
    p.id_row_bytes_per_peak =
        encoder.id_bank().row_words() * sizeof(std::uint64_t);
    p.identical = hvs == expected;
    points.push_back(std::move(p));
  }
  kernels::set_active_tier(saved);
  return points;
}

/// encode_keyed on one dispatch tier, at the paper shape (64 spectra of
/// 50 peaks, D = 8192, 3-bit IDs), next to the unpruned reference loop —
/// every component draws its noise — and checked for identity against it.
struct KeyedEncodePoint {
  std::string tier;
  double us_per_spectrum = 0.0;
  double sign_pass_us_per_spectrum = 0.0;  ///< kernels::keyed_sign_pass alone.
  double reference_us_per_spectrum = 0.0;
  double draw_frac = 0.0;  ///< Components this tier's sign pass leaves.
  bool identical = true;
};

/// search_many's (query, candidate) pairs against the engine's unpruned
/// reference loop, with the fraction of pairs that still draw.
struct KeyedSearchPoint {
  double ns_per_candidate = 0.0;
  double reference_ns_per_candidate = 0.0;
  double draw_frac = 0.0;
  bool identical = true;
};

/// MVM-error calibration at one pool size against all threads.
struct CalibrationPoint {
  std::vector<std::size_t> pairs;  ///< Buckets calibrated, 3-bit weights.
  std::size_t samples = 0;
  double ms_per_bucket_pool1 = 0.0;  ///< A one-worker pool (plus caller).
  double ms_per_bucket_all = 0.0;    ///< The global pool.
  std::size_t threads = 0;           ///< Global pool workers.
  bool identical = true;             ///< Same stats, field for field.
};

std::vector<KeyedEncodePoint> measure_keyed_encode(std::size_t reps) {
  namespace accel = oms::accel;
  namespace util = oms::util;
  constexpr std::size_t kSpectra = 64;
  constexpr std::size_t kPeaks = 50;
  const oms::hd::EncoderConfig cfg;
  oms::hd::Encoder encoder(cfg);
  accel::ImcEncoderConfig icfg;
  icfg.calibration_samples = 1024;
  accel::ImcEncoder imc(encoder, icfg);
  util::Xoshiro256 rng(0x1AC0DE);
  std::vector<std::vector<std::uint32_t>> bins(kSpectra);
  std::vector<std::vector<float>> weights(kSpectra);
  for (std::size_t i = 0; i < kSpectra; ++i) {
    for (std::size_t p = 0; p < kPeaks; ++p) {
      bins[i].push_back(static_cast<std::uint32_t>(rng.below(cfg.bins)));
      weights[i].push_back(static_cast<float>(rng.uniform(0.05, 1.0)));
    }
    encoder.id_bank().ensure(bins[i]);
  }
  imc.precalibrate(bins);

  // The reference: exact sums, then every component draws.
  std::vector<std::vector<std::int32_t>> acc(kSpectra);
  std::vector<double> sigma(kSpectra);
  std::vector<std::uint64_t> key(kSpectra);
  std::vector<util::BitVec> ref(kSpectra);
  double best_ref = 1e300;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < kSpectra; ++i) {
      acc[i].assign(cfg.dim, 0);
      encoder.accumulate(bins[i], weights[i], acc[i]);
      sigma[i] = imc.keyed_noise_sigma(bins[i].size());
      key[i] = util::hash_combine(icfg.seed, i, 0xE2C0ULL);
      ref[i] = util::BitVec(cfg.dim);
      for (std::size_t d = 0; d < cfg.dim; ++d) {
        if (static_cast<double>(acc[i][d]) +
                sigma[i] * util::counter_normal(key[i], d) >
            0.0) {
          ref[i].set(d, true);
        }
      }
    }
    best_ref = std::min(best_ref, now_s() - t0);
    benchmark::DoNotOptimize(ref.data());
  }

  const Tier saved = kernels::active_tier();
  std::vector<KeyedEncodePoint> points;
  for (const Tier tier : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    if (tier > kernels::best_supported()) continue;
    kernels::set_active_tier(tier);
    std::vector<util::BitVec> hvs(kSpectra);
    std::vector<std::uint64_t> words(cfg.dim / 64);
    std::vector<std::uint32_t> undecided(cfg.dim);
    std::size_t draws = 0;
    double best = 1e300;
    double best_pass = 1e300;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      double t0 = now_s();
      for (std::size_t i = 0; i < kSpectra; ++i) {
        hvs[i] = imc.encode_keyed(bins[i], weights[i], i);
      }
      best = std::min(best, now_s() - t0);
      benchmark::DoNotOptimize(hvs.data());

      draws = 0;
      t0 = now_s();
      for (std::size_t i = 0; i < kSpectra; ++i) {
        draws += kernels::keyed_sign_pass(acc[i], sigma[i], key[i],
                                          words.data(), undecided.data());
      }
      best_pass = std::min(best_pass, now_s() - t0);
      benchmark::DoNotOptimize(words.data());
    }
    KeyedEncodePoint p;
    p.tier = std::string(kernels::tier_name(tier));
    p.us_per_spectrum = best * 1e6 / kSpectra;
    p.sign_pass_us_per_spectrum = best_pass * 1e6 / kSpectra;
    p.reference_us_per_spectrum = best_ref * 1e6 / kSpectra;
    p.draw_frac = static_cast<double>(draws) /
                  static_cast<double>(kSpectra * cfg.dim);
    p.identical = hvs == ref;
    points.push_back(std::move(p));
  }
  kernels::set_active_tier(saved);
  return points;
}

/// Calibrates the 3-bit buckets of 8..64 pairs at the production sample
/// count, on a one-worker pool and on the global pool (best of `reps`
/// passes each), and checks every field of every bucket's stats agrees.
CalibrationPoint measure_calibration(std::size_t reps) {
  namespace accel = oms::accel;
  namespace util = oms::util;
  CalibrationPoint point;
  point.pairs = {8, 16, 24, 32, 40, 48, 56, 64};
  point.samples = 4096;
  const oms::rram::ArrayConfig array;
  const auto run = [&](util::ThreadPool& pool,
                       std::vector<accel::MvmErrorStats>& stats) {
    double best = 1e300;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      stats.clear();
      const double t0 = now_s();
      for (const std::size_t pairs : point.pairs) {
        stats.push_back(accel::calibrate_mvm_error(array, pairs, 3,
                                                   point.samples, 13, pool));
      }
      best = std::min(best, now_s() - t0);
    }
    return best * 1e3 / static_cast<double>(point.pairs.size());
  };
  util::ThreadPool one(1);
  std::vector<accel::MvmErrorStats> serial;
  std::vector<accel::MvmErrorStats> parallel;
  point.ms_per_bucket_pool1 = run(one, serial);
  point.ms_per_bucket_all = run(util::ThreadPool::global(), parallel);
  point.threads = util::ThreadPool::global().thread_count();
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const accel::MvmErrorStats& a = serial[i];
    const accel::MvmErrorStats& b = parallel[i];
    point.identical = point.identical && a.sigma_mac == b.sigma_mac &&
                      a.bias_gain == b.bias_gain && a.rmse_mac == b.rmse_mac &&
                      a.rmse_normalized == b.rmse_normalized &&
                      a.sigma_normalized == b.sigma_normalized;
  }
  return point;
}

KeyedSearchPoint measure_keyed_search(std::size_t reps) {
  namespace accel = oms::accel;
  namespace util = oms::util;
  KeyedSearchPoint point;

  // A block of 16 open-window queries (each a 25%-flipped
  // copy of one reference) over 4096 contiguous references, k = 1.
  constexpr std::size_t kDim = 8192;
  constexpr std::size_t kRefs = 4096;
  constexpr std::size_t kQueries = 16;
  constexpr std::size_t kWords = kDim / 64;
  constexpr std::size_t kTop = 1;
  util::SplitMix64 sm(0x5EA6C4);
  std::vector<std::uint64_t> block(kRefs * kWords);
  for (auto& w : block) w = sm.next();
  std::vector<util::BitVec> refs;
  for (std::size_t i = 0; i < kRefs; ++i) {
    refs.push_back(util::BitVec::view(block.data() + i * kWords, kDim));
  }
  std::vector<util::BitVec> hvs;
  for (std::size_t q = 0; q < kQueries; ++q) {
    util::BitVec hv = refs[(q * 997) % kRefs];
    for (std::size_t f = 0; f < kDim / 4; ++f) hv.flip(sm.next() % kDim);
    hvs.push_back(std::move(hv));
  }
  std::vector<oms::hd::BatchQuery> queries;
  for (std::size_t q = 0; q < kQueries; ++q) {
    queries.push_back({&hvs[q], 0, kRefs, 100 + q});
  }
  accel::ImcSearchConfig scfg;
  scfg.calibration_samples = 1024;
  const accel::ImcSearchEngine engine(refs, scfg);
  const double margin = util::kCounterNormalMax * engine.phase_sigma() *
                        std::sqrt(static_cast<double>(kDim / 64));

  std::vector<std::vector<oms::hd::SearchHit>> hits;
  std::vector<std::vector<oms::hd::SearchHit>> ref(kQueries);
  std::size_t draws = 0;
  double best = 1e300;
  double best_ref = 1e300;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    double t0 = now_s();
    hits = engine.search_many(queries, kTop);
    best = std::min(best, now_s() - t0);
    benchmark::DoNotOptimize(hits.data());

    t0 = now_s();
    for (std::size_t q = 0; q < kQueries; ++q) {
      ref[q].clear();
      for (std::size_t i = 0; i < kRefs; ++i) {
        if (rep == 0) {  // counted once; best-of timing skips this pass
          const double exact =
              static_cast<double>(kDim) -
              2.0 * static_cast<double>(kernels::xor_popcount(
                        hvs[q].words().data(), refs[i].words().data(),
                        kWords));
          draws += ref[q].size() < kTop ||
                   engine.gain() * exact + margin + 1.0 >
                       static_cast<double>(ref[q].back().dot);
        }
        const double d = engine.dot_keyed(hvs[q], i, queries[q].stream);
        oms::hd::insert_top_k(
            ref[q],
            oms::hd::SearchHit{i, std::llround(d),
                               (d / static_cast<double>(kDim) + 1.0) / 2.0},
            kTop);
      }
    }
    best_ref = std::min(best_ref, now_s() - t0);
    benchmark::DoNotOptimize(ref.data());
  }
  const double pairs = static_cast<double>(kQueries * kRefs);
  point.ns_per_candidate = best * 1e9 / pairs;
  point.reference_ns_per_candidate = best_ref * 1e9 / pairs;
  point.draw_frac = static_cast<double>(draws) / pairs;
  point.identical = hits == ref;
  return point;
}

int run_kernel_sweeps(const std::string& out_path) {
  // Row counts per dimension keep each sweep ~1-4 MiB: larger than L2, so
  // the numbers reflect the streaming sweep the search actually runs, yet
  // fast enough for CI.
  struct Shape {
    std::size_t dim;
    std::size_t rows;
  };
  const Shape shapes[] = {{1024, 8192}, {8192, 2048}, {32768, 512}};
  const std::size_t reps = 7;

  std::vector<KernelPoint> points;
  bool all_identical = true;
  std::printf("\nContiguous Hamming sweep, best of %zu passes "
              "(best_supported=%s):\n",
              reps, std::string(kernels::tier_name(kernels::best_supported()))
                        .c_str());
  for (const Shape& s : shapes) {
    const std::size_t wc = (s.dim + 63) / 64;
    oms::util::SplitMix64 sm(0xBE7C4 + s.dim);
    std::vector<std::uint64_t> block(wc * s.rows);
    for (auto& w : block) w = sm.next();
    std::vector<std::uint64_t> qwords(wc);
    for (auto& w : qwords) w = sm.next();
    const RefExtent extent{block.data(), wc, s.rows, 0};

    // Scalar counts are the shared reference for timing *and* identity.
    std::vector<std::uint32_t> expected(s.rows);
    const std::uint64_t* query = qwords.data();
    kernels::hamming_sweep_tier(Tier::kScalar, {&query, 1}, extent, wc, 0,
                                s.rows, expected.data(), s.rows);

    double scalar_ns = 0.0;
    for (const Tier tier : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
      if (tier > kernels::best_supported()) continue;
      KernelPoint p = measure_sweep(s.dim, tier, extent, qwords.data(),
                                    expected, reps);
      if (tier == Tier::kScalar) scalar_ns = p.ns_per_ref;
      p.speedup_vs_scalar = scalar_ns > 0.0 ? scalar_ns / p.ns_per_ref : 1.0;
      all_identical = all_identical && p.identical;
      std::printf("  D=%-6zu %-7s %9.1f ns/ref  %7.2f GiB/s  %5.2fx%s\n",
                  p.dim, p.tier.c_str(), p.ns_per_ref, p.gib_per_s,
                  p.speedup_vs_scalar,
                  p.identical ? "" : "  !! MISMATCH vs scalar");
      points.push_back(std::move(p));
    }
  }

  std::printf("\nMulti-query sweep, D=8192, L2-resident chunks, best of %zu "
              "passes:\n",
              reps);
  const std::vector<GroupPoint> group_points = measure_sweep_groups(reps);
  for (const GroupPoint& p : group_points) {
    all_identical = all_identical && p.identical;
    std::printf("  %-7s group %zu %9.2f ns/pair  %5.2fx vs group 1%s\n",
                p.tier.c_str(), p.group, p.ns_per_pair, p.speedup_vs_single,
                p.identical ? "" : "  !! MISMATCH vs scalar");
  }

  std::printf("\nID-Level encode, D=8192, 50 peaks, best of %zu passes:\n",
              reps);
  const std::vector<EncodePoint> encode_points = measure_encode(reps);
  for (const EncodePoint& p : encode_points) {
    all_identical = all_identical && p.identical;
    std::printf("  %-7s %9.2f us/spectrum  %5.2fx  %zu B of ID row/peak%s\n",
                p.tier.c_str(), p.us_per_spectrum, p.speedup_vs_scalar,
                p.id_row_bytes_per_peak,
                p.identical ? "" : "  !! MISMATCH vs int32 reference");
  }

  std::printf("\nRRAM-modelled paths, D=8192, best of %zu passes:\n", reps);
  const std::vector<KeyedEncodePoint> keyed = measure_keyed_encode(reps);
  for (const KeyedEncodePoint& p : keyed) {
    all_identical = all_identical && p.identical;
    std::printf("  encode_keyed %-7s %8.2f us/spectrum (sign pass %.2f, "
                "reference %.2f)  draws %.2f%% of components%s\n",
                p.tier.c_str(), p.us_per_spectrum,
                p.sign_pass_us_per_spectrum, p.reference_us_per_spectrum,
                100.0 * p.draw_frac,
                p.identical ? "" : "  !! MISMATCH vs reference");
  }
  const KeyedSearchPoint search = measure_keyed_search(reps);
  all_identical = all_identical && search.identical;
  std::printf("  search_many          %8.2f ns/candidate (reference %.2f)  "
              "draws %.2f%% of pairs%s\n",
              search.ns_per_candidate, search.reference_ns_per_candidate,
              100.0 * search.draw_frac,
              search.identical ? "" : "  !! MISMATCH vs reference");
  const CalibrationPoint cal = measure_calibration(3);
  all_identical = all_identical && cal.identical;
  std::printf("  calibration          %8.2f ms/bucket at pool size 1, %.2f "
              "at %zu threads (3-bit, %zu samples)%s\n",
              cal.ms_per_bucket_pool1, cal.ms_per_bucket_all, cal.threads,
              cal.samples,
              cal.identical ? "" : "  !! MISMATCH across pool sizes");

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"kernels\",\n  \"best_supported\": \""
      << kernels::tier_name(kernels::best_supported())
      << "\",\n  \"all_identical\": " << (all_identical ? "true" : "false")
      << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const KernelPoint& p = points[i];
    out << "    {\"dim\": " << p.dim << ", \"tier\": \"" << p.tier
        << "\", \"ns_per_ref\": " << p.ns_per_ref
        << ", \"gib_per_s\": " << p.gib_per_s
        << ", \"speedup_vs_scalar\": " << p.speedup_vs_scalar
        << ", \"identical\": " << (p.identical ? "true" : "false") << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"sweep_group\": [\n";
  for (std::size_t i = 0; i < group_points.size(); ++i) {
    const GroupPoint& p = group_points[i];
    out << "    {\"dim\": 8192, \"tier\": \"" << p.tier
        << "\", \"group\": " << p.group
        << ", \"ns_per_pair\": " << p.ns_per_pair
        << ", \"speedup_vs_single\": " << p.speedup_vs_single
        << ", \"identical\": " << (p.identical ? "true" : "false") << "}"
        << (i + 1 < group_points.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"encode\": [\n";
  for (std::size_t i = 0; i < encode_points.size(); ++i) {
    const EncodePoint& p = encode_points[i];
    out << "    {\"dim\": 8192, \"peaks\": 50, \"tier\": \"" << p.tier
        << "\", \"us_per_spectrum\": " << p.us_per_spectrum
        << ", \"speedup_vs_scalar\": " << p.speedup_vs_scalar
        << ", \"id_row_bytes_per_peak\": " << p.id_row_bytes_per_peak
        << ", \"identical\": " << (p.identical ? "true" : "false") << "}"
        << (i + 1 < encode_points.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"imc\": [\n";
  for (const KeyedEncodePoint& p : keyed) {
    out << "    {\"path\": \"encode_keyed\", \"dim\": 8192, \"peaks\": 50, "
        << "\"tier\": \"" << p.tier
        << "\", \"us_per_spectrum\": " << p.us_per_spectrum
        << ", \"sign_pass_us_per_spectrum\": " << p.sign_pass_us_per_spectrum
        << ", \"reference_us_per_spectrum\": " << p.reference_us_per_spectrum
        << ", \"draw_frac\": " << p.draw_frac
        << ", \"identical\": " << (p.identical ? "true" : "false") << "},\n";
  }
  out << "    {\"path\": \"search_many\", \"dim\": 8192, \"k\": 1, "
      << "\"ns_per_candidate\": " << search.ns_per_candidate
      << ", \"reference_ns_per_candidate\": "
      << search.reference_ns_per_candidate
      << ", \"draw_frac\": " << search.draw_frac
      << ", \"identical\": " << (search.identical ? "true" : "false")
      << "},\n"
      << "    {\"path\": \"calibration\", \"weight_bits\": 3, \"pairs\": [";
  for (std::size_t i = 0; i < cal.pairs.size(); ++i) {
    out << (i > 0 ? ", " : "") << cal.pairs[i];
  }
  out << "], \"samples\": " << cal.samples
      << ", \"ms_per_bucket_pool1\": " << cal.ms_per_bucket_pool1
      << ", \"ms_per_bucket_all_threads\": " << cal.ms_per_bucket_all
      << ", \"threads\": " << cal.threads
      << ", \"identical\": " << (cal.identical ? "true" : "false")
      << "}\n  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return all_identical ? 0 : 1;  // a mismatch fails the bench run loudly
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);  // consumes --benchmark_* flags
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Leftover argv (our flags) goes through the repo's Cli parser.
  const oms::util::Cli cli(argc, argv);
  const std::string out_path =
      cli.get("kernels-out", std::string("BENCH_kernels.json"));
  return run_kernel_sweeps(out_path);
}
