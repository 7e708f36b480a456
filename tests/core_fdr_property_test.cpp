// Property/fuzz suite for the target-decoy FDR machinery: randomized PSM
// sets (duplicate scores, all-decoy, all-target, shuffled orders) checking
// the invariants the streaming engine's rolling emission leans on —
// q-value monotonicity, StreamingFdr == batch compute_q_values after every
// prefix, and that emit_confident never releases a PSM the end-of-stream
// batch filter rejects. The last test drives the invariants through a
// concurrent Rolling QueryEngine, which is why this suite also runs under
// the ThreadSanitizer CI job (ctest label: property + tsan).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <vector>

#include "core/query_engine.hpp"
#include "core/streaming_fdr.hpp"
#include "ms/synthetic.hpp"
#include "util/rng.hpp"

namespace oms::core {
namespace {

/// Random PSM stream. Scores are drawn from a small lattice so duplicate
/// scores (the tie edge case) occur constantly; decoy_p = 0 or 1 produces
/// the all-target / all-decoy degenerate streams.
std::vector<Psm> random_psms(util::Xoshiro256& rng, std::size_t n,
                             double decoy_p, std::size_t score_levels) {
  std::vector<Psm> psms(n);
  for (std::size_t i = 0; i < n; ++i) {
    psms[i].query_id = static_cast<std::uint32_t>(i);
    psms[i].peptide = "PEP" + std::to_string(i);
    psms[i].score =
        static_cast<double>(rng.below(score_levels)) /
        static_cast<double>(score_levels);
    psms[i].is_decoy = rng.bernoulli(decoy_p);
    psms[i].mass_shift = rng.bernoulli(0.5) ? 0.0 : 16.0;
  }
  return psms;
}

TEST(FdrProperty, QValuesMonotoneAndTieConsistentOverRandomSets) {
  util::Xoshiro256 rng(20240711);
  for (int trial = 0; trial < 50; ++trial) {
    const double decoy_p = trial % 10 == 0 ? 0.0
                           : trial % 10 == 1 ? 1.0
                                             : rng.uniform(0.05, 0.6);
    const auto psms =
        random_psms(rng, 1 + rng.below(200), decoy_p, 1 + rng.below(30));
    const auto q = compute_q_values(psms);

    // Rank by score; q must be non-increasing in score and 0 <= q <= 1.
    std::vector<std::size_t> order(psms.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return psms[a].score > psms[b].score;
    });
    for (std::size_t r = 1; r < order.size(); ++r) {
      EXPECT_GE(q[order[r]], q[order[r - 1]]) << "trial " << trial;
    }
    for (const double v : q) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
    // Equal scores share exactly one q-value.
    for (std::size_t i = 0; i < psms.size(); ++i) {
      for (std::size_t j = i + 1; j < psms.size(); ++j) {
        if (psms[i].score == psms[j].score) {
          EXPECT_EQ(q[i], q[j]) << "trial " << trial << " ties " << i << ","
                                << j;
        }
      }
    }
  }
}

TEST(FdrProperty, QValuesIndependentOfInputOrder) {
  util::Xoshiro256 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    auto psms = random_psms(rng, 80, 0.3, 8);
    const auto q_ref = compute_q_values(psms);
    // Map query_id -> q, then compare against shuffled inputs.
    for (int shuffle = 0; shuffle < 4; ++shuffle) {
      std::shuffle(psms.begin(), psms.end(), rng);
      const auto q = compute_q_values(psms);
      for (std::size_t i = 0; i < psms.size(); ++i) {
        EXPECT_DOUBLE_EQ(q[i], q_ref[psms[i].query_id])
            << "trial " << trial << " shuffle " << shuffle;
      }
    }
  }
}

TEST(FdrProperty, StreamingMatchesBatchAfterEveryPrefix) {
  util::Xoshiro256 rng(20240606);
  for (int trial = 0; trial < 12; ++trial) {
    const double decoy_p = trial == 0 ? 0.0 : trial == 1 ? 1.0 : 0.35;
    const auto psms = random_psms(rng, 120, decoy_p, 10);
    StreamingFdr streaming;
    std::vector<Psm> prefix;
    for (const Psm& p : psms) {
      streaming.add(p);
      prefix.push_back(p);
      const auto batch_q = compute_q_values(prefix);
      for (std::size_t i = 0; i < prefix.size(); ++i) {
        EXPECT_DOUBLE_EQ(streaming.q_value(prefix[i].score), batch_q[i])
            << "trial " << trial << " prefix " << prefix.size() << " psm "
            << i;
      }
    }
    EXPECT_EQ(streaming.size(), psms.size());
  }
}

TEST(FdrProperty, StreamingCountsMatchBruteForce) {
  util::Xoshiro256 rng(99);
  const auto psms = random_psms(rng, 150, 0.4, 12);
  StreamingFdr streaming;
  for (const Psm& p : psms) streaming.add(p);
  for (int probe = 0; probe < 30; ++probe) {
    const double s = rng.uniform();
    std::size_t targets = 0;
    std::size_t decoys = 0;
    for (const Psm& p : psms) {
      if (p.score >= s) (p.is_decoy ? decoys : targets) += 1;
    }
    EXPECT_EQ(streaming.targets_at_or_above(s), targets);
    EXPECT_EQ(streaming.decoys_at_or_above(s), decoys);
  }
}

TEST(FdrProperty, EmitConfidentNeverReleasesWhatTheFinalFilterRejects) {
  util::Xoshiro256 rng(31337);
  const double thresholds[] = {0.01, 0.05, 0.2, 1.0};
  for (int trial = 0; trial < 30; ++trial) {
    const double threshold = thresholds[trial % 4];
    const std::size_t n = 20 + rng.below(180);
    const auto psms = random_psms(rng, n, rng.uniform(0.05, 0.5),
                                  2 + rng.below(20));
    StreamingFdr streaming;
    std::vector<Psm> released;
    for (std::size_t i = 0; i < n; ++i) {
      streaming.add(psms[i], i);
      if (rng.bernoulli(0.25) || i + 1 == n) {
        // The engine's bound: every PSM still to come may be a decoy.
        for (auto& r : streaming.emit_confident(threshold, n - (i + 1))) {
          EXPECT_EQ(r.tag, r.psm.query_id);  // tags travel with the PSM
          released.push_back(std::move(r.psm));
        }
      }
    }

    const auto accepted = filter_at_fdr(psms, threshold);
    std::set<std::uint32_t> accepted_ids;
    for (const Psm& p : accepted) accepted_ids.insert(p.query_id);
    std::set<std::uint32_t> released_ids;
    for (const Psm& p : released) {
      EXPECT_FALSE(p.is_decoy);
      EXPECT_TRUE(released_ids.insert(p.query_id).second)
          << "released twice: " << p.query_id;
      EXPECT_TRUE(accepted_ids.count(p.query_id))
          << "trial " << trial << " threshold " << threshold
          << ": released PSM " << p.query_id
          << " is rejected by the final filter";
    }
    // With no future arrivals left, the bound collapses to the current
    // q-value: the final emit releases every accepted target.
    EXPECT_EQ(released_ids.size(), accepted_ids.size())
        << "trial " << trial << " threshold " << threshold;
  }
}

TEST(FdrProperty, GroupedStreamingMatchesGroupedBatchFilter) {
  util::Xoshiro256 rng(424242);
  for (int trial = 0; trial < 20; ++trial) {
    const double threshold = trial % 2 == 0 ? 0.05 : 0.3;
    const std::size_t n = 30 + rng.below(150);
    const auto psms = random_psms(rng, n, 0.3, 10);

    StreamingGroupedFdr streaming = StreamingGroupedFdr::standard_open();
    std::vector<Psm> released;
    for (std::size_t i = 0; i < n; ++i) {
      streaming.add(psms[i], i);
      if (rng.bernoulli(0.3) || i + 1 == n) {
        for (auto& r : streaming.emit_confident(threshold, n - (i + 1))) {
          released.push_back(std::move(r.psm));
        }
      }
    }

    const auto accepted = filter_at_fdr_standard_open(psms, threshold);
    std::set<std::uint32_t> accepted_ids;
    for (const Psm& p : accepted) accepted_ids.insert(p.query_id);
    std::set<std::uint32_t> released_ids;
    for (const Psm& p : released) released_ids.insert(p.query_id);
    EXPECT_EQ(released_ids, accepted_ids) << "trial " << trial;

    // Rolling q within each group agrees with the batch grouped filter's
    // acceptance decision at the end of the stream.
    const auto mask = accept_mask_at_fdr_standard_open(psms, threshold);
    for (std::size_t i = 0; i < n; ++i) {
      const bool rolling_accept =
          !psms[i].is_decoy && streaming.q_value(psms[i]) <= threshold;
      EXPECT_EQ(rolling_accept, mask[i]) << "trial " << trial << " psm " << i;
    }
  }
}

TEST(FdrProperty, EmitConfidentDegenerateStreams) {
  // All-decoy: nothing is ever released at any threshold below 1.
  {
    util::Xoshiro256 rng(5);
    StreamingFdr streaming;
    const auto psms = random_psms(rng, 60, 1.0, 6);
    for (std::size_t i = 0; i < psms.size(); ++i) {
      streaming.add(psms[i], i);
    }
    EXPECT_TRUE(streaming.emit_confident(0.99, 0).empty());
    EXPECT_EQ(streaming.pending(), 0U);  // no targets to hold
  }
  // All-target: q is 0 everywhere, but with enough future arrivals still
  // outstanding nothing clears the bound; once the stream is known to be
  // over, everything releases.
  {
    util::Xoshiro256 rng(6);
    StreamingFdr streaming;
    const auto psms = random_psms(rng, 60, 0.0, 6);
    for (std::size_t i = 0; i < psms.size(); ++i) {
      streaming.add(psms[i], i);
    }
    EXPECT_TRUE(streaming.emit_confident(0.01, 1000000).empty());
    EXPECT_EQ(streaming.emit_confident(0.01, 0).size(), psms.size());
    EXPECT_EQ(streaming.pending(), 0U);
  }
  // Duplicate scores everywhere: a single score level is one big tie.
  {
    util::Xoshiro256 rng(8);
    StreamingFdr streaming;
    const auto psms = random_psms(rng, 40, 0.25, 1);
    std::size_t targets = 0;
    for (std::size_t i = 0; i < psms.size(); ++i) {
      streaming.add(psms[i], i);
      targets += psms[i].is_decoy ? 0 : 1;
    }
    const auto q = compute_q_values(psms);
    for (const Psm& p : psms) {
      EXPECT_DOUBLE_EQ(streaming.q_value(p.score), q.front());
    }
    const auto released = streaming.emit_confident(1.0, 0);
    EXPECT_EQ(released.size(), targets);
  }
}

/// The concurrency face of the property suite: rolling emission inside a
/// live QueryEngine (emission thread + producer thread + stage workers)
/// must deliver exactly the accepted set, early releases included. Runs
/// under TSan in CI.
TEST(FdrProperty, RollingEngineDeliversExactlyTheAcceptedSet) {
  ms::WorkloadConfig wcfg;
  wcfg.reference_count = 250;
  wcfg.query_count = 120;
  wcfg.modified_fraction = 0.4;
  wcfg.seed = 20240712;
  const ms::Workload wl = ms::generate_workload(wcfg);

  PipelineConfig cfg;
  cfg.encoder.dim = 1024;
  cfg.encoder.bins = cfg.preprocess.bin_count();
  cfg.encoder.chunks = 64;
  cfg.seed = 321;

  Pipeline pipeline(cfg);
  pipeline.set_library(wl.references);

  QueryEngineConfig ecfg;
  ecfg.block_size = 8;
  ecfg.stage_threads = 3;
  ecfg.emit_policy = EmitPolicy::Rolling;
  std::mutex mu;
  std::vector<Psm> delivered;
  ecfg.on_accept = [&](const Psm& p) {
    const std::lock_guard<std::mutex> lock(mu);
    delivered.push_back(p);
  };

  QueryEngine engine(pipeline, ecfg);
  engine.submit_batch(wl.queries);
  // Closing bounds the stream, so releases start while the tail is in
  // flight on the stage workers.
  engine.close_stream();
  const PipelineResult result = engine.drain();

  ASSERT_GT(result.accepted.size(), 0U);
  const std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(delivered.size(), result.accepted.size());
  auto key = [](const Psm& p) {
    return std::make_tuple(p.query_id, p.reference_index, p.score);
  };
  std::multiset<std::tuple<std::uint32_t, std::size_t, double>> a;
  std::multiset<std::tuple<std::uint32_t, std::size_t, double>> b;
  for (const Psm& p : delivered) a.insert(key(p));
  for (const Psm& p : result.accepted) b.insert(key(p));
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace oms::core
