#include "core/query_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ms/synthetic.hpp"

namespace oms::core {
namespace {

/// Shared small workload: generating spectra is the expensive part, so the
/// suite builds it once.
const ms::Workload& shared_workload() {
  static const ms::Workload wl = [] {
    ms::WorkloadConfig cfg;
    cfg.reference_count = 300;
    cfg.query_count = 120;
    cfg.modified_fraction = 0.4;
    cfg.unmatched_fraction = 0.15;
    cfg.seed = 20240606;
    return ms::generate_workload(cfg);
  }();
  return wl;
}

PipelineConfig small_config(const std::string& backend) {
  PipelineConfig cfg;
  cfg.encoder.dim = 1024;
  cfg.encoder.bins = cfg.preprocess.bin_count();
  cfg.encoder.chunks = 64;
  cfg.backend_options.calibration_samples = 256;
  cfg.backend_name = backend;
  cfg.seed = 777;
  return cfg;
}

void expect_same_psms(const PipelineResult& a, const PipelineResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.queries_in, b.queries_in) << what;
  EXPECT_EQ(a.queries_searched, b.queries_searched) << what;
  ASSERT_EQ(a.psms.size(), b.psms.size()) << what;
  for (std::size_t i = 0; i < a.psms.size(); ++i) {
    EXPECT_EQ(a.psms[i].query_id, b.psms[i].query_id) << what << " psm " << i;
    EXPECT_EQ(a.psms[i].reference_index, b.psms[i].reference_index)
        << what << " psm " << i;
    EXPECT_EQ(a.psms[i].score, b.psms[i].score) << what << " psm " << i;
    EXPECT_EQ(a.psms[i].is_decoy, b.psms[i].is_decoy) << what << " psm " << i;
    EXPECT_EQ(a.psms[i].mass_shift, b.psms[i].mass_shift)
        << what << " psm " << i;
  }
  ASSERT_EQ(a.accepted.size(), b.accepted.size()) << what;
  EXPECT_EQ(a.identification_set(), b.identification_set()) << what;
}

/// The tentpole contract: interleaved streaming admission, any block size,
/// any worker count — PSM lists bit-identical to the synchronous run, for
/// every registered backend.
void check_streaming_matches_run(const std::string& backend) {
  const ms::Workload& wl = shared_workload();

  Pipeline reference(small_config(backend));
  reference.set_library(wl.references);
  const PipelineResult sync = reference.run(wl.queries);
  ASSERT_GT(sync.psms.size(), 0U) << backend;

  const std::size_t block_sizes[] = {1, 7, 64};
  const std::size_t thread_counts[] = {1, 2, 4};
  for (const std::size_t block : block_sizes) {
    for (const std::size_t threads : thread_counts) {
      Pipeline streamed(small_config(backend));
      streamed.set_library(wl.references);

      QueryEngineConfig ecfg;
      ecfg.block_size = block;
      ecfg.stage_threads = threads;
      ecfg.queue_blocks = 3;
      QueryEngine engine(streamed, ecfg);
      // Interleave one-by-one submission with chunked admission.
      std::size_t i = 0;
      for (; i < wl.queries.size() && i < 10; ++i) {
        engine.submit(wl.queries[i]);
      }
      const std::size_t half = i + (wl.queries.size() - i) / 2;
      engine.submit_batch(std::span<const ms::Spectrum>(
          wl.queries.data() + i, half - i));
      for (i = half; i < wl.queries.size(); ++i) engine.submit(wl.queries[i]);

      const PipelineResult streamed_result = engine.drain();
      expect_same_psms(sync, streamed_result,
                       backend + " B=" + std::to_string(block) +
                           " T=" + std::to_string(threads));

      const QueryEngineStats stats = engine.stats();
      EXPECT_EQ(stats.submitted, wl.queries.size());
      EXPECT_EQ(stats.searched, sync.queries_searched);
      EXPECT_EQ(stats.block_size, block);
      EXPECT_EQ(stats.blocks, (stats.searched + block - 1) / block);
    }
  }
}

/// Sorts PSMs into the deterministic order of the final accepted list so
/// callback deliveries (which arrive in clearance order) can be compared
/// bit-for-bit against drain().accepted.
void sort_like_accepted(std::vector<Psm>& psms) {
  std::sort(psms.begin(), psms.end(),
            [](const Psm& a, const Psm& b) { return a.query_id < b.query_id; });
}

void expect_same_psm_lists(const std::vector<Psm>& a, const std::vector<Psm>& b,
                           const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].query_id, b[i].query_id) << what << " psm " << i;
    EXPECT_EQ(a[i].reference_index, b[i].reference_index) << what << " " << i;
    EXPECT_EQ(a[i].score, b[i].score) << what << " psm " << i;
    EXPECT_EQ(a[i].peptide, b[i].peptide) << what << " psm " << i;
    EXPECT_EQ(a[i].mass_shift, b[i].mass_shift) << what << " psm " << i;
  }
}

/// The rolling contract: with EmitPolicy::Rolling the engine's callback
/// delivers exactly drain().accepted (early releases plus the drain-time
/// flush, nothing twice), drain() itself is bit-identical to the AtDrain
/// run, and early emission actually happens on this workload.
void check_rolling_matches_at_drain(const std::string& backend,
                                    std::size_t block,
                                    std::size_t threads) {
  const ms::Workload& wl = shared_workload();

  Pipeline reference(small_config(backend));
  reference.set_library(wl.references);
  const PipelineResult sync = reference.run(wl.queries);
  ASSERT_GT(sync.accepted.size(), 0U) << backend;

  Pipeline streamed(small_config(backend));
  streamed.set_library(wl.references);

  QueryEngineConfig ecfg;
  ecfg.block_size = block;
  ecfg.stage_threads = threads;
  ecfg.queue_blocks = 3;
  ecfg.emit_policy = EmitPolicy::Rolling;
  std::mutex mu;
  std::vector<Psm> delivered;
  ecfg.on_accept = [&](const Psm& p) {
    const std::lock_guard<std::mutex> lock(mu);
    delivered.push_back(p);
  };

  QueryEngine engine(streamed, ecfg);
  // Interleave one-by-one submission with chunked admission, as in the
  // AtDrain harness.
  std::size_t i = 0;
  for (; i < wl.queries.size() && i < 10; ++i) engine.submit(wl.queries[i]);
  const std::size_t half = i + (wl.queries.size() - i) / 2;
  engine.submit_batch(
      std::span<const ms::Spectrum>(wl.queries.data() + i, half - i));
  for (i = half; i < wl.queries.size(); ++i) engine.submit(wl.queries[i]);
  // Closing bounds the stream, so confident hits release before drain.
  engine.close_stream();

  const PipelineResult streamed_result = engine.drain();
  const std::string what = backend + " rolling B=" + std::to_string(block) +
                           " T=" + std::to_string(threads);
  expect_same_psms(sync, streamed_result, what);

  const std::lock_guard<std::mutex> lock(mu);
  std::vector<Psm> sorted = delivered;
  sort_like_accepted(sorted);
  expect_same_psm_lists(sorted, streamed_result.accepted, what);

  const QueryEngineStats stats = engine.stats();
  EXPECT_LE(stats.early_emitted, streamed_result.accepted.size()) << what;
  // The shared workload has a solid block of confident hits; rolling
  // emission must release some of them before the drain.
  EXPECT_GT(stats.early_emitted, 0U) << what;
}

TEST(QueryEngine, RollingMatchesAtDrainIdealHd) {
  for (const std::size_t block : {1UL, 7UL, 64UL}) {
    check_rolling_matches_at_drain("ideal-hd", block, 2);
  }
  for (const std::size_t threads : {1UL, 3UL, 4UL}) {
    check_rolling_matches_at_drain("ideal-hd", 16, threads);
  }
}

TEST(QueryEngine, RollingMatchesAtDrainRramStatistical) {
  check_rolling_matches_at_drain("rram-statistical", 8, 2);
  check_rolling_matches_at_drain("rram-statistical", 32, 4);
}

TEST(QueryEngine, RollingMatchesAtDrainSharded) {
  check_rolling_matches_at_drain("sharded", 16, 2);
}

TEST(QueryEngine, RollingMatchesAtDrainRramCircuit) {
  // Non-thread-safe backend: rolling rides the single-threaded stage path.
  ms::WorkloadConfig wcfg;
  wcfg.reference_count = 25;
  wcfg.query_count = 8;
  wcfg.seed = 99;
  const ms::Workload wl = ms::generate_workload(wcfg);

  PipelineConfig cfg = small_config("rram-circuit");
  cfg.encoder.dim = 256;
  cfg.encoder.chunks = 32;
  cfg.add_decoys = false;

  Pipeline reference(cfg);
  reference.set_library(wl.references);
  const PipelineResult sync = reference.run(wl.queries);

  Pipeline streamed(cfg);
  streamed.set_library(wl.references);
  QueryEngineConfig ecfg;
  ecfg.block_size = 3;
  ecfg.stage_threads = 4;  // forced down to 1
  ecfg.emit_policy = EmitPolicy::Rolling;
  std::vector<Psm> delivered;  // single-threaded stages; no lock needed
  std::mutex mu;
  ecfg.on_accept = [&](const Psm& p) {
    const std::lock_guard<std::mutex> lock(mu);
    delivered.push_back(p);
  };
  QueryEngine engine(streamed, ecfg);
  engine.submit_batch(wl.queries);
  engine.close_stream();
  const PipelineResult streamed_result = engine.drain();
  expect_same_psms(sync, streamed_result, "rram-circuit rolling");
  sort_like_accepted(delivered);
  expect_same_psm_lists(delivered, streamed_result.accepted,
                        "rram-circuit rolling");
}

TEST(QueryEngine, RollingWithoutCloseFlushesEverythingAtDrain) {
  // Stream never closed before drain: the bound can never retire the
  // adversarial future, so nothing releases early — but the callback
  // still sees the full accepted list via the drain flush.
  const ms::Workload& wl = shared_workload();
  Pipeline pipeline(small_config("ideal-hd"));
  pipeline.set_library(wl.references);

  QueryEngineConfig ecfg;
  ecfg.emit_policy = EmitPolicy::Rolling;
  std::mutex mu;
  std::vector<Psm> delivered;
  ecfg.on_accept = [&](const Psm& p) {
    const std::lock_guard<std::mutex> lock(mu);
    delivered.push_back(p);
  };
  QueryEngine engine(pipeline, ecfg);
  engine.submit_batch(wl.queries);
  const PipelineResult result = engine.drain();
  EXPECT_EQ(engine.stats().early_emitted, 0U);
  sort_like_accepted(delivered);
  expect_same_psm_lists(delivered, result.accepted, "unclosed rolling");
}

TEST(QueryEngine, CloseReleasesEverythingBeforeDrain) {
  // close_stream() bounds the stream by the submitted count, so every PSM
  // the final filter accepts is released through on_accept before
  // drain() is even called — on a stream that stops partway through the
  // workload, with nothing declared up front.
  const ms::Workload& wl = shared_workload();
  const std::size_t submitted = wl.queries.size() / 2;
  const std::span<const ms::Spectrum> queries(wl.queries.data(), submitted);

  Pipeline reference(small_config("ideal-hd"));
  reference.set_library(wl.references);
  const PipelineResult sync =
      reference.run(std::vector<ms::Spectrum>(queries.begin(), queries.end()));
  ASSERT_GT(sync.accepted.size(), 0U);

  Pipeline streamed(small_config("ideal-hd"));
  streamed.set_library(wl.references);
  QueryEngineConfig ecfg;
  ecfg.block_size = 8;
  ecfg.stage_threads = 2;
  ecfg.emit_policy = EmitPolicy::Rolling;
  std::mutex mu;
  std::vector<Psm> delivered;
  ecfg.on_accept = [&](const Psm& p) {
    const std::lock_guard<std::mutex> lock(mu);
    delivered.push_back(p);
  };
  QueryEngine engine(streamed, ecfg);
  engine.submit_batch(queries);
  engine.close_stream();

  // With the stream closed the in-flight tail resolves on engine threads;
  // every finally-accepted PSM must surface through the callback without
  // drain()'s help. Bounded wait, then assert.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (delivered.size() >= sync.accepted.size()) break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "close_stream() did not release the accepted PSMs";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  const PipelineResult result = engine.drain();
  expect_same_psms(sync, result, "close-then-drain");
  const std::lock_guard<std::mutex> lock(mu);
  std::vector<Psm> sorted = delivered;
  sort_like_accepted(sorted);
  expect_same_psm_lists(sorted, result.accepted, "close-then-drain");
  // Everything was an early release; the drain flush had nothing left.
  EXPECT_EQ(engine.stats().early_emitted, result.accepted.size());
}

TEST(QueryEngine, StreamingMatchesRunIdealHd) {
  check_streaming_matches_run("ideal-hd");
}

TEST(QueryEngine, StreamingMatchesRunRramStatistical) {
  check_streaming_matches_run("rram-statistical");
}

TEST(QueryEngine, StreamingMatchesRunSharded) {
  check_streaming_matches_run("sharded");
}

TEST(QueryEngine, StreamingMatchesRunShardedMultiShard) {
  // Same contract with several shards actually in play.
  const ms::Workload& wl = shared_workload();
  PipelineConfig cfg = small_config("sharded");
  cfg.backend_options.max_refs_per_shard = 70;

  Pipeline reference(cfg);
  reference.set_library(wl.references);
  ASSERT_GT(reference.backend_stats().shards, 1U);
  const PipelineResult sync = reference.run(wl.queries);

  Pipeline streamed(cfg);
  streamed.set_library(wl.references);
  QueryEngineConfig ecfg;
  ecfg.block_size = 16;
  ecfg.stage_threads = 3;
  QueryEngine engine(streamed, ecfg);
  engine.submit_batch(wl.queries);
  expect_same_psms(sync, engine.drain(), "sharded multi-shard");
}

TEST(QueryEngine, StreamingMatchesRunRramCircuit) {
  // The circuit backend carries engine state, so the engine serves it with
  // single-threaded stages and in-order blocks; two freshly built
  // pipelines must agree between run() and streaming. Tiny workload: the
  // circuit path simulates every analog phase.
  ms::WorkloadConfig wcfg;
  wcfg.reference_count = 25;
  wcfg.query_count = 8;
  wcfg.seed = 99;
  const ms::Workload wl = ms::generate_workload(wcfg);

  PipelineConfig cfg = small_config("rram-circuit");
  cfg.encoder.dim = 256;
  cfg.encoder.chunks = 32;
  cfg.add_decoys = false;

  Pipeline reference(cfg);
  reference.set_library(wl.references);
  const PipelineResult sync = reference.run(wl.queries);

  Pipeline streamed(cfg);
  streamed.set_library(wl.references);
  QueryEngineConfig ecfg;
  ecfg.block_size = 3;
  ecfg.stage_threads = 4;  // forced down to 1 for non-thread-safe backends
  QueryEngine engine(streamed, ecfg);
  engine.submit_batch(wl.queries);
  const PipelineResult streamed_result = engine.drain();
  expect_same_psms(sync, streamed_result, "rram-circuit");
  EXPECT_EQ(engine.stats().stage_threads, 1U);
}

TEST(QueryEngine, RescoringCascadeAndChargeToleranceMatch) {
  // The rescore stage (top-k shifted-dot cascade) and the charge-tolerant
  // interpretation fan-out must survive the move into the engine.
  const ms::Workload& wl = shared_workload();
  PipelineConfig cfg = small_config("ideal-hd");
  cfg.rescore_top_k = 5;
  cfg.charge_tolerant = true;

  Pipeline reference(cfg);
  reference.set_library(wl.references);
  const PipelineResult sync = reference.run(wl.queries);

  Pipeline streamed(cfg);
  streamed.set_library(wl.references);
  QueryEngineConfig ecfg;
  ecfg.block_size = 9;
  ecfg.stage_threads = 2;
  QueryEngine engine(streamed, ecfg);
  engine.submit_batch(wl.queries);
  expect_same_psms(sync, engine.drain(), "rescore+charge");
}

TEST(QueryEngine, RequiresLibrary) {
  Pipeline pipeline(small_config("ideal-hd"));
  EXPECT_THROW(QueryEngine engine(pipeline), std::logic_error);
}

TEST(QueryEngine, SubmitAfterDrainThrows) {
  const ms::Workload& wl = shared_workload();
  Pipeline pipeline(small_config("ideal-hd"));
  pipeline.set_library(wl.references);
  QueryEngine engine(pipeline);
  engine.submit(wl.queries.front());
  (void)engine.drain();
  EXPECT_THROW(engine.submit(wl.queries.front()), std::logic_error);
  EXPECT_THROW((void)engine.drain(), std::logic_error);
}

// A non-finite query must be dropped at preprocess — never encoded and
// searched as if valid — and the drop accounting identity must still hold.
TEST(QueryEngine, NonFiniteQueriesAreDroppedAtPreprocess) {
  const ms::Workload& wl = shared_workload();
  Pipeline pipeline(small_config("ideal-hd"));
  pipeline.set_library(wl.references);

  PipelineResult clean_result;
  QueryEngineStats clean_stats;
  {
    QueryEngine engine(pipeline);
    engine.submit_batch(wl.queries);
    clean_result = engine.drain();
    clean_stats = engine.stats();
  }

  std::vector<ms::Spectrum> queries = wl.queries;
  const ms::Spectrum& seed = wl.queries.front();
  ASSERT_GE(seed.peaks.size(), 2U);
  std::vector<ms::Spectrum> bad(3, seed);
  bad[0].peaks[1].intensity = std::numeric_limits<float>::quiet_NaN();
  bad[1].peaks[0].mz = std::numeric_limits<double>::quiet_NaN();
  bad[2].precursor_mz = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < bad.size(); ++k) {
    bad[k].id = 1000000 + static_cast<std::uint32_t>(k);
    queries.insert(queries.begin() + static_cast<std::ptrdiff_t>(7 * k + 3),
                   bad[k]);
  }

  QueryEngine engine(pipeline);
  engine.submit_batch(queries);
  const PipelineResult result = engine.drain();
  const QueryEngineStats stats = engine.stats();

  EXPECT_EQ(stats.submitted, queries.size());
  EXPECT_EQ(stats.dropped_preprocess, clean_stats.dropped_preprocess + 3);
  EXPECT_EQ(stats.searched, clean_stats.searched);
  EXPECT_EQ(stats.submitted,
            stats.emitted + stats.dropped_preprocess + stats.empty_window);
  ASSERT_EQ(result.psms.size(), clean_result.psms.size());
  for (std::size_t i = 0; i < result.psms.size(); ++i) {
    EXPECT_EQ(result.psms[i].query_id, clean_result.psms[i].query_id) << i;
    EXPECT_EQ(result.psms[i].reference_index,
              clean_result.psms[i].reference_index)
        << i;
    EXPECT_EQ(result.psms[i].score, clean_result.psms[i].score) << i;
  }
  EXPECT_EQ(result.identification_set(), clean_result.identification_set());
}

// A stage that throws fails the stream: the producer is never left blocked
// on back-pressure, failed() reports it and drain() rethrows the first
// exception.
TEST(QueryEngine, ThrowingSearchGateFailsTheStream) {
  const ms::Workload& wl = shared_workload();
  Pipeline pipeline(small_config("ideal-hd"));
  pipeline.set_library(wl.references);
  QueryEngineConfig ecfg;
  ecfg.block_size = 1;
  ecfg.queue_blocks = 1;
  ecfg.stage_threads = 2;
  std::atomic<std::size_t> gated{0};
  ecfg.search_gate = [&](const std::function<void()>& run_block) {
    if (gated.fetch_add(1) + 1 == 4) throw std::runtime_error("gate 4");
    run_block();
  };
  QueryEngine engine(pipeline, ecfg);
  engine.submit_batch(wl.queries);  // returns although the stream failed
  EXPECT_TRUE(engine.failed());
  try {
    (void)engine.drain();
    FAIL() << "drain() did not rethrow the gate's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "gate 4");
  }
}

TEST(QueryEngine, ThrowingOnAcceptFailsTheStreamAfterClose) {
  const ms::Workload& wl = shared_workload();
  Pipeline pipeline(small_config("ideal-hd"));
  pipeline.set_library(wl.references);
  QueryEngineConfig ecfg;
  ecfg.block_size = 8;
  ecfg.stage_threads = 2;
  ecfg.emit_policy = EmitPolicy::Rolling;
  ecfg.on_accept = [](const Psm&) { throw std::runtime_error("on_accept"); };
  QueryEngine engine(pipeline, ecfg);
  engine.submit_batch(wl.queries);
  engine.close_stream();
  try {
    (void)engine.drain();
    FAIL() << "drain() did not rethrow on_accept's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "on_accept");
  }
  // The release after close_stream() ran on the emission thread, so the
  // exception failed the stream rather than escaping drain()'s flush.
  EXPECT_TRUE(engine.failed());
}

TEST(QueryEngine, ThrowingBackendSearchBatchFailsTheStream) {
  struct ThrowingBackend final : SearchBackend {
    [[nodiscard]] std::string_view name() const noexcept override {
      return "throwing-batch";
    }
    [[nodiscard]] std::vector<hd::SearchHit> top_k(
        const util::BitVec&, std::size_t, std::size_t, std::size_t,
        std::uint64_t) override {
      return {};
    }
    [[nodiscard]] std::vector<std::vector<hd::SearchHit>> search_batch(
        std::span<const Query>, std::size_t) override {
      throw std::runtime_error("search_batch");
    }
    [[nodiscard]] BackendStats stats() const override {
      return BackendStats{"throwing-batch", 0, 1, 0, 0.0, 1.0};
    }
  };
  BackendRegistry::instance().register_backend(
      "test-throwing-batch",
      [](std::span<const util::BitVec>, const BackendOptions&) {
        return std::make_unique<ThrowingBackend>();
      });
  const ms::Workload& wl = shared_workload();
  Pipeline pipeline(small_config("test-throwing-batch"));
  pipeline.set_library(wl.references);
  QueryEngineConfig ecfg;
  ecfg.block_size = 4;
  ecfg.queue_blocks = 2;
  ecfg.stage_threads = 2;
  QueryEngine engine(pipeline, ecfg);
  engine.submit_batch(wl.queries);
  try {
    (void)engine.drain();
    FAIL() << "drain() did not rethrow search_batch's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "search_batch");
  }
  EXPECT_TRUE(engine.failed());
}

TEST(QueryEngine, DrainWithoutSubmissionsIsEmpty) {
  const ms::Workload& wl = shared_workload();
  Pipeline pipeline(small_config("ideal-hd"));
  pipeline.set_library(wl.references);
  QueryEngine engine(pipeline);
  const PipelineResult result = engine.drain();
  EXPECT_EQ(result.queries_in, 0U);
  EXPECT_EQ(result.queries_searched, 0U);
  EXPECT_TRUE(result.psms.empty());
  EXPECT_GT(result.library_targets, 0U);
}

TEST(QueryEngine, BatchedBackendsReportBlockAccounting) {
  const ms::Workload& wl = shared_workload();
  Pipeline pipeline(small_config("rram-statistical"));
  pipeline.set_library(wl.references);
  QueryEngine engine(pipeline);
  engine.submit_batch(wl.queries);
  (void)engine.drain();
  const BackendStats stats = pipeline.backend_stats();
  EXPECT_GT(stats.query_blocks, 0U);
  EXPECT_GT(stats.batched_queries, 0U);
  EXPECT_GT(stats.queries_per_block(), 0.0);
}

}  // namespace
}  // namespace oms::core
