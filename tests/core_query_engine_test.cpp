#include "core/query_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
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
#include "util/thread_pool.hpp"

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
      ecfg.max_in_flight = 3 * block;
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
  ecfg.max_in_flight = 3 * block;
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
  check_rolling_matches_at_drain("rram-statistical", 16, 2);
  check_rolling_matches_at_drain("rram-statistical", 32, 4);
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

TEST(QueryEngine, StreamingMatchesRunShardedMultiShard) {
  // Same contract with several chip slices in play.
  const ms::Workload& wl = shared_workload();
  PipelineConfig cfg = small_config("rram-statistical");
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
  expect_same_psms(sync, engine.drain(), "many chip slices");
  // Every backend is reentrant, so no backend narrows the stages.
  EXPECT_EQ(engine.stats().stage_threads, 3U);
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

/// A backend that finds nothing. Each search_batch call first hands its
/// queries to `on_search`, which may record them or throw.
class StubBackend final : public SearchBackend {
 public:
  using Hook = std::function<void(std::span<const Query>)>;
  explicit StubBackend(Hook on_search) : on_search_(std::move(on_search)) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "stub";
  }
  [[nodiscard]] std::vector<hd::SearchHit> top_k(
      const util::BitVec&, std::size_t, std::size_t, std::size_t,
      std::uint64_t) override {
    return {};
  }
  [[nodiscard]] std::vector<std::vector<hd::SearchHit>> search_batch(
      std::span<const Query> queries, std::size_t) override {
    on_search_(queries);
    return std::vector<std::vector<hd::SearchHit>>(queries.size());
  }
  [[nodiscard]] BackendStats stats() const override {
    return BackendStats{"stub", 0, 1, 0, 0.0, 1.0};
  }

 private:
  const Hook on_search_;
};

/// Registers `name` as a StubBackend whose search_batch calls `on_search`.
void register_stub(const std::string& name, StubBackend::Hook on_search) {
  BackendRegistry::instance().register_backend(
      name, [on_search = std::move(on_search)](std::span<const util::BitVec>,
                                               const BackendOptions&) {
        return std::make_unique<StubBackend>(on_search);
      });
}

// A block that throws fails the stream: the producer is never left
// blocked on back-pressure, failed() reports it and drain() rethrows the
// first exception.
TEST(QueryEngine, ThrowingBackendSearchBatchFailsTheStream) {
  struct Case {
    std::size_t throw_at, block_size, max_in_flight;
    const char* what;
  };
  // throw_at 0: every search_batch throws; otherwise only the
  // throw_at-th does. max_in_flight == block_size runs blocks one at a
  // time, so the throw_at-th call is the first to fail.
  const Case cases[] = {{0, 4, 8, "search_batch"},
                        {4, 1, 1, "search_batch 4"}};
  const ms::Workload& wl = shared_workload();
  for (const Case& c : cases) {
    auto calls = std::make_shared<std::atomic<std::size_t>>(0);
    register_stub("test-throwing-batch",
                  [calls, throw_at = c.throw_at](std::span<const Query>) {
                    const std::size_t call = calls->fetch_add(1) + 1;
                    if (throw_at == 0) throw std::runtime_error("search_batch");
                    if (call == throw_at) {
                      throw std::runtime_error("search_batch " +
                                               std::to_string(call));
                    }
                  });
    Pipeline pipeline(small_config("test-throwing-batch"));
    pipeline.set_library(wl.references);
    QueryEngineConfig ecfg;
    ecfg.block_size = c.block_size;
    ecfg.max_in_flight = c.max_in_flight;
    ecfg.stage_threads = 2;
    QueryEngine engine(pipeline, ecfg);
    engine.submit_batch(wl.queries);  // returns although the stream failed
    EXPECT_TRUE(engine.failed()) << c.what;
    try {
      (void)engine.drain();
      ADD_FAILURE() << "drain() did not rethrow " << c.what;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), c.what);
    }
    EXPECT_TRUE(engine.failed()) << c.what;
  }
}

// An in-flight bound below the block size caps the block: a stream at its
// bound always has a block in flight, so a lone producer never waits on an
// open block that cannot fill. Results stay those of the synchronous run.
TEST(QueryEngine, InFlightBoundBelowBlockSizeCapsTheBlock) {
  const ms::Workload& wl = shared_workload();
  const std::vector<ms::Spectrum> queries(wl.queries.begin(),
                                          wl.queries.begin() + 40);
  QueryEngineConfig ecfg;
  ecfg.block_size = 64;
  ecfg.max_in_flight = 3;
  ecfg.stage_threads = 2;

  Pipeline reference(small_config("ideal-hd"));
  reference.set_library(wl.references);
  const PipelineResult want = reference.run(queries);
  Pipeline streamed(small_config("ideal-hd"));
  streamed.set_library(wl.references);
  QueryEngine engine(streamed, ecfg);
  engine.submit_batch(queries);
  expect_same_psms(want, engine.drain(), "max_in_flight 3 < block_size 64");
  EXPECT_EQ(engine.stats().block_size, 3U);

  // Distinct spectra per search_batch call: the block's queries that met a
  // candidate window (each may ask for several precursor interpretations).
  std::mutex mu;
  std::vector<std::size_t> block_sizes;
  register_stub("test-recording-blocks", [&](std::span<const Query> batch) {
    std::vector<std::uint64_t> ids;
    for (const Query& q : batch) ids.push_back(q.stream);
    std::sort(ids.begin(), ids.end());
    const auto distinct = static_cast<std::size_t>(
        std::unique(ids.begin(), ids.end()) - ids.begin());
    const std::lock_guard<std::mutex> lock(mu);
    block_sizes.push_back(distinct);
  });
  Pipeline recorded(small_config("test-recording-blocks"));
  recorded.set_library(wl.references);
  QueryEngine stub_engine(recorded, ecfg);
  stub_engine.submit_batch(queries);
  const PipelineResult stub_result = stub_engine.drain();
  const std::lock_guard<std::mutex> lock(mu);
  std::size_t searched = 0;
  for (const std::size_t n : block_sizes) {
    EXPECT_LE(n, 3U);
    searched += n;
  }
  EXPECT_GT(searched, 0U);
  EXPECT_LE(searched, stub_result.queries_searched);
}

/// Threads in this process, from /proc/self/status; 0 where unavailable.
std::size_t process_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

TEST(QueryEngine, EnginesStartNoThreads) {
  // Blocks run on the global pool and on the callers' threads, so engines
  // — live, filled or drained — never change the process thread count.
  const ms::Workload& wl = shared_workload();
  Pipeline pipeline(small_config("ideal-hd"));
  pipeline.set_library(wl.references);
  (void)util::ThreadPool::global();
  const std::size_t before = process_threads();
  if (before == 0) GTEST_SKIP() << "no Threads: line in /proc/self/status";

  QueryEngineConfig ecfg;
  ecfg.block_size = 4;
  ecfg.stage_threads = 2;
  ecfg.max_in_flight = 8;
  const std::span<const ms::Spectrum> queries(wl.queries.data(), 12);
  std::size_t most = before;
  for (int i = 0; i < 200; ++i) {
    QueryEngine engine(pipeline, ecfg);
    engine.submit_batch(queries);
    most = std::max(most, process_threads());
    EXPECT_EQ(engine.drain().queries_in, queries.size());
  }
  EXPECT_EQ(most, before);
  EXPECT_EQ(process_threads(), before);
}

TEST(QueryEngine, StreamsInsideEveryPoolWorkerFinish) {
  // Every worker of the global pool runs a stream at once, with one block's
  // queries in flight allowed: nothing is left to run posted block tasks,
  // so each producer and drain() must run its blocks itself. A pool task
  // that waited on back-pressure instead would deadlock here.
  const ms::Workload& wl = shared_workload();
  util::ThreadPool& pool = util::ThreadPool::global();
  const std::size_t workers = pool.thread_count();
  const std::vector<ms::Spectrum> queries(wl.queries.begin(),
                                          wl.queries.begin() + 40);
  Pipeline reference(small_config("ideal-hd"));
  reference.set_library(wl.references);
  const PipelineResult want = reference.run(queries);

  std::vector<std::unique_ptr<Pipeline>> pipelines;
  for (std::size_t w = 0; w < workers; ++w) {
    pipelines.push_back(std::make_unique<Pipeline>(small_config("ideal-hd")));
    pipelines.back()->set_library(wl.references);
  }
  std::vector<PipelineResult> got(workers);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t started = 0;
  std::size_t finished = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    pool.post([&, w] {
      {
        // Hold every worker before any stream starts.
        std::unique_lock<std::mutex> lock(mu);
        ++started;
        cv.notify_all();
        cv.wait(lock, [&] { return started == workers; });
      }
      QueryEngineConfig ecfg;
      ecfg.block_size = 4;
      ecfg.stage_threads = 2;
      ecfg.max_in_flight = 4;
      QueryEngine engine(*pipelines[w], ecfg);
      engine.submit_batch(queries);
      PipelineResult result = engine.drain();
      const std::lock_guard<std::mutex> lock(mu);
      got[w] = std::move(result);
      ++finished;
      cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  if (!cv.wait_for(lock, std::chrono::seconds(120),
                   [&] { return finished == workers; })) {
    ADD_FAILURE() << "streams inside the pool workers did not finish";
    std::abort();  // the blocked workers could never be joined
  }
  for (std::size_t w = 0; w < workers; ++w) {
    expect_same_psms(want, got[w], "worker " + std::to_string(w));
  }
}

/// Child-process body of the fairness test: on a one-worker global pool,
/// stream A admits 8 one-query blocks, then stream B admits one, while the
/// worker is held; once released, the worker must reach B's block before
/// A's third. Exits 0 on success; otherwise prints the search order and
/// exits 1.
[[noreturn]] void check_streams_take_turns_on_one_worker() {
  const auto fail = [](const std::string& what) {
    std::fprintf(stderr, "%s\n", what.c_str());
    std::exit(1);
  };
  if (!util::ThreadPool::set_global_threads(1) ||
      util::ThreadPool::global().thread_count() != 1) {
    fail("global pool not sized to 1");
  }
  const ms::Workload& wl = shared_workload();
  // A query that survives preprocessing and meets a candidate window.
  Pipeline exact(small_config("ideal-hd"));
  exact.set_library(wl.references);
  const PipelineResult found = exact.run(wl.queries);
  if (found.psms.empty()) fail("no query produced a PSM");
  const auto probe = std::find_if(
      wl.queries.begin(), wl.queries.end(), [&](const ms::Spectrum& q) {
        return q.id == found.psms.front().query_id;
      });

  // Written only by the one pool worker, which runs every block.
  std::vector<std::uint64_t> log;
  register_stub("test-recording", [&log](std::span<const Query> queries) {
    if (!queries.empty()) log.push_back(queries.front().stream);
  });
  Pipeline pa(small_config("test-recording"));
  Pipeline pb(small_config("test-recording"));
  pa.set_library(wl.references);
  pb.set_library(wl.references);
  QueryEngineConfig ecfg;
  ecfg.block_size = 1;
  ecfg.max_in_flight = 8;
  ecfg.stage_threads = 1;
  QueryEngine a(pa, ecfg);
  QueryEngine b(pb, ecfg);

  // Hold the one worker, so both streams' tasks queue behind this one.
  std::mutex mu;
  std::condition_variable cv;
  bool held = false;
  bool release = false;
  util::ThreadPool::global().post([&] {
    std::unique_lock<std::mutex> lock(mu);
    held = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return held; });
  }
  for (std::uint32_t id = 1; id <= 8; ++id) {
    ms::Spectrum q = *probe;
    q.id = id;
    if (!a.try_submit(std::move(q))) fail("A's block was not admitted");
  }
  ms::Spectrum qb = *probe;
  qb.id = 100;
  if (!b.try_submit(std::move(qb))) fail("B's block was not admitted");
  {
    const std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  // Let the worker run every block before drain(), which would run
  // pending blocks on this thread.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (a.outstanding() + b.outstanding() != 0) {
    if (std::chrono::steady_clock::now() > deadline) fail("blocks never ran");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  (void)a.drain();
  (void)b.drain();
  std::string order;
  for (const std::uint64_t id : log) order += " " + std::to_string(id);
  if (log.size() != 9) fail("searched" + order);
  const auto at = [&](std::uint64_t id) {
    return std::find(log.begin(), log.end(), id) - log.begin();
  };
  if (at(100) > at(3)) fail("B's block ran after A's third:" + order);
  std::exit(0);
}

TEST(QueryEngine, StreamsTakeTurnsOnTheSharedPool) {
  // A pool task runs one block, then queues its stream's next task behind
  // the tasks other streams posted meanwhile; so a worker never serves one
  // stream's backlog while another stream's block waits. The global pool
  // is sized once per process, so the one-worker pool runs in a freshly
  // executed child (threadsafe death-test style re-executes this binary
  // for just this test).
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(check_streams_take_turns_on_one_worker(),
              testing::ExitedWithCode(0), "");
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
