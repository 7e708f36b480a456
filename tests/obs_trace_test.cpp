// obs::Tracer — span semantics in isolation, then the completeness
// property against a live QueryEngine (CI runs this under ThreadSanitizer
// via `ctest -L tsan`): every admitted query produces exactly one
// completed span chain with a terminal outcome, under both emit policies
// and any block size, and the outcome tallies equal the engine's own
// drop-accounting identity submitted == emitted + dropped_preprocess +
// empty_window.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/query_engine.hpp"
#include "ms/synthetic.hpp"
#include "obs/metrics.hpp"

namespace oms {
namespace {

// --- Tracer unit semantics ------------------------------------------------

TEST(ObsTracer, DisabledTracerIsInert) {
  obs::Tracer t;  // sample_every = 0
  EXPECT_FALSE(t.enabled());
  EXPECT_FALSE(t.sampled(0));
  t.record(0, obs::Stage::kSearch, 1.0);
  t.complete(0, obs::SpanOutcome::kEmitted);
  EXPECT_EQ(t.open_spans(), 0U);
  EXPECT_EQ(t.completed_total(), 0U);
  EXPECT_TRUE(t.completed().empty());
}

TEST(ObsTracer, SamplingSelectsMultiplesOfN) {
  obs::Tracer t(obs::TracerConfig{16, 3});
  EXPECT_TRUE(t.sampled(0));
  EXPECT_FALSE(t.sampled(1));
  EXPECT_FALSE(t.sampled(2));
  EXPECT_TRUE(t.sampled(3));
  t.record(1, obs::Stage::kAdmit, 1.0);  // unsampled: must not open a span
  EXPECT_EQ(t.open_spans(), 0U);
}

TEST(ObsTracer, RecordAccumulatesAndCompleteMovesToRing) {
  obs::Tracer t(obs::TracerConfig{16, 1});
  t.record(7, obs::Stage::kEncode, 0.25);
  t.record(7, obs::Stage::kEncode, 0.25);
  t.record(7, obs::Stage::kSearch, 1.0);
  EXPECT_EQ(t.open_spans(), 1U);
  t.complete(7, obs::SpanOutcome::kEmitted);
  t.complete(7, obs::SpanOutcome::kEmptyWindow);  // second completion ignored
  EXPECT_EQ(t.open_spans(), 0U);
  ASSERT_EQ(t.completed_total(), 1U);
  const std::vector<obs::Span> spans = t.completed();
  ASSERT_EQ(spans.size(), 1U);
  EXPECT_EQ(spans[0].key, 7U);
  EXPECT_EQ(spans[0].outcome, obs::SpanOutcome::kEmitted);
  EXPECT_DOUBLE_EQ(
      spans[0].stage_seconds[static_cast<std::size_t>(obs::Stage::kEncode)],
      0.5);
  EXPECT_DOUBLE_EQ(spans[0].total_seconds(), 1.5);
}

TEST(ObsTracer, RingEvictsOldestAndKeepsLifetimeTotal) {
  obs::Tracer t(obs::TracerConfig{2, 1});
  for (std::uint64_t key = 0; key < 5; ++key) {
    t.record(key, obs::Stage::kEmit, 0.1);
    t.complete(key, obs::SpanOutcome::kEmitted);
  }
  EXPECT_EQ(t.completed_total(), 5U);
  const std::vector<obs::Span> spans = t.completed();
  ASSERT_EQ(spans.size(), 2U);  // capacity bound held
  EXPECT_EQ(spans[0].key, 3U);  // oldest first, newest survivors
  EXPECT_EQ(spans[1].key, 4U);
}

TEST(ObsTracer, StageNamesAreStable) {
  EXPECT_EQ(obs::stage_name(obs::Stage::kAdmit), "admit");
  EXPECT_EQ(obs::stage_name(obs::Stage::kEmit), "emit");
  EXPECT_EQ(obs::kStageCount, 7U);
}

// --- Completeness property against the engine -----------------------------

/// Workload with all three terminal outcomes: matched queries (emitted),
/// peakless spectra (dropped at preprocess), and far-out-of-range
/// precursors (searched against an empty candidate window).
struct TracedWorkload {
  ms::Workload base;
  std::vector<ms::Spectrum> queries;  ///< base.queries + crafted extremes.
};

const TracedWorkload& traced_workload() {
  static const TracedWorkload wl = [] {
    TracedWorkload out;
    ms::WorkloadConfig cfg;
    cfg.reference_count = 200;
    cfg.query_count = 60;
    cfg.modified_fraction = 0.3;
    cfg.seed = 20260807;
    out.base = ms::generate_workload(cfg);
    out.queries = out.base.queries;
    for (std::uint32_t i = 0; i < 3; ++i) {
      ms::Spectrum peakless;  // no peaks: preprocess must reject it
      peakless.id = 90000 + i;
      peakless.precursor_mz = 500.0;
      peakless.precursor_charge = 2;
      out.queries.push_back(peakless);

      ms::Spectrum far = out.base.queries[i];  // real peaks, absurd mass
      far.id = 91000 + i;
      far.precursor_mz = 50000.0;  // beyond every reference: empty window
      out.queries.push_back(far);
    }
    return out;
  }();
  return wl;
}

core::PipelineConfig traced_config() {
  core::PipelineConfig cfg;
  cfg.encoder.dim = 1024;
  cfg.encoder.bins = cfg.preprocess.bin_count();
  cfg.encoder.chunks = 64;
  cfg.backend_options.calibration_samples = 256;
  cfg.backend_name = "ideal-hd";
  cfg.seed = 4242;
  return cfg;
}

void check_span_completeness(core::EmitPolicy policy, std::size_t block,
                             std::size_t threads) {
  const TracedWorkload& wl = traced_workload();
  const std::string what = std::string("policy=") +
                           (policy == core::EmitPolicy::Rolling ? "rolling"
                                                                : "at-drain") +
                           " B=" + std::to_string(block) +
                           " T=" + std::to_string(threads);

  core::Pipeline pipeline(traced_config());
  pipeline.set_library(wl.base.references);

  obs::Tracer tracer(obs::TracerConfig{4096, 1});  // trace every query
  core::QueryEngineConfig ecfg;
  ecfg.block_size = block;
  ecfg.stage_threads = threads;
  ecfg.max_in_flight = 3 * block;
  ecfg.emit_policy = policy;
  ecfg.tracer = &tracer;
  core::QueryEngine engine(pipeline, ecfg);
  for (const ms::Spectrum& q : wl.queries) engine.submit(q);
  (void)engine.drain();

  const core::QueryEngineStats stats = engine.stats();
  ASSERT_EQ(stats.submitted, wl.queries.size()) << what;
  // The crafted extremes must actually exercise both drop paths.
  ASSERT_GE(stats.dropped_preprocess, 3U) << what;
  ASSERT_GE(stats.empty_window, 3U) << what;
  EXPECT_EQ(stats.submitted,
            stats.emitted + stats.dropped_preprocess + stats.empty_window)
      << what;

  // Every admitted query → exactly one completed span, no stragglers.
  EXPECT_EQ(tracer.open_spans(), 0U) << what;
  EXPECT_EQ(tracer.completed_total(), stats.submitted) << what;
  const std::vector<obs::Span> spans = tracer.completed();
  ASSERT_EQ(spans.size(), stats.submitted) << what;

  std::set<std::uint64_t> keys;
  std::map<obs::SpanOutcome, std::size_t> outcomes;
  for (const obs::Span& span : spans) {
    EXPECT_TRUE(keys.insert(span.key).second)
        << what << ": duplicate span key " << span.key;
    EXPECT_LT(span.key, wl.queries.size()) << what;
    EXPECT_NE(span.outcome, obs::SpanOutcome::kOpen) << what;
    ++outcomes[span.outcome];
    for (const double s : span.stage_seconds) EXPECT_GE(s, 0.0) << what;
    if (span.outcome == obs::SpanOutcome::kDroppedPreprocess) {
      // Dropped queries never reach the search stage.
      EXPECT_EQ(span.stage_seconds[static_cast<std::size_t>(
                    obs::Stage::kSearch)],
                0.0)
          << what;
    }
  }
  EXPECT_EQ(outcomes[obs::SpanOutcome::kEmitted], stats.emitted) << what;
  EXPECT_EQ(outcomes[obs::SpanOutcome::kDroppedPreprocess],
            stats.dropped_preprocess)
      << what;
  EXPECT_EQ(outcomes[obs::SpanOutcome::kEmptyWindow], stats.empty_window)
      << what;
}

TEST(ObsTracerEngine, EverySpanCompletesUnderAtDrain) {
  for (const std::size_t block : {1UL, 7UL, 64UL}) {
    check_span_completeness(core::EmitPolicy::AtDrain, block, 3);
  }
}

TEST(ObsTracerEngine, EverySpanCompletesUnderRolling) {
  for (const std::size_t block : {1UL, 7UL, 64UL}) {
    check_span_completeness(core::EmitPolicy::Rolling, block, 3);
  }
}

TEST(ObsTracerEngine, SingleThreadedStagesStillComplete) {
  check_span_completeness(core::EmitPolicy::Rolling, 5, 1);
}

TEST(ObsTracerEngine, SamplingTracesOnlyMultiples) {
  const TracedWorkload& wl = traced_workload();
  core::Pipeline pipeline(traced_config());
  pipeline.set_library(wl.base.references);

  obs::Tracer tracer(obs::TracerConfig{4096, 4});
  core::QueryEngineConfig ecfg;
  ecfg.block_size = 16;
  ecfg.tracer = &tracer;
  core::QueryEngine engine(pipeline, ecfg);
  for (const ms::Spectrum& q : wl.queries) engine.submit(q);
  (void)engine.drain();

  // Admission keys are 0..n-1, so exactly ceil(n/4) of them sample.
  const std::uint64_t expected = (wl.queries.size() + 3) / 4;
  EXPECT_EQ(tracer.completed_total(), expected);
  EXPECT_EQ(tracer.open_spans(), 0U);
  for (const obs::Span& span : tracer.completed()) {
    EXPECT_EQ(span.key % 4, 0U);
  }
}

/// The registry counters the engine exports must agree with its own
/// stats() — the drop-accounting identity is visible to scrapes, not just
/// to the drain assert.
TEST(ObsTracerEngine, RegistryCountersMatchEngineStats) {
  const TracedWorkload& wl = traced_workload();
  core::Pipeline pipeline(traced_config());
  pipeline.set_library(wl.base.references);

  obs::MetricsRegistry reg;
  core::QueryEngineConfig ecfg;
  ecfg.block_size = 16;
  ecfg.stage_threads = 2;
  ecfg.metrics = &reg;
  core::QueryEngine engine(pipeline, ecfg);
  for (const ms::Spectrum& q : wl.queries) engine.submit(q);
  (void)engine.drain();

  const core::QueryEngineStats stats = engine.stats();
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("engine.queries_submitted"), stats.submitted);
  EXPECT_EQ(snap.counter("engine.queries_dropped_preprocess"),
            stats.dropped_preprocess);
  EXPECT_EQ(snap.counter("engine.queries_empty_window"), stats.empty_window);
  EXPECT_EQ(snap.counter("engine.queries_submitted"),
            snap.counter("engine.psms_emitted") +
                snap.counter("engine.queries_dropped_preprocess") +
                snap.counter("engine.queries_empty_window"));
  EXPECT_EQ(snap.counter("engine.blocks"), stats.blocks);
  // Stage latency histograms saw every searched query / block.
  const obs::HistogramSnapshot* preprocess =
      snap.histogram("engine.stage.preprocess_seconds");
  ASSERT_NE(preprocess, nullptr);
  EXPECT_EQ(preprocess->count, stats.submitted);
  const obs::HistogramSnapshot* search =
      snap.histogram("engine.stage.search_seconds");
  ASSERT_NE(search, nullptr);
  EXPECT_EQ(search->count, stats.blocks);
  // One encode and rescore observation per block, and one queue wait in
  // front of each of the three block stages.
  for (const char* name : {"engine.stage.encode_seconds",
                           "engine.stage.rescore_seconds"}) {
    const obs::HistogramSnapshot* h = snap.histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count, stats.blocks) << name;
  }
  const obs::HistogramSnapshot* queue_wait =
      snap.histogram("engine.stage.queue_wait_seconds");
  ASSERT_NE(queue_wait, nullptr);
  EXPECT_EQ(queue_wait->count, 3 * stats.blocks);
  // Backend identity surfaced as Info entries.
  EXPECT_EQ(snap.infos.at("backend.name"), "ideal-hd");
}

}  // namespace
}  // namespace oms
