// obs::MetricsRegistry — the concurrency suite (CI runs this under
// ThreadSanitizer via `ctest -L tsan`): striped counters and histograms
// hammered from many threads must yield *exact* snapshot totals, and the
// snapshot renderings (JSON, since-deltas, percentiles) must be
// deterministic functions of those totals.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

namespace oms::obs {
namespace {

constexpr std::size_t kThreads = 8;
constexpr std::size_t kOpsPerThread = 20000;

TEST(ObsCounter, ExactUnderContention) {
  MetricsRegistry reg;
  Counter& c = reg.counter("hammer.count");
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::size_t i = 0; i < kOpsPerThread; ++i) c.add(1);
    });
  }
  for (auto& th : threads) th.join();
  // Striped relaxed adds lose nothing: the merge must be exact, not
  // approximately right.
  EXPECT_EQ(c.value(), kThreads * kOpsPerThread);
  EXPECT_EQ(reg.snapshot().counter("hammer.count"), kThreads * kOpsPerThread);
}

TEST(ObsGauge, AddAndSetFromManyThreads) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("hammer.gauge");
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (std::size_t i = 0; i < kOpsPerThread; ++i) g.add(1.0);
    });
  }
  for (auto& th : threads) th.join();
  // CAS-looped double adds of integral values are exact up to 2^53.
  EXPECT_EQ(g.value(), static_cast<double>(kThreads * kOpsPerThread));
  g.set(-3.5);
  EXPECT_EQ(reg.snapshot().gauge("hammer.gauge"), -3.5);
}

TEST(ObsHistogram, ExactTotalsUnderContention) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("hammer.hist");
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        // Deterministic per-thread values spanning several buckets of the
        // default latency ladder, all integral multiples of 1e-6 so the
        // expected sum is computable exactly in double.
        h.observe(static_cast<double>(t * kOpsPerThread + i + 1) * 1e-6);
      }
    });
  }
  for (auto& th : threads) th.join();

  const Snapshot snap = reg.snapshot();
  const HistogramSnapshot* hs = snap.histogram("hammer.hist");
  ASSERT_NE(hs, nullptr);
  const std::uint64_t n = kThreads * kOpsPerThread;
  EXPECT_EQ(hs->count, n);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t c : hs->counts) bucket_total += c;
  EXPECT_EQ(bucket_total, n);  // every observation landed in some bucket
  EXPECT_EQ(hs->min, 1e-6);
  EXPECT_EQ(hs->max, static_cast<double>(n) * 1e-6);
  // Sum of 1..n scaled. Count is the exactness gate (a lost update shows
  // there); the sum only has to be right up to double-accumulation order,
  // which striping shuffles.
  const double expected_sum =
      static_cast<double>(n) * static_cast<double>(n + 1) / 2.0 * 1e-6;
  EXPECT_NEAR(hs->sum, expected_sum, 1e-6);
  EXPECT_NEAR(hs->mean(), expected_sum / static_cast<double>(n), 1e-9);
}

TEST(ObsHistogram, PercentilesLandInTheRightBucket) {
  MetricsRegistry reg;
  const double bounds[] = {1.0, 2.0, 5.0, 10.0};
  Histogram& h = reg.histogram("p.hist", bounds);
  // 100 observations: 50 at 0.5, 45 at 1.5, 5 at 7.0.
  for (int i = 0; i < 50; ++i) h.observe(0.5);
  for (int i = 0; i < 45; ++i) h.observe(1.5);
  for (int i = 0; i < 5; ++i) h.observe(7.0);
  const Snapshot snap = reg.snapshot();
  const HistogramSnapshot* hs = snap.histogram("p.hist");
  ASSERT_NE(hs, nullptr);
  // p50 sits at the very top of the first bucket (clamped to min..1.0).
  const double p50 = hs->percentile(0.50);
  EXPECT_GE(p50, 0.5);
  EXPECT_LE(p50, 1.0);
  // p95 falls in the (1, 2] bucket.
  const double p95 = hs->percentile(0.95);
  EXPECT_GT(p95, 1.0);
  EXPECT_LE(p95, 2.0);
  // p99 falls in the (5, 10] bucket, clamped to the observed max.
  const double p99 = hs->percentile(0.99);
  EXPECT_GT(p99, 5.0);
  EXPECT_LE(p99, 7.0);
  // Degenerate and clamped cases.
  EXPECT_EQ(hs->percentile(1.0), 7.0);
  EXPECT_EQ(HistogramSnapshot{}.percentile(0.5), 0.0);
}

TEST(ObsHistogram, OverflowBucketCatchesOutOfLadderValues) {
  MetricsRegistry reg;
  const double bounds[] = {1.0};
  Histogram& h = reg.histogram("o.hist", bounds);
  h.observe(100.0);
  const Snapshot snap = reg.snapshot();
  const HistogramSnapshot* hs = snap.histogram("o.hist");
  ASSERT_NE(hs, nullptr);
  ASSERT_EQ(hs->counts.size(), 2U);  // bounds + overflow
  EXPECT_EQ(hs->counts[1], 1U);
  EXPECT_EQ(hs->max, 100.0);  // min/max are exact even past the ladder
}

TEST(ObsSnapshot, SinceSubtractsCountersAndHistograms) {
  MetricsRegistry reg;
  Counter& c = reg.counter("d.count");
  Histogram& h = reg.histogram("d.hist");
  c.add(10);
  h.observe(0.001);
  const Snapshot before = reg.snapshot();
  c.add(7);
  h.observe(0.002);
  h.observe(0.004);
  const Snapshot delta = reg.snapshot().since(before);
  EXPECT_EQ(delta.counter("d.count"), 7U);
  const HistogramSnapshot* hs = delta.histogram("d.hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 2U);
  EXPECT_NEAR(hs->sum, 0.006, 1e-12);
}

TEST(ObsSnapshot, JsonHasEverySectionAndBalancedBraces) {
  MetricsRegistry reg;
  reg.counter("a.count").add(3);
  reg.gauge("a.gauge").set(2.5);
  reg.info("a.info").set("say \"hi\"");
  reg.histogram("a.hist").observe(0.5);
  const std::string json = reg.snapshot().to_json();
  // One line (the serve STATS verb ships it as a single response line).
  EXPECT_EQ(json.find('\n'), std::string::npos);
  for (const char* expected :
       {"\"counters\":{", "\"gauges\":{", "\"infos\":{", "\"histograms\":{",
        "\"a.count\":3", "\"a.gauge\":2.5", "\"say \\\"hi\\\"\"",
        "\"count\":1", "\"p50\":", "\"p95\":", "\"p99\":", "\"buckets\":["}) {
    EXPECT_NE(json.find(expected), std::string::npos)
        << expected << " in " << json;
  }
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(ObsRegistry, ReturnsStableReferencesPerName) {
  MetricsRegistry reg;
  Counter& a = reg.counter("same");
  Counter& b = reg.counter("same");
  EXPECT_EQ(&a, &b);
  a.add(1);
  b.add(1);
  EXPECT_EQ(a.value(), 2U);
  EXPECT_NE(&reg.counter("other"), &a);
}

TEST(ObsRegistry, ConcurrentRegistrationAndScrapeIsSafe) {
  MetricsRegistry reg;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Half the threads register + bump; the other half scrape — the
      // registration mutex and the stable references must coexist.
      for (std::size_t i = 0; i < 500; ++i) {
        if (t % 2 == 0) {
          reg.counter("c." + std::to_string(i % 17)).add(1);
          reg.histogram("h." + std::to_string(i % 7))
              .observe(static_cast<double>(i) * 1e-5);
        } else {
          (void)reg.snapshot();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const Snapshot snap = reg.snapshot();
  std::uint64_t total = 0;
  for (const auto& [name, value] : snap.counters) total += value;
  EXPECT_EQ(total, (kThreads / 2) * 500);
}

TEST(ObsScopedTimer, ObservesOnceOnStopOrDestruction) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("t.hist");
  {
    ScopedTimer timer(h);
    EXPECT_GE(timer.stop(), 0.0);
  }  // destructor after stop() must not observe a second time
  { const ScopedTimer timer(h); }
  EXPECT_EQ(h.count(), 2U);
}

}  // namespace
}  // namespace oms::obs
