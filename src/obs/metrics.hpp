// obs::MetricsRegistry — process-wide, lock-light live metrics for the
// engine, the backends, and the multi-tenant serve layer.
//
// Three metric kinds plus a string annotation:
//   * Counter   — monotonic u64, per-thread striped atomics so concurrent
//                 pool workers never contend on one cache line; value() is
//                 the exact sum (scheduling-independent totals, same
//                 contract as BackendStats).
//   * Gauge     — last-writer-wins double (queue depths, scraped backend
//                 snapshots, anything set rather than accumulated).
//   * Histogram — fixed-bucket latency histogram (striped bucket counts,
//                 exact count/sum, tracked min/max); p50/p95/p99 are
//                 extracted from the bucket counts at snapshot time, with
//                 linear interpolation inside the winning bucket.
//   * Info      — a small string (kernel tier, backend name) for exposition.
//
// Usage pattern: resolve once, observe forever —
//
//   obs::Counter& c = registry.counter("engine.queries_submitted");
//   ...hot path...  c.add(1);                      // striped relaxed add
//
// registry.counter/gauge/histogram/info take a registration mutex only on
// first use of a name; the returned references are stable for the
// registry's lifetime, so hot paths hold pointers and never lock.
// snapshot() merges the stripes into a Snapshot that renders as one-line
// JSON (the serve layer's STATS verb) and supports since(before) deltas
// for windowed views (bench rounds).
//
// This header is the serve layer's sensor layer: the qps and
// stage-latency percentiles exist *inside* the process, not just in
// offline bench JSON. Metric names are fixed strings, never built from a
// session or query id, so a snapshot's size does not grow with traffic.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace oms::obs {

namespace detail {

/// Stripe count for the per-thread sharded atomics. Threads are assigned
/// stripes round-robin on first touch; 16 covers the stage-worker counts
/// this codebase runs while keeping merge cost trivial.
inline constexpr std::size_t kStripes = 16;

/// Round-robin per-thread stripe assignment (stable per thread).
[[nodiscard]] std::size_t stripe_index() noexcept;

struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> v{0};
};

/// CAS-loop add for a double stored as bits in a u64 atomic (portable —
/// no reliance on std::atomic<double>::fetch_add codegen).
void add_double_bits(std::atomic<std::uint64_t>& bits, double delta) noexcept;
void min_double_bits(std::atomic<std::uint64_t>& bits, double x) noexcept;
void max_double_bits(std::atomic<std::uint64_t>& bits, double x) noexcept;

}  // namespace detail

/// Monotonic counter; add() is a relaxed striped increment, value() the
/// exact merged total.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    stripes_[detail::stripe_index()].v.fetch_add(n,
                                                 std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& s : stripes_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  detail::PaddedU64 stripes_[detail::kStripes];
};

/// Last-writer-wins double (set) with an add() convenience for deltas.
class Gauge {
 public:
  void set(double x) noexcept {
    bits_.store(to_bits(x), std::memory_order_relaxed);
  }
  void add(double delta) noexcept { detail::add_double_bits(bits_, delta); }
  [[nodiscard]] double value() const noexcept {
    return from_bits(bits_.load(std::memory_order_relaxed));
  }

 private:
  static std::uint64_t to_bits(double x) noexcept;
  static double from_bits(std::uint64_t b) noexcept;
  std::atomic<std::uint64_t> bits_{0};
};

/// A small string annotation (kernel tier, backend name). set() replaces.
class Info {
 public:
  void set(std::string value);
  [[nodiscard]] std::string value() const;

 private:
  mutable std::mutex mutex_;
  std::string value_;
};

/// The default histogram bounds: exponential 1-2-5 ladder from 1 µs to
/// 10 s (seconds), the span of everything this codebase times — a scalar
/// popcount sweep to a cold open-window IMC-modelled block.
[[nodiscard]] std::span<const double> default_latency_bounds() noexcept;

/// Fixed-bucket histogram. observe() is striped relaxed bucket increments
/// plus exact count/sum and CAS-maintained min/max; bucket bounds are
/// upper edges (ascending), with one implicit +Inf overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double x) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept;

 private:
  friend class MetricsRegistry;

  struct Stripe {
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts;  ///< bounds+1.
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_bits{0};  ///< double, CAS-added.
  };

  std::vector<double> bounds_;
  std::unique_ptr<Stripe[]> stripes_;
  std::atomic<std::uint64_t> min_bits_;  ///< double; +inf until first observe.
  std::atomic<std::uint64_t> max_bits_;  ///< double; -inf until first observe.
};

/// Merged view of one histogram at snapshot time.
struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;         ///< Upper edges; +Inf bucket implied.
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 entries.
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0.
  double max = 0.0;

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Quantile p in [0, 1] from the bucket counts: nearest-rank bucket,
  /// linearly interpolated between the bucket's edges (clamped to the
  /// observed min/max). 0 when empty.
  [[nodiscard]] double percentile(double p) const noexcept;
  /// Counter-wise difference (this − before): windowed view of one round.
  /// min/max stay this snapshot's (the window's extrema are not tracked).
  [[nodiscard]] HistogramSnapshot since(const HistogramSnapshot& before) const;
};

/// Point-in-time merge of a whole registry. Maps are ordered so the JSON
/// rendering is deterministic.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, std::string> infos;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Counter value by name (0 when absent).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const noexcept;
  /// Gauge value by name (0.0 when absent).
  [[nodiscard]] double gauge(std::string_view name) const noexcept;
  /// Histogram by name (nullptr when absent).
  [[nodiscard]] const HistogramSnapshot* histogram(
      std::string_view name) const noexcept;

  /// Windowed delta: counters and histogram counts subtract (clamped at
  /// zero); gauges and infos keep this snapshot's values.
  [[nodiscard]] Snapshot since(const Snapshot& before) const;

  /// One-line JSON (no newlines — the serve line protocol's STATS verb
  /// ships it as a single response line):
  ///   {"counters":{...},"gauges":{...},"infos":{...},
  ///    "histograms":{"n":{"count":..,"sum":..,"min":..,"max":..,
  ///                       "p50":..,"p95":..,"p99":..,
  ///                       "buckets":[[upper,count],...]}}}
  [[nodiscard]] std::string to_json() const;
};

/// Name-keyed registry. Thread-safe; references returned are stable for
/// the registry's lifetime. Construct instances freely (benches, tests,
/// one per server core) or use the process-wide global().
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// `bounds` applies on first registration only (empty → the default
  /// latency ladder); later calls return the existing histogram.
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::span<const double> bounds = {});
  [[nodiscard]] Info& info(std::string_view name);

  [[nodiscard]] Snapshot snapshot() const;

  /// Process-wide registry for callers without a better scope (the serve
  /// layer passes its own instance around instead).
  [[nodiscard]] static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<Info>, std::less<>> infos_;
};

/// RAII stopwatch: observes the elapsed seconds into a histogram at scope
/// exit (or at stop(), which also returns the reading) — the benches' one
/// accounting path for wall-clock rows.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h)
      : hist_(&h), t0_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    if (hist_ != nullptr) hist_->observe(elapsed());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Observes now and detaches; returns the elapsed seconds.
  double stop() {
    const double s = elapsed();
    if (hist_ != nullptr) hist_->observe(s);
    hist_ = nullptr;
    return s;
  }

 private:
  [[nodiscard]] double elapsed() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }
  Histogram* hist_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace oms::obs
