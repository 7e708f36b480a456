#include "obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

namespace oms::obs {

namespace detail {

std::size_t stripe_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return idx;
}

void add_double_bits(std::atomic<std::uint64_t>& bits, double delta) noexcept {
  std::uint64_t old = bits.load(std::memory_order_relaxed);
  while (!bits.compare_exchange_weak(
      old, std::bit_cast<std::uint64_t>(std::bit_cast<double>(old) + delta),
      std::memory_order_relaxed)) {
  }
}

void min_double_bits(std::atomic<std::uint64_t>& bits, double x) noexcept {
  std::uint64_t old = bits.load(std::memory_order_relaxed);
  while (x < std::bit_cast<double>(old) &&
         !bits.compare_exchange_weak(old, std::bit_cast<std::uint64_t>(x),
                                     std::memory_order_relaxed)) {
  }
}

void max_double_bits(std::atomic<std::uint64_t>& bits, double x) noexcept {
  std::uint64_t old = bits.load(std::memory_order_relaxed);
  while (x > std::bit_cast<double>(old) &&
         !bits.compare_exchange_weak(old, std::bit_cast<std::uint64_t>(x),
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace detail

// --- Gauge ----------------------------------------------------------------

std::uint64_t Gauge::to_bits(double x) noexcept {
  return std::bit_cast<std::uint64_t>(x);
}

double Gauge::from_bits(std::uint64_t b) noexcept {
  return std::bit_cast<double>(b);
}

// --- Info -----------------------------------------------------------------

void Info::set(std::string value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  value_ = std::move(value);
}

std::string Info::value() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return value_;
}

// --- Histogram ------------------------------------------------------------

std::span<const double> default_latency_bounds() noexcept {
  static constexpr std::array<double, 22> kBounds = {
      1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3,
      5e-3, 1e-2, 2e-2, 5e-2, 1e-1, 2e-1, 5e-1, 1.0,  2.0,  5.0,  10.0};
  return kBounds;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      min_bits_(std::bit_cast<std::uint64_t>(
          std::numeric_limits<double>::infinity())),
      max_bits_(std::bit_cast<std::uint64_t>(
          -std::numeric_limits<double>::infinity())) {
  if (bounds_.empty()) {
    const auto d = default_latency_bounds();
    bounds_.assign(d.begin(), d.end());
  }
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  stripes_ = std::make_unique<Stripe[]>(detail::kStripes);
  for (std::size_t s = 0; s < detail::kStripes; ++s) {
    stripes_[s].counts =
        std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
    for (std::size_t b = 0; b <= bounds_.size(); ++b) {
      stripes_[s].counts[b].store(0, std::memory_order_relaxed);
    }
  }
}

void Histogram::observe(double x) noexcept {
  // Upper-edge buckets: first bound >= x wins; past the last → overflow.
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), x) - bounds_.begin());
  Stripe& s = stripes_[detail::stripe_index()];
  s.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  detail::add_double_bits(s.sum_bits, x);
  detail::min_double_bits(min_bits_, x);
  detail::max_double_bits(max_bits_, x);
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t n = 0;
  for (std::size_t s = 0; s < detail::kStripes; ++s) {
    n += stripes_[s].count.load(std::memory_order_relaxed);
  }
  return n;
}

// --- HistogramSnapshot ----------------------------------------------------

double HistogramSnapshot::percentile(double p) const noexcept {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  double lower_edge = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double upper_edge = i < bounds.size() ? bounds[i] : max;
    if (counts[i] > 0 &&
        static_cast<double>(cumulative + counts[i]) >= target) {
      const double frac =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(counts[i]);
      double lo = std::max(lower_edge, min);
      double hi = std::min(upper_edge, max);
      if (hi < lo) hi = lo;
      return lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
    }
    cumulative += counts[i];
    lower_edge = upper_edge;
  }
  return max;
}

HistogramSnapshot HistogramSnapshot::since(
    const HistogramSnapshot& before) const {
  HistogramSnapshot d = *this;
  if (before.counts.size() == counts.size()) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      d.counts[i] = counts[i] >= before.counts[i]
                        ? counts[i] - before.counts[i]
                        : 0;
    }
    d.count = count >= before.count ? count - before.count : 0;
    d.sum = sum - before.sum;
    if (d.sum < 0.0) d.sum = 0.0;
  }
  return d;
}

// --- Snapshot -------------------------------------------------------------

std::uint64_t Snapshot::counter(std::string_view name) const noexcept {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

double Snapshot::gauge(std::string_view name) const noexcept {
  const auto it = gauges.find(std::string(name));
  return it == gauges.end() ? 0.0 : it->second;
}

const HistogramSnapshot* Snapshot::histogram(
    std::string_view name) const noexcept {
  const auto it = histograms.find(std::string(name));
  return it == histograms.end() ? nullptr : &it->second;
}

Snapshot Snapshot::since(const Snapshot& before) const {
  Snapshot d = *this;
  for (auto& [name, value] : d.counters) {
    const auto it = before.counters.find(name);
    if (it != before.counters.end()) {
      value = value >= it->second ? value - it->second : 0;
    }
  }
  for (auto& [name, hist] : d.histograms) {
    const auto it = before.histograms.find(name);
    if (it != before.histograms.end()) hist = hist.since(it->second);
  }
  return d;
}

namespace {

void append_double(std::string& out, double x) {
  if (!std::isfinite(x)) {
    out += x > 0 ? "1e999" : (x < 0 ? "-1e999" : "0");
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", x);
  out += buf;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

std::string Snapshot::to_json() const {
  std::string out;
  out.reserve(1024);
  out += "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    out += std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_double(out, value);
  }
  out += "},\"infos\":{";
  first = true;
  for (const auto& [name, value] : infos) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_json_string(out, value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ":{\"count\":";
    out += std::to_string(h.count);
    out += ",\"sum\":";
    append_double(out, h.sum);
    out += ",\"min\":";
    append_double(out, h.min);
    out += ",\"max\":";
    append_double(out, h.max);
    out += ",\"p50\":";
    append_double(out, h.percentile(0.50));
    out += ",\"p95\":";
    append_double(out, h.percentile(0.95));
    out += ",\"p99\":";
    append_double(out, h.percentile(0.99));
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (h.counts[i] == 0) continue;  // sparse: zero buckets add no info
      if (!first_bucket) out += ',';
      first_bucket = false;
      out += "[";
      if (i < h.bounds.size()) {
        append_double(out, h.bounds[i]);
      } else {
        out += "1e999";
      }
      out += ',';
      out += std::to_string(h.counts[i]);
      out += ']';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

// --- MetricsRegistry ------------------------------------------------------

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::vector<double>(
                          bounds.begin(), bounds.end())))
             .first;
  }
  return *it->second;
}

Info& MetricsRegistry::info(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = infos_.find(name);
  if (it == infos_.end()) {
    it = infos_.emplace(std::string(name), std::make_unique<Info>()).first;
  }
  return *it->second;
}

Snapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, i] : infos_) snap.infos[name] = i->value();
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.bounds = h->bounds_;
    hs.counts.assign(hs.bounds.size() + 1, 0);
    double sum = 0.0;
    std::uint64_t count = 0;
    for (std::size_t s = 0; s < detail::kStripes; ++s) {
      const Histogram::Stripe& stripe = h->stripes_[s];
      for (std::size_t b = 0; b < hs.counts.size(); ++b) {
        hs.counts[b] += stripe.counts[b].load(std::memory_order_relaxed);
      }
      count += stripe.count.load(std::memory_order_relaxed);
      sum += std::bit_cast<double>(
          stripe.sum_bits.load(std::memory_order_relaxed));
    }
    hs.count = count;
    hs.sum = sum;
    if (count > 0) {
      hs.min =
          std::bit_cast<double>(h->min_bits_.load(std::memory_order_relaxed));
      hs.max =
          std::bit_cast<double>(h->max_bits_.load(std::memory_order_relaxed));
    }
    snap.histograms.emplace(name, std::move(hs));
  }
  return snap;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace oms::obs
