// omshd_perfbench — one end-to-end benchmark for open-modification spectral
// library search, from generated spectra in to accepted PSMs out.
//
//   omshd_perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                   [--size=full|tiny] [--work-dir=<dir>] [--trace-out=<f>]
//                   [--source-id=<id>] [--rate=<streams/s>]
//
// --rate overrides serve-standard's offered rate; a rate far above capacity
// keeps all four client threads busy, so search_qps then reads the
// closed-loop capacity (how the default rate was derived, see README.md).
//
// Workloads (see perfbench/README.md for why each exists):
//   open-batch      "ideal-hd", ±500 Da, one LibraryIndex, one closed-loop
//                   client running QueryEngine streams (submit_batch, drain).
//   rram-open       the same on "rram-statistical" over a smaller library.
//   serve-standard  SearchServer, ±0.05 Da, open-loop streams at a fixed rate.
//   grow            a segmented manifest appended to on a schedule while
//                   reader streams search it through SearchServer.
//
// The program only ever sees spectra from ms::generate_workload(seed). With
// --trace=0 the last stdout line is the end-to-end report; with --trace=1 it
// is the per-layer report of a separate traced run: the benchmark's own
// spans around every call it makes into a layer, the engine's obs
// histograms and tracer, and direct calls to the inner layers' public
// functions on the same inputs. Correctness checks run outside the timed
// loops; any mismatch counts as a failed operation and fails the run.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <shared_mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "accel/imc_encoder.hpp"
#include "accel/perf_model.hpp"
#include "bench_common.hpp"
#include "core/fdr.hpp"
#include "core/pipeline.hpp"
#include "core/query_engine.hpp"
#include "hd/encoder.hpp"
#include "hd/kernels.hpp"
#include "index/index_builder.hpp"
#include "index/library_index.hpp"
#include "index/manifest.hpp"
#include "index/segmented_library.hpp"
#include "ms/preprocess.hpp"
#include "ms/synthetic.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using oms::core::PipelineConfig;
using oms::core::PipelineResult;
using oms::core::Psm;
using oms::ms::Spectrum;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Noise-stream salt the engine keys IMC query encoding on
/// (core/query_engine.cpp); the replay uses it so its encodings match.
constexpr std::uint64_t kQuerySalt = 0x51554552ULL;

// --- spans -------------------------------------------------------------------

/// One recorded call into a layer: name ("<layer>.<call>"), start and end
/// relative to the run's origin, the enclosing span on the same thread (-1 at
/// top level), and the stream or block id shared by one request's spans.
struct SpanRecord {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
  std::uint32_t thread = 0;
};

thread_local std::vector<std::int64_t> t_open_spans;

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t n = next.fetch_add(1);
  return n;
}

/// In-memory span store; written out once the run ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  std::int64_t begin(const char* name, std::uint64_t request) {
    SpanRecord r;
    r.name = name;
    r.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
    r.request = request;
    r.thread = thread_number();
    std::int64_t id = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      r.start = seconds_between(origin_, Clock::now());
      id = static_cast<std::int64_t>(spans_.size());
      spans_.push_back(r);
    }
    t_open_spans.push_back(id);
    return id;
  }

  void end(std::int64_t id) {
    t_open_spans.pop_back();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end =
        seconds_between(origin_, Clock::now());
  }

  [[nodiscard]] std::vector<SpanRecord> records() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op when tracing is off (null log).
class Span {
 public:
  Span(SpanLog* log, const char* name, std::uint64_t request = 0)
      : log_(log), id_(log != nullptr ? log->begin(name, request) : -1) {}
  ~Span() {
    if (log_ != nullptr) log_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  std::int64_t id_;
};

struct SpanTotals {
  double self_s = 0.0;
  double total_s = 0.0;
};

/// Self time per span name: duration minus the time its child spans cover.
std::map<std::string, SpanTotals> span_totals(
    const std::vector<SpanRecord>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur = spans[i].end - spans[i].start;
    SpanTotals& t = out[spans[i].name];
    t.self_s += dur - child[i];
    t.total_s += dur;
  }
  return out;
}

/// Chrome trace-event JSON (loadable by any browser's tracing UI).
void write_trace(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    char line[320];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%lld,\"request\":%llu}}%s\n",
                  s.name, s.thread, s.start * 1e6, (s.end - s.start) * 1e6, i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request),
                  i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

// --- report ------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every run prints exactly these, in this order (BENCHMARK.json lists the
/// same names). Each workload sets every one; see check_report_complete.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"search_qps", "1/s"},
    {"stream_latency_p50_s", "s"},
    {"stream_latency_tail_s", "s"},
    {"slo_met_frac", "frac"},
    {"accepted_psms", "count"},
    {"index_bytes_per_entry", "B"},
    {"rss_peak_mib", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"ms.preprocess_s", "s"},
    {"ms.dropped_frac", "frac"},
    {"hd.encode_s", "s"},
    {"hd.encode_spectra_per_s", "1/s"},
    {"hd.sweep_s", "s"},
    {"hd.sweep_gib_per_s", "GiB/s"},
    {"hd.sweep_roofline_frac", "frac"},
    {"hd.candidates_per_query", "count"},
    {"hd.extent_count", "count"},
    {"accel.imc_encode_s", "s"},
    {"accel.search_s", "s"},
    {"accel.phases_per_query", "count"},
    {"accel.modeled_latency_s", "s"},
    {"accel.modeled_energy_j", "J"},
    {"core.engine_s", "s"},
    {"core.stage.preprocess_s", "s"},
    {"core.stage.encode_s", "s"},
    {"core.stage.queue_wait_s", "s"},
    {"core.stage.search_s", "s"},
    {"core.stage.rescore_s", "s"},
    {"core.stage.emit_s", "s"},
    {"core.queries_per_block", "count"},
    {"core.fdr_s", "s"},
    {"core.empty_window_frac", "frac"},
    {"index.build_s", "s"},
    {"index.open_s", "s"},
    {"index.set_library_s", "s"},
    {"index.append_s", "s"},
    {"index.compact_s", "s"},
    {"index.bytes_written", "B"},
    {"serve.open_s", "s"},
    {"serve.submit_s", "s"},
    {"serve.close_s", "s"},
    {"serve.cache_hit_frac", "frac"},
    {"serve.backend_hit_frac", "frac"},
    {"serve.admission_blocked", "count"},
    {"serve.compactions", "count"},
    {"serve.generator_late_s", "s"},
    {"obs.trace_overhead_frac", "frac"},
    {"obs.span_coverage_frac", "frac"},
    {"host.read_gib_per_s", "GiB/s"},
};

void put_metric(std::map<std::string, double>& into,
                std::span<const MetricSpec> specs, const std::string& name,
                double v, const char* unit) {
  const bool known = std::any_of(specs.begin(), specs.end(), [&](const auto& s) {
    return name == s.name && std::strcmp(unit, s.unit) == 0;
  });
  if (!known) throw std::logic_error("undeclared metric " + name);
  into[name] = v;
}

/// Latency summary: median and the tail at the highest percentile that
/// still has ten samples beyond it (the 11th-largest sample; the largest
/// when there are no more than ten).
struct LatencySummary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;
  std::size_t samples = 0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

LatencySummary summarize(std::vector<double> v) {
  LatencySummary s;
  s.samples = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = median(v);
  const std::size_t idx = v.size() > 10 ? v.size() - 11 : v.size() - 1;
  s.tail = v[idx];
  s.tail_percentile = 100.0 * static_cast<double>(idx + 1) /
                      static_cast<double>(v.size());
  return s;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double rss_peak_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

/// FNV-1a digest of the generated spectra: equal for equal seeds, so the
/// benchmark's own tests can show a seed fixes the inputs.
std::uint64_t inputs_digest(const oms::ms::Workload& wl) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ b[i]) * 1099511628211ULL;
    }
  };
  for (const auto* set : {&wl.references, &wl.queries}) {
    for (const Spectrum& s : *set) {
      mix(&s.precursor_mz, sizeof s.precursor_mz);
      mix(&s.precursor_charge, sizeof s.precursor_charge);
      mix(s.peptide.data(), s.peptide.size());
      for (const auto& pk : s.peaks) {
        mix(&pk.mz, sizeof pk.mz);
        mix(&pk.intensity, sizeof pk.intensity);
      }
    }
  }
  return h;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

// --- run context ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string work_dir;
  std::string trace_out;
  std::string source_id = "unknown";
  double rate = 0.0;  ///< serve-standard offered rate override (0: default).
};

/// Workload sizes. Full sizes are chosen so one run of every workload fits
/// in about half a minute on a 4-core host while doing seconds of search.
struct Sizes {
  std::size_t refs = 0;            ///< Target spectra in the library.
  std::size_t queries = 0;         ///< Query pool generated from the seed.
  std::size_t stream_queries = 0;  ///< Queries per stream.
  std::size_t setups = 3;          ///< Set-up repetitions (median reported).
  double latency_limit_s = 1.0;    ///< Stream latency limit for slo_met_frac.
  double rate_per_s = 0.0;         ///< serve-standard: streams offered per s.
  std::size_t grow_batches = 4;    ///< grow: appends in the timed window.
  std::size_t grow_batch = 0;      ///< grow: targets per append.
};

/// Latency limits are about 1.5 to 2 times the stream tail measured over
/// seed runs on a 4-core AVX-512 host, so slo_met_frac stays 1 until the
/// tail regresses by about half. serve-standard offers half its measured
/// closed-loop capacity (README.md has both measurements).
Sizes sizes_for(const std::string& workload, bool tiny) {
  Sizes z;
  if (workload == "open-batch") {
    z.refs = 16000;
    z.queries = 2000;
    z.stream_queries = 500;
    z.latency_limit_s = 0.2;
  } else if (workload == "rram-open") {
    z.refs = 2000;
    z.queries = 600;
    z.stream_queries = 150;
    z.latency_limit_s = 0.2;
  } else if (workload == "serve-standard") {
    z.refs = 5000;
    z.queries = 2000;
    z.stream_queries = 200;
    z.rate_per_s = 14.0;
    z.latency_limit_s = 0.2;
    z.setups = 7;
  } else if (workload == "grow") {
    z.refs = 6000;
    z.grow_batch = 1500;
    z.queries = 2000;
    z.stream_queries = 100;
    z.latency_limit_s = 0.3;
    z.setups = 5;
  } else {
    throw std::invalid_argument("unknown workload '" + workload +
                                "' (open-batch, rram-open, serve-standard, "
                                "grow)");
  }
  if (tiny) {
    z.refs = std::max<std::size_t>(200, z.refs / 20);
    z.grow_batch = z.grow_batch / 20;
    z.queries = std::max<std::size_t>(60, z.queries / 10);
    z.stream_queries = std::min(z.stream_queries, z.queries);
    z.stream_queries = std::max<std::size_t>(20, z.stream_queries / 5);
    z.queries -= z.queries % z.stream_queries;
    z.setups = 1;
    z.latency_limit_s *= 4.0;
  }
  return z;
}

/// Per-layer accumulators from direct calls to inner layers' public
/// functions (ms::preprocess_all, encoders, SearchBackend::search_batch,
/// core::filter_at_fdr_standard_open) on the same inputs the engine saw.
struct Replay {
  std::size_t queries = 0;
  std::size_t searched = 0;
  std::uint64_t candidates = 0;
  std::uint64_t phases = 0;
  oms::core::BackendStats stats_delta;
  std::vector<oms::core::Query> last_queries;
  std::vector<oms::util::BitVec> last_hvs;
  std::vector<std::vector<oms::hd::SearchHit>> last_hits;
};

struct Run {
  Options opt;
  Sizes z;
  PipelineConfig cfg;
  oms::ms::Workload wl;
  Clock::time_point origin = Clock::now();
  std::unique_ptr<SpanLog> spans;  ///< Non-null in the traced run.
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::atomic<std::uint64_t> attempted{0};
  std::uint64_t failed = 0;
  std::uint64_t checks = 0;
  std::mutex fail_mutex;

  [[nodiscard]] SpanLog* log() const { return spans.get(); }

  void fail(const std::string& what) {
    const std::lock_guard<std::mutex> lock(fail_mutex);
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  void check(bool ok, const std::string& what) {
    {
      const std::lock_guard<std::mutex> lock(fail_mutex);
      ++checks;
    }
    if (!ok) fail(what);
  }
  void put_e2e(const std::string& name, double v, const char* unit) {
    put_metric(e2e, kEndToEnd, name, v, unit);
  }
  void put_layer(const std::string& name, double v, const char* unit) {
    put_metric(layer, kPerLayer, name, v, unit);
  }
  /// Per-layer metrics the workload does not exercise read an explicit 0.
  void put_not_exercised(std::initializer_list<const char*> names) {
    for (const char* name : names) {
      const auto* spec =
          std::find_if(std::begin(kPerLayer), std::end(kPerLayer),
                       [&](const MetricSpec& s) {
                         return std::strcmp(s.name, name) == 0;
                       });
      if (spec == std::end(kPerLayer)) {
        throw std::logic_error(std::string("undeclared metric ") + name);
      }
      put_layer(name, 0.0, spec->unit);
    }
  }
  [[nodiscard]] std::string path(const std::string& leaf) const {
    return (fs::path(opt.work_dir) / leaf).string();
  }
};

bool same_psms(const std::vector<Psm>& a, const std::vector<Psm>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].query_id != b[i].query_id || a[i].peptide != b[i].peptide ||
        a[i].score != b[i].score || a[i].is_decoy != b[i].is_decoy ||
        a[i].reference_index != b[i].reference_index ||
        a[i].mass_shift != b[i].mass_shift) {
      return false;
    }
  }
  return true;
}

bool same_result(const PipelineResult& a, const PipelineResult& b) {
  return same_psms(a.psms, b.psms) && same_psms(a.accepted, b.accepted);
}

std::vector<Spectrum> slice(const std::vector<Spectrum>& pool,
                            std::size_t stream, std::size_t n) {
  std::vector<Spectrum> out;
  out.reserve(n);
  const std::size_t first = (stream * n) % pool.size();
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(pool[(first + i) % pool.size()]);
  }
  return out;
}

/// Direct calls to the inner layers on `queries`, each inside its own
/// top-level span, mirroring what the engine does for one stream. `psms`
/// (the engine's PSMs for the same queries) feeds the FDR call and is
/// checked against `accepted_expected`.
void replay_layers(Run& run, SpanLog* log, oms::core::Pipeline& p,
                   oms::hd::Encoder& enc, oms::accel::ImcEncoder* imc,
                   const std::vector<Spectrum>& queries,
                   const std::vector<Psm>* psms,
                   std::size_t accepted_expected, std::uint64_t request,
                   Replay& acc) {
  const PipelineConfig& cfg = p.config();
  std::vector<oms::ms::BinnedSpectrum> binned;
  {
    const Span s(log, "ms.preprocess_all", request);
    binned = oms::ms::preprocess_all(queries, cfg.preprocess);
  }
  std::vector<oms::util::BitVec> hvs;
  if (imc == nullptr) {
    const Span s(log, "hd.encode_batch", request);
    std::vector<std::vector<std::uint32_t>> bins;
    std::vector<std::vector<float>> weights;
    bins.reserve(binned.size());
    weights.reserve(binned.size());
    for (const auto& b : binned) {
      bins.push_back(b.bins);
      weights.push_back(b.weights);
    }
    hvs = enc.encode_batch(bins, weights);
  } else {
    const Span s(log, "accel.imc_encode", request);
    std::vector<std::uint32_t> used;
    std::vector<std::size_t> peaks;
    for (const auto& b : binned) {
      used.insert(used.end(), b.bins.begin(), b.bins.end());
      peaks.push_back(b.peak_count());
    }
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());
    enc.id_bank().ensure(used);
    imc->precalibrate(peaks);
    hvs.reserve(binned.size());
    for (const auto& b : binned) {
      hvs.push_back(imc->encode_keyed(
          b.bins, b.weights, oms::util::hash_combine(kQuerySalt, b.id)));
    }
  }
  std::vector<oms::core::Query> batch;
  {
    const Span s(log, "ms.mass_window", request);
    const double window =
        cfg.open_search ? cfg.oms_window_da : cfg.standard_window_da;
    batch.reserve(binned.size());
    for (std::size_t i = 0; i < binned.size(); ++i) {
      const auto [first, last] =
          p.library().mass_window(binned[i].precursor_mass, window);
      if (first >= last) continue;
      batch.push_back(oms::core::Query{&hvs[i], first, last, binned[i].id});
      acc.candidates += last - first;
    }
  }
  const std::shared_ptr<oms::core::SearchBackend> backend = p.shared_backend();
  const oms::core::BackendStats before = backend->stats();
  std::vector<std::vector<oms::hd::SearchHit>> hits;
  {
    const Span s(log, imc == nullptr ? "hd.search_batch" : "accel.search_batch",
                 request);
    hits = backend->search_batch(batch, 1);
  }
  const oms::core::BackendStats delta = backend->stats().since(before);
  acc.phases += delta.phases_executed;
  acc.stats_delta += delta;
  if (psms != nullptr) {
    std::vector<Psm> accepted;
    {
      const Span s(log, "core.fdr", request);
      accepted = oms::core::filter_at_fdr_standard_open(*psms,
                                                         cfg.fdr_threshold);
    }
    run.check(accepted.size() == accepted_expected,
              "filter_at_fdr_standard_open disagrees with the engine's "
              "accepted list");
  }
  acc.queries += queries.size();
  acc.searched += binned.size();
  // Moving the vectors keeps their buffers, so batch's hv pointers stay
  // valid inside acc.last_hvs.
  acc.last_hvs = std::move(hvs);
  acc.last_queries = std::move(batch);
  acc.last_hits = std::move(hits);
}

/// Sampled batched hits must equal SearchBackend::top_k on the same query.
void check_batched_vs_top_k(Run& run, oms::core::SearchBackend& backend,
                            const Replay& acc) {
  const std::size_t n = acc.last_queries.size();
  const std::size_t step = std::max<std::size_t>(1, n / 32);
  for (std::size_t i = 0; i < n; i += step) {
    const oms::core::Query& q = acc.last_queries[i];
    const auto solo = backend.top_k(*q.hv, q.first, q.last, 1, q.stream);
    const auto& batched = acc.last_hits[i];
    const bool ok = solo.size() == batched.size() &&
                    (solo.empty() ||
                     (solo[0].reference_index == batched[0].reference_index &&
                      solo[0].dot == batched[0].dot));
    run.check(ok, "search_batch hit differs from top_k for query " +
                      std::to_string(q.stream));
  }
}

/// Fills the per-layer metrics the replay measures.
void put_replay_layers(Run& run, const Replay& acc, const Replay& exact,
                       bool imc,
                       const std::map<std::string, SpanTotals>& spans) {
  const auto self = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self_s;
  };
  const double q = static_cast<double>(std::max<std::size_t>(1, acc.queries));
  const double searched = static_cast<double>(
      std::max<std::size_t>(1, exact.last_queries.size()));
  run.put_layer("ms.preprocess_s", self("ms.preprocess_all") / q, "s");
  run.put_layer("ms.dropped_frac",
                1.0 - ratio(static_cast<double>(acc.searched),
                            static_cast<double>(acc.queries)),
                "frac");
  run.put_layer("hd.encode_s", self("hd.encode_batch") / q, "s");
  run.put_layer("accel.imc_encode_s", self("accel.imc_encode") / q, "s");
  const double sweep = self("hd.search_batch");
  run.put_layer("hd.sweep_s", sweep / q, "s");
  run.put_layer("accel.search_s", self("accel.search_batch") / q, "s");
  const double dim = static_cast<double>(run.cfg.encoder.dim);
  const double gib = static_cast<double>(acc.candidates) * dim / 8.0 /
                     (1024.0 * 1024.0 * 1024.0);
  run.put_layer("hd.sweep_gib_per_s", imc ? 0.0 : ratio(gib, sweep), "GiB/s");
  // Exact counts come from one untimed replay over a fixed query set.
  run.put_layer("hd.candidates_per_query",
                static_cast<double>(exact.candidates) / searched, "count");
  run.put_layer("accel.phases_per_query",
                static_cast<double>(exact.phases) / searched, "count");
  run.put_layer("core.fdr_s", self("core.fdr") / q, "s");

  // Modelled MLC-RRAM latency and energy for the replayed searches, from
  // the counters the backend recorded — paper-model numbers, not host ones.
  const double eq = static_cast<double>(std::max<std::size_t>(1, exact.queries));
  const auto wl = oms::bench::measured_workload(
      run.opt.workload, exact.queries, exact.stats_delta.references,
      run.cfg.encoder.dim, run.cfg.encoder.chunks);
  const auto model = oms::accel::PerfModel::from_measured(
      exact.stats_delta, wl, oms::accel::RramPerfConfig{});
  run.put_layer("accel.modeled_latency_s", model.this_work_time_s() / eq, "s");
  run.put_layer("accel.modeled_energy_j", model.this_work_energy_j() / eq,
                "J");
}

/// Engine stage histograms (`engine.stage.*_seconds`), summed over the
/// stage workers and divided by the queries they served.
void put_stage_layers(Run& run, const oms::obs::Snapshot& d,
                      double queries) {
  const char* stages[] = {"preprocess", "encode", "queue_wait",
                          "search",     "rescore", "emit"};
  for (const char* st : stages) {
    const auto* h =
        d.histogram(std::string("engine.stage.") + st + "_seconds");
    run.put_layer(std::string("core.stage.") + st + "_s",
                  h == nullptr ? 0.0 : ratio(h->sum, queries), "s");
  }
  const double submitted =
      static_cast<double>(d.counter("engine.queries_submitted"));
  const double dropped =
      static_cast<double>(d.counter("engine.queries_dropped_preprocess"));
  run.put_layer("core.queries_per_block",
                ratio(submitted - dropped,
                      static_cast<double>(d.counter("engine.blocks"))),
                "count");
  run.put_layer("core.empty_window_frac",
                ratio(static_cast<double>(
                          d.counter("engine.queries_empty_window")),
                      submitted),
                "frac");
}

/// The drain-time identity over the engine counters in a registry window.
void check_engine_identity(Run& run, const oms::obs::Snapshot& d) {
  const auto submitted = d.counter("engine.queries_submitted");
  const auto accounted = d.counter("engine.psms_emitted") +
                         d.counter("engine.queries_dropped_preprocess") +
                         d.counter("engine.queries_empty_window");
  run.check(submitted == accounted,
            "engine identity: submitted " + std::to_string(submitted) +
                " != emitted + dropped + empty " + std::to_string(accounted));
}

/// `rss_mib` is the peak resident set sampled as the timed loop ends, before
/// any correctness check allocates.
void put_common_e2e(Run& run, double setup_s, double qps,
                    const LatencySummary& lat, double slo, double accepted,
                    double bytes_per_entry, double rss_mib) {
  run.put_e2e("rss_peak_mib", rss_mib, "MiB");
  run.put_e2e("setup_s", setup_s, "s");
  run.put_e2e("search_qps", qps, "1/s");
  run.put_e2e("stream_latency_p50_s", lat.p50, "s");
  run.put_e2e("stream_latency_tail_s", lat.tail, "s");
  run.put_e2e("slo_met_frac", slo, "frac");
  run.put_e2e("accepted_psms", accepted, "count");
  run.put_e2e("index_bytes_per_entry", bytes_per_entry, "B");
  std::printf("stream latency: n=%zu p50=%.6f s tail=p%.1f %.6f s\n",
              lat.samples, lat.p50, lat.tail_percentile, lat.tail);
}

double slo_fraction(const std::vector<double>& latencies, std::size_t failed,
                    double limit) {
  const std::size_t ok = static_cast<std::size_t>(std::count_if(
      latencies.begin(), latencies.end(),
      [&](double l) { return l <= limit; }));
  return ratio(static_cast<double>(ok),
               static_cast<double>(latencies.size() + failed));
}

// --- open-batch / rram-open ----------------------------------------------------

void run_batch(Run& run, bool rram) {
  PipelineConfig& cfg = run.cfg;
  cfg.backend_name = rram ? "rram-statistical" : "ideal-hd";
  cfg.open_search = true;
  const std::vector<Spectrum>& queries = run.wl.queries;
  const std::string artifact = run.path("library.omsx");
  SpanLog* log = run.log();

  oms::core::QueryEngineConfig ecfg;
  ecfg.block_size = 64;
  ecfg.stage_threads = oms::util::ThreadPool::global().thread_count();
  ecfg.emit_policy = oms::core::EmitPolicy::AtDrain;

  // Set-up, repeated: spectra → artifact → open → set_library → first
  // admitted query.
  std::vector<double> setup, build, open, set_library;
  std::shared_ptr<const oms::index::LibraryIndex> index;
  std::unique_ptr<oms::core::Pipeline> pipeline;
  oms::index::BuildStats built;
  for (std::size_t r = 0; r < run.z.setups; ++r) {
    pipeline.reset();
    index.reset();
    fs::remove(artifact);
    const auto t0 = Clock::now();
    {
      const Span s(log, "index.build");
      built = oms::index::IndexBuilder(cfg).build(run.wl.references, artifact);
    }
    const auto t1 = Clock::now();
    {
      const Span s(log, "index.open");
      index = std::make_shared<const oms::index::LibraryIndex>(
          oms::index::LibraryIndex::open(artifact));
    }
    const auto t2 = Clock::now();
    {
      const Span s(log, "index.set_library");
      pipeline = std::make_unique<oms::core::Pipeline>(cfg);
      pipeline->set_library(index);
    }
    const auto t3 = Clock::now();
    PipelineResult first;
    {
      oms::core::QueryEngine engine(*pipeline, ecfg);
      {
        const Span s(log, "core.first_admit");
        engine.submit(queries.front());
      }
      setup.push_back(seconds_between(t0, Clock::now()));
      first = engine.drain();
    }
    build.push_back(seconds_between(t0, t1));
    open.push_back(seconds_between(t1, t2));
    set_library.push_back(seconds_between(t2, t3));
    ++run.attempted;
    run.check(first.queries_in == 1, "set-up stream lost its query");
  }

  const auto run_stream = [&](const std::vector<Spectrum>& qs,
                              oms::obs::MetricsRegistry* reg,
                              oms::obs::Tracer* tracer,
                              std::uint64_t request) {
    oms::core::QueryEngineConfig c = ecfg;
    c.metrics = reg;
    c.tracer = tracer;
    oms::core::QueryEngine engine(*pipeline, c);
    {
      const Span s(reg != nullptr ? log : nullptr, "core.submit_batch",
                   request);
      engine.submit_batch(qs);
    }
    PipelineResult res;
    {
      const Span s(reg != nullptr ? log : nullptr, "core.drain", request);
      res = engine.drain();
    }
    return std::make_pair(std::move(res), engine.stats());
  };

  std::printf("rss peak after set-up: %.1f MiB\n", rss_peak_mib());
  // Warm-up over the whole query pool: pages in the mapping, fills caches,
  // starts the pool, and gives the exact accepted-PSM count.
  const PipelineResult reference =
      run_stream(queries, nullptr, nullptr, 0).first;

  oms::hd::Encoder enc(cfg.encoder);
  std::unique_ptr<oms::accel::ImcEncoder> imc;
  if (rram) {
    imc = std::make_unique<oms::accel::ImcEncoder>(
        enc, oms::accel::ImcEncoderConfig{
                 cfg.backend_options.array, oms::accel::Fidelity::kStatistical,
                 cfg.backend_options.calibration_samples, cfg.seed});
  }

  // Timed loop: one closed-loop client; stream i searches slice i of the
  // pool. In the traced run every other stream carries the obs registry,
  // the tracer and inner spans, and is followed by the direct-call replay;
  // the plain streams in between give the untraced baseline for
  // obs.trace_overhead_frac.
  const std::size_t per_stream = run.z.stream_queries;
  const std::size_t n_slices = std::max<std::size_t>(1, queries.size() / per_stream);
  std::vector<std::vector<Spectrum>> slices;
  for (std::size_t j = 0; j < n_slices; ++j) {
    slices.push_back(slice(queries, j, per_stream));
  }
  std::vector<std::optional<PipelineResult>> slice_ref(n_slices);
  oms::obs::MetricsRegistry registry;
  oms::obs::Tracer tracer(oms::obs::TracerConfig{4096, 1});
  Replay replay;
  std::vector<double> latencies, traced_lat, plain_lat;
  std::size_t stream_failures = 0;
  bool identical = true;
  const double cpu0 = process_cpu_s();
  const auto t_start = Clock::now();
  const auto deadline =
      t_start + std::chrono::duration<double>(run.opt.seconds);
  for (std::uint64_t i = 0; Clock::now() < deadline || latencies.size() < 3;
       ++i) {
    const bool traced = run.opt.trace && i % 2 == 1;
    const std::vector<Spectrum>& qs = slices[i % n_slices];
    const auto t0 = Clock::now();
    std::pair<PipelineResult, oms::core::QueryEngineStats> out;
    run.attempted += 1 + qs.size();
    try {
      const Span s(log, "core.engine_stream", i);
      out = run_stream(qs, traced ? &registry : nullptr,
                       traced ? &tracer : nullptr, i);
    } catch (const std::exception& e) {
      ++stream_failures;
      run.fail(std::string("engine stream threw: ") + e.what());
      continue;
    }
    const double lat = seconds_between(t0, Clock::now());
    latencies.push_back(lat);
    (traced ? traced_lat : plain_lat).push_back(lat);
    const auto& st = out.second;
    if (st.submitted != st.emitted + st.dropped_preprocess + st.empty_window) {
      run.fail("engine identity broken in stream " + std::to_string(i));
    }
    auto& ref = slice_ref[i % n_slices];
    if (ref) {
      identical = identical && same_result(out.first, *ref);
    }
    if (traced) {
      replay_layers(run, log, *pipeline, enc, imc.get(), qs, &out.first.psms,
                    out.first.accepted.size(), i, replay);
    }
    if (!ref) ref = std::move(out.first);
  }
  const double wall = seconds_between(t_start, Clock::now());
  const double rss = rss_peak_mib();
  std::printf("timed loop: %.3f s wall, %.3f cpu-s, %.6g cpu-s per query\n",
              wall, process_cpu_s() - cpu0,
              (process_cpu_s() - cpu0) /
                  static_cast<double>(latencies.size() * per_stream));
  run.check(identical, "engine streams over one slice returned different PSMs");
  Replay exact;
  replay_layers(run, nullptr, *pipeline, enc, imc.get(), queries,
                &reference.psms, reference.accepted.size(), 0, exact);
  check_batched_vs_top_k(run, *pipeline->shared_backend(), exact);

  // Throughput of the median stream: a burst of host contention slows a
  // few streams, not the reported rate.
  const LatencySummary lat = summarize(latencies);
  put_common_e2e(
      run, median(setup),
      ratio(static_cast<double>(per_stream), lat.p50), lat,
      slo_fraction(latencies, stream_failures, run.z.latency_limit_s),
      static_cast<double>(reference.accepted.size()),
      ratio(static_cast<double>(built.file_bytes),
            static_cast<double>(built.entries)),
      rss);

  if (run.opt.trace) {
    const auto totals = span_totals(run.spans->records());
    put_replay_layers(run, replay, exact, rram, totals);
    run.put_not_exercised({"index.append_s", "index.compact_s",
                           "serve.open_s", "serve.submit_s", "serve.close_s",
                           "serve.cache_hit_frac", "serve.backend_hit_frac",
                           "serve.admission_blocked", "serve.compactions",
                           "serve.generator_late_s"});
    const oms::obs::Snapshot snap = registry.snapshot();
    check_engine_identity(run, snap);
    const double traced_queries =
        static_cast<double>(traced_lat.size() * per_stream);
    put_stage_layers(run, snap, traced_queries);
    run.put_layer("core.engine_s",
                  ratio(mean(plain_lat), static_cast<double>(per_stream)),
                  "s");
    run.put_layer("obs.trace_overhead_frac",
                  ratio(mean(traced_lat), mean(plain_lat)) - 1.0, "frac");
    run.put_layer("index.build_s", median(build), "s");
    run.put_layer("index.open_s", median(open), "s");
    run.put_layer("index.set_library_s", median(set_library), "s");
    run.put_layer("index.bytes_written",
                  static_cast<double>(built.file_bytes), "B");
    run.put_layer("hd.encode_spectra_per_s", built.spectra_per_sec(), "1/s");
    run.put_layer("hd.extent_count",
                  static_cast<double>(
                      pipeline->backend_stats().extent_count),
                  "count");
    // Wall time of the timed loop that the top-level spans cover.
    double loop_top = 0.0;
    for (const SpanRecord& s : run.spans->records()) {
      if (s.parent < 0 &&
          s.start >= seconds_between(run.origin, t_start)) {
        loop_top += s.end - s.start;
      }
    }
    run.put_layer("obs.span_coverage_frac", ratio(loop_top, wall), "frac");
  }
}

// --- serve-standard ------------------------------------------------------------

struct StreamRecord {
  std::size_t stream = 0;
  PipelineResult result;
  std::shared_ptr<const oms::index::SegmentedLibrary> generation;
};

oms::serve::SessionConfig session_config(const PipelineConfig& cfg,
                                         bool traced) {
  oms::serve::SessionConfig s;
  s.pipeline = cfg;
  s.trace_sample_every = traced ? 1 : 0;
  return s;
}

/// One client stream: open → submit each query → close. `open_gate`, when
/// given, is held shared around the open (see run_grow).
PipelineResult serve_stream(Run& run, oms::serve::SearchServer& server,
                            const std::string& library,
                            const std::vector<Spectrum>& queries, bool traced,
                            std::uint64_t request,
                            std::shared_ptr<oms::serve::Session>* keep,
                            std::shared_mutex* open_gate = nullptr) {
  SpanLog* log = traced ? run.log() : nullptr;
  std::shared_ptr<oms::serve::Session> session;
  {
    const Span s(log, "serve.open", request);
    std::shared_lock<std::shared_mutex> gate;
    if (open_gate != nullptr) gate = std::shared_lock(*open_gate);
    session = server.open(library, session_config(run.cfg, traced));
  }
  if (keep != nullptr) *keep = session;
  for (const Spectrum& q : queries) {
    const Span s(log, "serve.submit", request);
    if (!session->submit(q)) {
      throw std::runtime_error("session refused a query");
    }
  }
  const Span s(log, "serve.close", request);
  return session->close();
}

/// Solo Pipeline::run over the same artifact must reproduce every sampled
/// stream bit for bit.
template <typename Library>
void check_streams_against_solo(Run& run, const std::vector<StreamRecord>& recs,
                                const std::shared_ptr<const Library>& lib) {
  if (recs.empty()) return;
  oms::core::Pipeline solo(run.cfg);
  solo.set_library(lib);
  for (const StreamRecord& r : recs) {
    const auto qs = slice(run.wl.queries, r.stream, run.z.stream_queries);
    run.check(same_result(solo.run(qs), r.result),
              "stream " + std::to_string(r.stream) +
                  " differs from a solo Pipeline::run");
  }
}

/// Serve-layer per-layer metrics from the benchmark's spans and the server
/// registry window of the timed loop.
void put_serve_layers(Run& run, const std::map<std::string, SpanTotals>& tot,
                      const oms::obs::Snapshot& before,
                      const oms::obs::Snapshot& after,
                      std::size_t traced_streams) {
  const auto per_stream = [&](const char* name) {
    const auto it = tot.find(name);
    return it == tot.end()
               ? 0.0
               : ratio(it->second.total_s,
                       static_cast<double>(std::max<std::size_t>(
                           1, traced_streams)));
  };
  run.put_layer("serve.open_s", per_stream("serve.open"), "s");
  run.put_layer("serve.submit_s", per_stream("serve.submit"), "s");
  run.put_layer("serve.close_s", per_stream("serve.close"), "s");
  const auto gauge_delta = [&](const char* name) {
    return after.gauge(name) - before.gauge(name);
  };
  const double hits = gauge_delta("serve.cache.hits");
  const double misses = gauge_delta("serve.cache.misses");
  run.put_layer("serve.cache_hit_frac", ratio(hits, hits + misses), "frac");
  run.put_layer("serve.backend_hit_frac",
                ratio(gauge_delta("serve.cache.backend_hits"), hits + misses),
                "frac");
  const oms::obs::Snapshot d = after.since(before);
  run.put_layer("serve.admission_blocked",
                static_cast<double>(d.counter("serve.admission.blocked")),
                "count");
  put_stage_layers(run, d,
                   static_cast<double>(d.counter("engine.queries_submitted")));
}

void run_serve_standard(Run& run) {
  PipelineConfig& cfg = run.cfg;
  cfg.backend_name = "ideal-hd";
  cfg.open_search = false;
  const std::string artifact = run.path("library.omsx");
  SpanLog* log = run.log();

  std::vector<double> setup, build;
  oms::index::BuildStats built;
  std::unique_ptr<oms::serve::SearchServer> server;
  for (std::size_t r = 0; r < run.z.setups; ++r) {
    server.reset();
    fs::remove(artifact);
    const auto t0 = Clock::now();
    {
      const Span s(log, "index.build");
      built = oms::index::IndexBuilder(cfg).build(run.wl.references, artifact);
    }
    const auto t1 = Clock::now();
    server = std::make_unique<oms::serve::SearchServer>();
    std::shared_ptr<oms::serve::Session> session;
    {
      const Span s(log, "serve.open");
      session = server->open(artifact, session_config(cfg, false));
    }
    ++run.attempted;
    run.check(session->submit(run.wl.queries.front()),
              "set-up session refused its first query");
    setup.push_back(seconds_between(t0, Clock::now()));
    (void)session->close();
    build.push_back(seconds_between(t0, t1));
    std::printf("set-up %zu: %.4f s (build %.4f s)\n", r, setup.back(),
                build.back());
  }
  std::printf("rss peak after set-up: %.1f MiB\n", rss_peak_mib());
  // Warm-up stream, untimed.
  (void)serve_stream(run, *server, artifact,
                     slice(run.wl.queries, 0, run.z.stream_queries), false, 0,
                     nullptr);

  // Open loop: stream k is due at k / rate; four client threads take the
  // streams round-robin, so a stall makes later streams start late, and
  // latency is timed from when each stream was due.
  const std::size_t n_streams = std::max<std::size_t>(
      1, static_cast<std::size_t>(run.z.rate_per_s * run.opt.seconds));
  const std::size_t clients = 4;
  // At most eight sampled streams are replayed solo after the loop.
  const std::size_t sample_every = std::max<std::size_t>(16, n_streams / 8);
  std::vector<double> latency(n_streams, -1.0), late(n_streams, 0.0);
  std::vector<std::size_t> accepted(n_streams, 0);
  std::vector<char> traced_flag(n_streams, 0);
  std::vector<StreamRecord> samples;
  std::mutex samples_mutex;
  const oms::obs::Snapshot before = server->metrics_snapshot();
  const auto t_start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (std::size_t d = 0; d < clients; ++d) {
    threads.emplace_back([&, d] {
      for (std::size_t k = d; k < n_streams; k += clients) {
        const auto due =
            t_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(k) / run.z.rate_per_s));
        std::this_thread::sleep_until(due);
        const auto start = Clock::now();
        late[k] = seconds_between(due, start);
        const bool traced = run.opt.trace && k % 2 == 1;
        traced_flag[k] = traced ? 1 : 0;
        try {
          const auto qs = slice(run.wl.queries, k, run.z.stream_queries);
          PipelineResult res;
          {
            const Span s(traced ? run.log() : nullptr, "serve.stream", k);
            res = serve_stream(run, *server, artifact, qs, traced, k, nullptr);
          }
          latency[k] = seconds_between(due, Clock::now());
          accepted[k] = res.accepted.size();
          if (k % sample_every == 0) {
            const std::lock_guard<std::mutex> lock(samples_mutex);
            samples.push_back(StreamRecord{k, std::move(res), nullptr});
          }
        } catch (const std::exception& e) {
          run.fail(std::string("stream threw: ") + e.what());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall = seconds_between(t_start, Clock::now());
  const double rss = rss_peak_mib();
  const oms::obs::Snapshot after = server->metrics_snapshot();
  check_engine_identity(run, after.since(before));

  std::vector<double> ok_lat, traced_lat, plain_lat;
  std::size_t failed_streams = 0;
  std::size_t completed_queries = 0;
  std::size_t total_accepted = 0;
  for (std::size_t k = 0; k < n_streams; ++k) {
    run.attempted += 1 + run.z.stream_queries;
    if (latency[k] < 0.0) {
      ++failed_streams;
      continue;
    }
    ok_lat.push_back(latency[k]);
    (traced_flag[k] != 0 ? traced_lat : plain_lat).push_back(latency[k]);
    completed_queries += run.z.stream_queries;
    total_accepted += accepted[k];
  }

  // Correctness, outside the timed loop.
  const auto t_check = Clock::now();
  std::shared_ptr<const oms::index::LibraryIndex> index;
  {
    const Span s(log, "index.open");
    index = std::make_shared<const oms::index::LibraryIndex>(
        oms::index::LibraryIndex::open(artifact));
  }
  const auto t_opened = Clock::now();
  check_streams_against_solo(run, samples, index);
  oms::core::Pipeline solo(cfg);
  {
    const Span s(log, "index.set_library");
    solo.set_library(index);
  }
  const auto t_set = Clock::now();
  const auto replay_queries =
      std::vector<Spectrum>(run.wl.queries.begin(),
                            run.wl.queries.begin() +
                                static_cast<std::ptrdiff_t>(std::min(
                                    run.wl.queries.size(), std::size_t{500})));
  const PipelineResult solo_res = solo.run(replay_queries);
  oms::hd::Encoder enc(cfg.encoder);
  Replay replay;
  replay_layers(run, log, solo, enc, nullptr, replay_queries, &solo_res.psms,
                solo_res.accepted.size(), 0, replay);
  check_batched_vs_top_k(run, *solo.shared_backend(), replay);

  const LatencySummary lat = summarize(ok_lat);
  std::printf("open loop: %zu streams at %.1f/s, generator late p50=%.6f s "
              "max=%.6f s\n",
              n_streams, run.z.rate_per_s, median(late),
              *std::max_element(late.begin(), late.end()));
  put_common_e2e(
      run, median(setup), ratio(static_cast<double>(completed_queries), wall),
      lat, slo_fraction(ok_lat, failed_streams, run.z.latency_limit_s),
      static_cast<double>(total_accepted),
      ratio(static_cast<double>(built.file_bytes),
            static_cast<double>(built.entries)),
      rss);

  if (run.opt.trace) {
    const auto totals = span_totals(run.spans->records());
    put_replay_layers(run, replay, replay, false, totals);
    put_serve_layers(run, totals, before, after, traced_lat.size());
    run.put_not_exercised({"index.append_s", "index.compact_s",
                           "serve.compactions", "obs.span_coverage_frac"});
    run.put_layer("core.engine_s",
                  ratio(mean(plain_lat),
                        static_cast<double>(run.z.stream_queries)),
                  "s");
    run.put_layer("obs.trace_overhead_frac",
                  ratio(mean(traced_lat), mean(plain_lat)) - 1.0, "frac");
    run.put_layer("serve.generator_late_s", mean(late), "s");
    run.put_layer("index.build_s", median(build), "s");
    run.put_layer("index.open_s", seconds_between(t_check, t_opened), "s");
    run.put_layer("index.set_library_s", seconds_between(t_opened, t_set),
                  "s");
    run.put_layer("index.bytes_written",
                  static_cast<double>(built.file_bytes), "B");
    run.put_layer("hd.encode_spectra_per_s", built.spectra_per_sec(), "1/s");
    run.put_layer("hd.extent_count",
                  static_cast<double>(solo.backend_stats().extent_count),
                  "count");
  }
}

// --- grow ------------------------------------------------------------------------

void run_grow(Run& run) {
  constexpr std::size_t kReaders = 3;
  PipelineConfig& cfg = run.cfg;
  cfg.backend_name = "ideal-hd";
  cfg.open_search = true;
  SpanLog* log = run.log();
  const std::size_t batches = run.z.grow_batches;
  const std::size_t initial = run.wl.references.size() - batches * run.z.grow_batch;
  const auto refs_begin = run.wl.references.begin();
  const std::vector<Spectrum> initial_refs(
      refs_begin, refs_begin + static_cast<std::ptrdiff_t>(initial));
  const auto batch_refs = [&](std::size_t j) {
    const auto b = refs_begin + static_cast<std::ptrdiff_t>(
                                    initial + j * run.z.grow_batch);
    return std::vector<Spectrum>(
        b, b + static_cast<std::ptrdiff_t>(run.z.grow_batch));
  };

  oms::serve::SearchServerConfig scfg;
  scfg.maintainer.interval = std::chrono::milliseconds(0);
  // Compact on segment count only, so readers spend most of the run on a
  // fragmented (many-extent) generation before compaction restores one.
  scfg.maintainer.max_segments = batches;
  scfg.maintainer.small_segment_fraction = 0.0;

  std::vector<double> setup;
  std::string manifest;
  std::unique_ptr<oms::serve::SearchServer> server;
  const oms::index::IndexBuilder index_builder(cfg);
  for (std::size_t r = 0; r < run.z.setups; ++r) {
    server.reset();
    const fs::path dir = fs::path(run.opt.work_dir) / ("grow" + std::to_string(r));
    fs::remove_all(dir);
    fs::create_directories(dir);
    manifest = (dir / "library.omsm").string();
    const auto t0 = Clock::now();
    {
      const Span s(log, "index.append");
      (void)index_builder.append(initial_refs, manifest);
    }
    server = std::make_unique<oms::serve::SearchServer>(scfg);
    std::shared_ptr<oms::serve::Session> session;
    {
      const Span s(log, "serve.open");
      session = server->open(manifest, session_config(cfg, false));
    }
    ++run.attempted;
    run.check(session->submit(run.wl.queries.front()),
              "set-up session refused its first query");
    setup.push_back(seconds_between(t0, Clock::now()));
    (void)session->close();
    if (r + 1 < run.z.setups) fs::remove_all(dir);
  }
  std::printf("rss peak after set-up: %.1f MiB\n", rss_peak_mib());
  (void)serve_stream(run, *server, manifest,
                     slice(run.wl.queries, 0, run.z.stream_queries), false, 0,
                     nullptr);

  // One writer works through batches + 1 evenly spaced ticks: each runs one
  // maintenance sweep and then appends the next batch. A sweep compacts
  // once the manifest holds more than `batches` segments (the last tick),
  // so readers see generations of 1 .. batches + 1 segments and then the
  // compacted one, each for about seconds / (batches + 2). Three
  // closed-loop readers stream open-window queries through the server,
  // each stream leasing the current generation. The window ends once the
  // deadline has passed and the writer is done.
  const oms::obs::Snapshot before = server->metrics_snapshot();
  const auto maint_before = server->maintainer().stats();
  const auto t_start = Clock::now();
  const auto deadline =
      t_start + std::chrono::duration<double>(run.opt.seconds);
  std::atomic<bool> writer_done{false};
  std::atomic<std::size_t> next_stream{1};
  std::vector<double> append_s, compact_s;
  std::size_t appended = 0;
  double encoded_entries = 0.0;
  double encode_s = 0.0;
  std::uint64_t bytes_written = 0;
  std::mutex rec_mutex;
  std::vector<double> latencies, traced_lat, plain_lat;
  // The first stream that completes on each generation is kept, with its
  // generation alive, for the solo check and the per-layer replay.
  std::vector<StreamRecord> samples;
  std::set<std::uint64_t> claimed;
  std::vector<std::uint64_t> stream_generation;
  std::size_t failed_streams = 0;
  std::size_t completed_queries = 0;
  std::size_t own_leases = 0;
  std::size_t own_lease_hits = 0;
  std::size_t own_backend_hits = 0;
  // Compaction unlinks superseded segments, and a lease that read the old
  // manifest can then fail to open one: writers are not yet fenced against
  // readers in the library. The workload therefore keeps opens and leases
  // out of a maintenance sweep; searches on open sessions still run beside
  // appends and compactions.
  std::shared_mutex open_gate;

  std::thread writer([&] {
    for (std::size_t j = 0; j <= batches; ++j) {
      std::this_thread::sleep_until(
          t_start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            run.opt.seconds * static_cast<double>(j + 1) /
                            static_cast<double>(batches + 2))));
      try {
        const auto t0 = Clock::now();
        std::size_t compacted = 0;
        {
          const Span s(log, "serve.maintain", j);
          const std::unique_lock<std::shared_mutex> gate(open_gate);
          compacted = server->maintainer().run_once();
        }
        if (compacted > 0) compact_s.push_back(seconds_between(t0, Clock::now()));
        if (j < batches) {
          const auto spectra = batch_refs(j);
          const auto t1 = Clock::now();
          oms::index::BuildStats st;
          {
            const Span s(log, "index.append", j);
            st = index_builder.append(spectra, manifest);
          }
          append_s.push_back(seconds_between(t1, Clock::now()));
          appended += st.targets_in;
          encoded_entries += static_cast<double>(st.entries);
          encode_s += st.encode_seconds;
          bytes_written += st.file_bytes;
        }
      } catch (const std::exception& e) {
        run.fail(std::string("append or maintenance threw: ") + e.what());
      }
      ++run.attempted;
    }
    writer_done.store(true);
  });

  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (Clock::now() < deadline || !writer_done.load()) {
        const std::size_t k = next_stream.fetch_add(1);
        const bool traced = run.opt.trace && k % 2 == 1;
        const auto qs = slice(run.wl.queries, k, run.z.stream_queries);
        const auto t0 = Clock::now();
        try {
          std::shared_ptr<oms::serve::Session> session;
          PipelineResult res;
          {
            const Span s(traced ? log : nullptr, "serve.stream", k);
            res = serve_stream(run, *server, manifest, qs, traced, k,
                               &session, &open_gate);
          }
          const double lat = seconds_between(t0, Clock::now());
          const std::uint64_t generation = session->generation();
          bool first_on_generation = false;
          {
            const std::lock_guard<std::mutex> lock(rec_mutex);
            first_on_generation = claimed.insert(generation).second;
          }
          std::shared_ptr<const oms::index::SegmentedLibrary> gen;
          if (first_on_generation) {
            // The generation this stream leased, kept for the checks (off
            // the stream's clock; the cache hands back the same mapping
            // unless the writer has moved on since the stream closed).
            const std::shared_lock<std::shared_mutex> gate(open_gate);
            const auto lease = server->cache().lease(manifest, cfg);
            const std::lock_guard<std::mutex> lock(rec_mutex);
            ++own_leases;
            own_lease_hits += lease.cache_hit ? 1 : 0;
            own_backend_hits += lease.backend_hit ? 1 : 0;
            if (lease.segmented &&
                lease.segmented->combined_hash() == generation) {
              gen = lease.segmented;
            }
          }
          const std::lock_guard<std::mutex> lock(rec_mutex);
          latencies.push_back(lat);
          (traced ? traced_lat : plain_lat).push_back(lat);
          completed_queries += qs.size();
          stream_generation.push_back(generation);
          if (gen) {
            samples.push_back(StreamRecord{k, std::move(res), gen});
          } else if (first_on_generation) {
            claimed.erase(generation);  // Let a later stream sample it.
          }
        } catch (const std::exception& e) {
          const std::lock_guard<std::mutex> lock(rec_mutex);
          ++failed_streams;
          run.fail(std::string("reader stream threw: ") + e.what());
        }
        const std::lock_guard<std::mutex> lock(rec_mutex);
        run.attempted += 1 + qs.size();
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  const double wall = seconds_between(t_start, Clock::now());
  const double rss = rss_peak_mib();
  oms::obs::Snapshot after = server->metrics_snapshot();

  // Remove the benchmark's own sampling leases from the cache counters.
  after.gauges["serve.cache.hits"] -= static_cast<double>(own_lease_hits);
  after.gauges["serve.cache.misses"] -=
      static_cast<double>(own_leases - own_lease_hits);
  after.gauges["serve.cache.backend_hits"] -=
      static_cast<double>(own_backend_hits);
  const auto maint_after = server->maintainer().stats();
  check_engine_identity(run, after.since(before));
  server.reset();  // The checks below need only the kept generations.

  // Correctness, outside the timed loop: the first stream on each
  // generation against a solo run on that generation, then the final
  // compacted library against a one-shot build of every appended spectrum.
  std::sort(samples.begin(), samples.end(),
            [](const StreamRecord& a, const StreamRecord& b) {
              return a.stream < b.stream;
            });
  std::map<std::uint64_t, std::size_t> extents_of;
  const StreamRecord* most_fragmented = nullptr;
  std::printf("grow: generations checked (segments/extents):");
  for (const StreamRecord& r : samples) {
    check_streams_against_solo(run, std::vector<StreamRecord>{r}, r.generation);
    const std::size_t extents = r.generation->ref_view().extent_count();
    extents_of[r.generation->combined_hash()] = extents;
    std::printf(" %zu/%zu", r.generation->segment_count(), extents);
    if (most_fragmented == nullptr ||
        extents > most_fragmented->generation->ref_view().extent_count()) {
      most_fragmented = &r;
    }
  }
  std::printf("\n");
  // Stream-weighted extent count of the generations the readers searched.
  std::vector<double> stream_extents;
  for (const std::uint64_t g : stream_generation) {
    const auto it = extents_of.find(g);
    if (it != extents_of.end()) {
      stream_extents.push_back(static_cast<double>(it->second));
    }
  }
  const auto t_compact = Clock::now();
  {
    const Span s(log, "index.compact");
    const auto st = index_builder.compact(manifest);
    bytes_written += st.file_bytes;
  }
  const auto t_open0 = Clock::now();
  std::shared_ptr<const oms::index::SegmentedLibrary> final_lib;
  {
    const Span s(log, "index.open");
    final_lib = std::make_shared<const oms::index::SegmentedLibrary>(
        oms::index::SegmentedLibrary::open(manifest));
  }
  const double final_open_s = seconds_between(t_open0, Clock::now());
  std::vector<Spectrum> all_refs(initial_refs);
  for (std::size_t j = 0; j < batches; ++j) {
    const auto b = batch_refs(j);
    all_refs.insert(all_refs.end(), b.begin(), b.end());
  }
  const std::string oneshot = run.path("oneshot.omsx");
  (void)index_builder.build(all_refs, oneshot);
  oms::core::Pipeline grown(cfg);
  const auto t_open1 = Clock::now();
  {
    const Span s(log, "index.set_library");
    grown.set_library(final_lib);
  }
  const auto t_set = Clock::now();
  oms::core::Pipeline fresh(cfg);
  fresh.set_library(std::make_shared<const oms::index::LibraryIndex>(
      oms::index::LibraryIndex::open(oneshot)));
  const PipelineResult grown_res = grown.run(run.wl.queries);
  run.check(same_result(grown_res, fresh.run(run.wl.queries)),
            "compacted library differs from a one-shot build");
  run.check(appended == batches * run.z.grow_batch,
            "appends lost spectra");

  // The sweep the readers paid for: replay on the most fragmented
  // generation a sampled stream searched (the compacted library if none
  // was kept).
  oms::core::Pipeline fragmented(cfg);
  if (most_fragmented != nullptr) {
    fragmented.set_library(most_fragmented->generation);
  } else {
    fragmented.set_library(final_lib);
  }
  const PipelineResult fragmented_res = fragmented.run(run.wl.queries);
  oms::hd::Encoder enc(cfg.encoder);
  Replay replay;
  replay_layers(run, log, fragmented, enc, nullptr, run.wl.queries,
                &fragmented_res.psms, fragmented_res.accepted.size(), 0,
                replay);
  check_batched_vs_top_k(run, *fragmented.shared_backend(), replay);
  samples.clear();

  std::uint64_t lib_bytes = 0;
  for (const auto& seg : final_lib->manifest().segments) {
    lib_bytes += seg.file_size;
  }
  const LatencySummary lat = summarize(latencies);
  std::printf("grow: %zu appends, %zu compactions, %zu reader streams, "
              "%.1f queries/s over the whole window\n",
              append_s.size(), compact_s.size(), latencies.size(),
              ratio(static_cast<double>(completed_queries), wall));
  // Closed loop: readers x queries per stream over the median stream, so a
  // burst of host contention moves a few streams, not the reported rate.
  put_common_e2e(run, median(setup),
                 ratio(static_cast<double>(kReaders * run.z.stream_queries),
                       lat.p50),
                 lat,
                 slo_fraction(latencies, failed_streams, run.z.latency_limit_s),
                 static_cast<double>(grown_res.accepted.size()),
                 ratio(static_cast<double>(lib_bytes),
                       static_cast<double>(final_lib->size())),
                 rss);

  if (run.opt.trace) {
    const auto totals = span_totals(run.spans->records());
    put_replay_layers(run, replay, replay, false, totals);
    put_serve_layers(run, totals, before, after, traced_lat.size());
    run.put_not_exercised({"index.build_s", "serve.generator_late_s",
                           "obs.span_coverage_frac"});
    run.put_layer("core.engine_s",
                  ratio(mean(plain_lat),
                        static_cast<double>(run.z.stream_queries)),
                  "s");
    run.put_layer("obs.trace_overhead_frac",
                  ratio(mean(traced_lat), mean(plain_lat)) - 1.0, "frac");
    run.put_layer("serve.compactions",
                  static_cast<double>(maint_after.compactions -
                                      maint_before.compactions),
                  "count");
    run.put_layer("index.append_s", mean(append_s), "s");
    run.put_layer("index.compact_s",
                  compact_s.empty() ? seconds_between(t_compact, t_open0)
                                    : mean(compact_s),
                  "s");
    run.put_layer("index.open_s", final_open_s, "s");
    run.put_layer("index.set_library_s", seconds_between(t_open1, t_set), "s");
    run.put_layer("index.bytes_written", static_cast<double>(bytes_written),
                  "B");
    run.put_layer("hd.encode_spectra_per_s", ratio(encoded_entries, encode_s),
                  "1/s");
    run.put_layer("hd.extent_count", mean(stream_extents), "count");
  }
}

// --- host probe ----------------------------------------------------------------

/// STREAM-style read bandwidth over arrays at least four times the last-level
/// cache, with as many threads as the global pool: the roofline denominator
/// for hd.sweep_gib_per_s (which counts computed bytes, not traffic).
double probe_read_gib_per_s(std::size_t* bytes_out, std::size_t* llc_out) {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (llc <= 0) llc = 32L << 20;
  const std::size_t bytes = 4 * static_cast<std::size_t>(llc);
  const std::size_t words = bytes / sizeof(std::uint64_t);
  *bytes_out = bytes;
  *llc_out = static_cast<std::size_t>(llc);
  std::vector<std::uint64_t> a(words);
  for (std::size_t i = 0; i < words; ++i) a[i] = i;
  const std::size_t threads = oms::util::ThreadPool::global().thread_count();
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::uint64_t> sums(threads, 0);
    const auto t0 = Clock::now();
    std::vector<std::thread> ts;
    for (std::size_t t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] {
        const std::size_t lo = words * t / threads;
        const std::size_t hi = words * (t + 1) / threads;
        std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
        std::size_t i = lo;
        for (; i + 4 <= hi; i += 4) {
          s0 += a[i];
          s1 += a[i + 1];
          s2 += a[i + 2];
          s3 += a[i + 3];
        }
        for (; i < hi; ++i) s0 += a[i];
        sums[t] = s0 + s1 + s2 + s3;
      });
    }
    for (auto& t : ts) t.join();
    const double s = seconds_between(t0, Clock::now());
    const std::uint64_t total =
        std::accumulate(sums.begin(), sums.end(), std::uint64_t{0});
    if (total != static_cast<std::uint64_t>(words) * (words - 1) / 2) {
      throw std::runtime_error("bandwidth probe read back a wrong sum");
    }
    best = std::max(best, static_cast<double>(bytes) / s /
                              (1024.0 * 1024.0 * 1024.0));
  }
  return best;
}

// --- main ------------------------------------------------------------------------

/// A new process's threads can run at a fraction of full speed for about a
/// second on virtualised hosts (they start crowded onto one vCPU), so real
/// multi-threaded work — encoding a few queries over and over — runs before
/// anything is timed. Few queries, so the warm-up adds little to the peak
/// resident set.
void warm_up(const Run& run, double seconds) {
  oms::hd::Encoder enc(run.cfg.encoder);
  const std::vector<Spectrum> few(
      run.wl.queries.begin(),
      run.wl.queries.begin() +
          static_cast<std::ptrdiff_t>(std::min<std::size_t>(
              16, run.wl.queries.size())));
  const auto binned = oms::ms::preprocess_all(few, run.cfg.preprocess);
  std::vector<std::vector<std::uint32_t>> bins;
  std::vector<std::vector<float>> weights;
  for (const auto& b : binned) {
    bins.push_back(b.bins);
    weights.push_back(b.weights);
  }
  const auto t0 = Clock::now();
  while (seconds_between(t0, Clock::now()) < seconds) {
    (void)enc.encode_batch(bins, weights);
  }
}

Options parse(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) throw std::invalid_argument("bad argument " + a);
    a = a.substr(2);
    const auto eq = a.find('=');
    if (eq != std::string::npos) {
      kv[a.substr(0, eq)] = a.substr(eq + 1);
    } else if (i + 1 < argc) {
      kv[a] = argv[++i];
    } else {
      throw std::invalid_argument("missing value for --" + a);
    }
  }
  const auto get = [&](const char* k, const std::string& def) {
    const auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  };
  o.workload = get("workload", "");
  o.seed = std::stoull(get("seed", "1"));
  o.seconds = std::stod(get("seconds", "10"));
  o.trace = get("trace", "0") == "1";
  o.tiny = get("size", "full") == "tiny";
  o.work_dir = get("work-dir", "perfbench-work");
  o.trace_out = get("trace-out", "");
  o.source_id = get("source-id", "unknown");
  o.rate = std::stod(get("rate", "0"));
  if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  if (o.rate < 0.0) throw std::invalid_argument("--rate must be >= 0");
  return o;
}

std::span<const MetricSpec> reported_specs(const Run& run) {
  return run.opt.trace ? std::span<const MetricSpec>(kPerLayer)
                       : std::span<const MetricSpec>(kEndToEnd);
}

/// A run reports every declared metric, each set by its workload (0 only
/// where the workload says so) and finite; anything else is a benchmark bug
/// and fails the run.
void check_report_complete(const Run& run) {
  const auto& metrics = run.opt.trace ? run.layer : run.e2e;
  for (const MetricSpec& spec : reported_specs(run)) {
    const auto it = metrics.find(spec.name);
    if (it == metrics.end()) {
      throw std::logic_error(std::string("metric ") + spec.name +
                             " was never set");
    }
    if (!std::isfinite(it->second)) {
      throw std::logic_error(std::string("metric ") + spec.name +
                             " is not finite");
    }
  }
}

void print_report(const Run& run) {
  const bool correct = run.failed == 0;
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << run.attempted.load()
      << ", \"failed\": " << run.failed << ", \"metrics\": {";
  const auto& metrics = run.opt.trace ? run.layer : run.e2e;
  bool first = true;
  for (const MetricSpec& spec : reported_specs(run)) {
    out << (first ? "" : ", ") << "\"" << spec.name << "\": {\"value\": "
        << metrics.at(spec.name) << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  try {
    run.opt = parse(argc, argv);
    run.z = sizes_for(run.opt.workload, run.opt.tiny);
    if (run.opt.rate > 0.0) run.z.rate_per_s = run.opt.rate;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  fs::create_directories(run.opt.work_dir);
  run.cfg = oms::bench::paper_pipeline_config(8192);

  oms::ms::WorkloadConfig wcfg = oms::ms::WorkloadConfig::iprg2012_like(1.0);
  wcfg.reference_count = run.z.refs + run.z.grow_batches * run.z.grow_batch *
                                          (run.opt.workload == "grow" ? 1 : 0);
  wcfg.query_count = run.z.queries;
  wcfg.seed = run.opt.seed;
  run.wl = oms::ms::generate_workload(wcfg);
  if (run.opt.trace) run.spans = std::make_unique<SpanLog>(run.origin);

  std::printf(
      "{\"provenance\": {\"source\": \"%s\", \"cpu\": \"%s\", \"cores\": %u, "
      "\"kernel_tier\": \"%s\", \"build_type\": \"%s\", \"pool_threads\": "
      "%zu, \"client_threads\": %d, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %.3f, \"trace\": %d, \"size\": \"%s\", \"references\": "
      "%zu, \"queries\": %zu, \"dim\": %u, \"inputs\": \"%016llx\"}}\n",
      json_escape(run.opt.source_id).c_str(), json_escape(cpu_model()).c_str(),
      std::thread::hardware_concurrency(),
      std::string(oms::hd::kernels::tier_name(
                      oms::hd::kernels::active_tier()))
          .c_str(),
      PERFBENCH_BUILD_TYPE, oms::util::ThreadPool::global().thread_count(),
      run.opt.workload == "open-batch" || run.opt.workload == "rram-open" ? 1
                                                                          : 4,
      run.opt.workload.c_str(), static_cast<unsigned long long>(run.opt.seed),
      run.opt.seconds, run.opt.trace ? 1 : 0, run.opt.tiny ? "tiny" : "full",
      run.wl.references.size(), run.wl.queries.size(), run.cfg.encoder.dim,
      static_cast<unsigned long long>(inputs_digest(run.wl)));
  std::fflush(stdout);

  try {
    warm_up(run, std::min(2.0, run.opt.seconds));
    if (run.opt.workload == "open-batch") {
      run_batch(run, false);
    } else if (run.opt.workload == "rram-open") {
      run_batch(run, true);
    } else if (run.opt.workload == "serve-standard") {
      run_serve_standard(run);
    } else {
      run_grow(run);
    }
    if (run.opt.trace) {
      std::size_t bytes = 0;
      std::size_t llc = 0;
      const double bw = probe_read_gib_per_s(&bytes, &llc);
      std::printf("bandwidth probe: %zu-byte array, %zu-byte last-level "
                  "cache, %.3f GiB/s read\n",
                  bytes, llc, bw);
      run.put_layer("host.read_gib_per_s", bw, "GiB/s");
      run.put_layer("hd.sweep_roofline_frac",
                    ratio(run.layer["hd.sweep_gib_per_s"], bw), "frac");
      if (!run.opt.trace_out.empty()) {
        write_trace(run.opt.trace_out, run.spans->records());
      }
    }
    check_report_complete(run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    fs::remove_all(run.opt.work_dir);
    return 1;
  }
  fs::remove_all(run.opt.work_dir);
  std::printf("checks: %llu run, %llu failed\n",
              static_cast<unsigned long long>(run.checks),
              static_cast<unsigned long long>(run.failed));
  print_report(run);
  return 0;
}
