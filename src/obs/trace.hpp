// obs::Tracer — per-query span records through the QueryEngine.
//
// Every admitted query is assigned an admission sequence number as it is
// admitted (the same ordering the determinism contract keys on), and that
// key follows the query through
//
//   admit → preprocess → encode → queue-wait → search-block → rescore
//         → emit-decision
//
// A span is a fixed array of per-stage durations plus a terminal outcome:
// emitted a PSM, resolved with an empty precursor window, or dropped at
// preprocessing. Completed spans land in a bounded ring buffer (oldest
// evicted first) for post-hoc inspection by tests and tools.
//
// Overhead contract (documented in `search_server --help` and measured by
// perfbench's `obs.trace_overhead_frac` metric):
//   * sampling off (sample_every == 0): every instrumentation site is a
//     single `enabled()` branch — no clock reads, no locks;
//   * sampling on: a query is traced iff `key % sample_every == 0`, and a
//     traced stage costs ~two steady_clock reads plus one mutex-guarded
//     write into the open-span table (untraced queries keep the single
//     branch).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace oms::obs {

/// Stages of one query's journey through the engine, in pipeline order.
enum class Stage : std::uint8_t {
  kAdmit = 0,      ///< Admitted, waiting for its block to fill.
  kPreprocess,     ///< Peak filtering / normalization.
  kEncode,         ///< HD encoding.
  kQueueWait,      ///< Block waiting for a runner or its next stage.
  kSearch,         ///< Backend block search.
  kRescore,        ///< Candidate rescoring + interpolation.
  kEmit,           ///< Emission decision (FDR bound / drain flush).
  kStageCount_,    ///< Sentinel: number of stages.
};

inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(Stage::kStageCount_);

/// Stable lower-case stage name ("admit", "preprocess", ...).
[[nodiscard]] std::string_view stage_name(Stage s) noexcept;

/// How a span ended. Every admitted query reaches exactly one of these.
enum class SpanOutcome : std::uint8_t {
  kOpen = 0,            ///< Still in flight (only inside the engine).
  kEmitted,             ///< Resolved with at least one candidate PSM.
  kEmptyWindow,         ///< Searched, but the precursor window was empty.
  kDroppedPreprocess,   ///< Rejected before encoding (too few peaks, ...).
};

/// One query's record: per-stage wall seconds + terminal outcome.
struct Span {
  std::uint64_t key = 0;  ///< Admission sequence number.
  double stage_seconds[kStageCount] = {};
  SpanOutcome outcome = SpanOutcome::kOpen;

  [[nodiscard]] double total_seconds() const noexcept {
    double t = 0.0;
    for (const double s : stage_seconds) t += s;
    return t;
  }
};

struct TracerConfig {
  /// Completed-span ring capacity; oldest spans are evicted first.
  std::size_t capacity = 1024;
  /// Trace queries whose admission key is a multiple of this; 0 disables
  /// tracing entirely (single-branch hot path).
  std::uint64_t sample_every = 0;
};

/// Collects spans. All methods are thread-safe; only sampled keys ever
/// touch the internal mutex.
class Tracer {
 public:
  explicit Tracer(TracerConfig cfg = {}) : cfg_(cfg) {}

  /// False ⇒ every instrumentation site reduces to this one branch.
  [[nodiscard]] bool enabled() const noexcept {
    return cfg_.sample_every != 0;
  }
  /// Whether this admission key is traced.
  [[nodiscard]] bool sampled(std::uint64_t key) const noexcept {
    return enabled() && key % cfg_.sample_every == 0;
  }

  /// Add `seconds` to `stage` of the (open) span for `key`. Opens the
  /// span on first touch. No-op for unsampled keys.
  void record(std::uint64_t key, Stage stage, double seconds);

  /// Close the span for `key` with `outcome`, moving it to the completed
  /// ring. No-op for unsampled keys and keys without an open span — a key
  /// completed twice keeps the first outcome and is counted once.
  void complete(std::uint64_t key, SpanOutcome outcome);

  /// Snapshot of the completed ring, oldest first.
  [[nodiscard]] std::vector<Span> completed() const;
  /// Number of spans still open (admitted, not yet completed).
  [[nodiscard]] std::size_t open_spans() const;
  /// Total spans completed since construction (ring evictions included).
  [[nodiscard]] std::uint64_t completed_total() const;

  [[nodiscard]] const TracerConfig& config() const noexcept { return cfg_; }

 private:
  TracerConfig cfg_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Span> open_;
  std::deque<Span> ring_;
  std::uint64_t completed_total_ = 0;
};

}  // namespace oms::obs
