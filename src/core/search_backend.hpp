// Pluggable search-backend seam: every way this codebase can score a query
// hypervector against a reference library — exact digital HD or the
// statistical MLC-RRAM model — sits behind one abstract interface, selected
// by registry name at runtime.
//
// Map of this header:
//   * Query           — one batched search request (hypervector + candidate
//                       window + noise stream key).
//   * BackendStats    — substrate-independent accounting (refs held, shard
//                       count, activation phases executed, shard entries,
//                       blocks served). The counters are exact (atomically
//                       maintained, scheduling-independent), so a stats
//                       snapshot can be fed straight into
//                       accel::PerfModel::from_measured to turn a real run
//                       into latency/energy numbers (accel/perf_model.hpp).
//                       Snapshots compose: operator+= / merge() accumulate
//                       the counters, since() takes exact windowed deltas.
//                       Observability seam: core::QueryEngine scrapes the
//                       latest snapshot into `backend.*` gauges of an
//                       obs::MetricsRegistry after every searched block
//                       (obs/metrics.hpp), which is how a live server's
//                       STATS verb sees phases/shard-entries/query blocks
//                       without any backend code knowing about metrics.
//   * SearchBackend   — the interface: `top_k` for one query, `search_batch`
//                       for many (default fans out over the global thread
//                       pool; backends may override with a genuinely batched
//                       implementation). Blocks of one batch run
//                       concurrently over the global pool, and the
//                       built-ins cut a block whose windows cover enough
//                       reference rows into slices that run as pool tasks
//                       too (hd::sweep_sliced), so a lone or last block
//                       still keeps every core busy.
//   * BackendRegistry — string-keyed factory. Built-in names:
//                         "ideal-hd"         exact Hamming search
//                                            (hd::top_k_search semantics);
//                         "rram-statistical" calibrated MLC-RRAM noise model
//                                            (accel::ImcSearchEngine). The
//                                            library is cut into chip-
//                                            capacity slices
//                                            (accel::references_per_chip)
//                                            that only count shards and
//                                            shard entries for the
//                                            multi-chip perf model.
//                       The crossbar circuit simulation (src/rram/,
//                       accel::Fidelity::kCircuit) is the statistical
//                       model's reference — accel::calibrate_mvm_error
//                       fits its sigma and gain — not a backend.
//   * make_backend    — convenience wrapper over the registry.
//
// Reference libraries reach a backend as a span of util::BitVec — either
// encoded in-process by core::Pipeline::set_library(spectra), or mapped
// zero-copy from an index::SegmentedLibrary (index/segmented_library.hpp:
// a manifest of segments, or a monolithic index::LibraryIndex opened as
// one segment), whose word blocks back every backend with no re-encoding
// on cold start. The exact digital kernel underneath "ideal-hd" dispatches
// at runtime over scalar / AVX2 / AVX-512-VPOPCNTDQ popcount tiers
// (hd/kernels.hpp; all bit-identical), sweeping the references through the
// piecewise hd::RefView seam: at construction the span is coalesced into
// maximal contiguous extents (RefView::from_span — a mapped monolithic
// block is one extent, a segmented library one extent per run of
// same-segment rows), and every sweep — per-query and batched — runs per
// extent with global reference indices, scoring every candidate of the
// precursor window exactly. BackendStats::kernel / contiguous_refs /
// extent_count report which layout a run swept. In the serve layer,
// serve::Maintainer (serve/maintainer.hpp) watches segmented manifests and
// compacts them in the background, so fragmented views trend back to one
// extent without any request-path work.
//
// Multi-tenant serving seam (src/serve/): a backend may be *shared* across
// concurrent sessions — serve::LibraryCache holds one instance per
// (fingerprint, path, backend-config) and hands it to every compatible
// serve::Session via Pipeline::set_library(library, shared_backend), and
// the sessions' query blocks call search_batch concurrently from the global
// pool, which takes their blocks in turn. Every backend must therefore
// keep top_k / search_batch reentrant and its BackendStats counters
// atomic (the built-ins do, for the exact-counter contract above).
//
// Registering a new backend (e.g. from a plugin or a future GPU/FPGA port):
//
//   class MyBackend final : public core::SearchBackend { ... };
//   core::BackendRegistry::instance().register_backend(
//       "my-substrate",
//       [](std::span<const util::BitVec> refs,
//          const core::BackendOptions& opts) {
//         return std::make_unique<MyBackend>(refs, opts);
//       },
//       /*imc_encoding=*/true);  // if libraries must be encoded through
//                                // the IMC statistical error model
//
// After that, `make_backend("my-substrate", refs, opts)` works everywhere a
// built-in name does — core::Pipeline, the examples' --backend flag, benches.
// Implementations must honor the determinism contract: equal-score hits are
// ordered by lower reference index, and all simulation noise is keyed on
// (seed, stream, global reference index) so results do not depend on thread
// scheduling, call order or how many sessions share the instance.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hd/search.hpp"
#include "rram/array.hpp"
#include "util/bitvec.hpp"

namespace oms::core {

/// One batched search request: score `*hv` against references
/// [first, last) — the precursor-mass window — under noise stream `stream`
/// (conventionally the query spectrum id, so simulated hardware noise is
/// reproducible regardless of scheduling). The same struct is the block
/// vocabulary of the batched kernels underneath (hd::top_k_search_batch,
/// accel::ImcSearchEngine::search_many).
using Query = hd::BatchQuery;

/// Substrate-independent accounting a backend can report.
struct BackendStats {
  std::string backend;                ///< Registry name.
  std::size_t references = 0;         ///< Reference hypervectors held.
  std::size_t shards = 1;             ///< Chip slices (1 = one chip).
  std::uint64_t phases_executed = 0;  ///< Hardware activation phases so far.
  double phase_sigma = 0.0;           ///< Per-phase noise sigma (0 = exact).
  double gain = 1.0;                  ///< Multiplicative score gain (IR droop).
  std::uint64_t shard_entries = 0;    ///< Chip entries: one per (block,
                                      ///< slice its windows meet); a
                                      ///< one-query top_k is a block.
  std::uint64_t query_blocks = 0;     ///< Blocks served by batched overrides.
  std::uint64_t batched_queries = 0;  ///< Queries inside those blocks.
  /// Popcount kernel tier the digital sweeps run on ("scalar" | "avx2" |
  /// "avx512"; hd/kernels.hpp dispatch). Empty for substrates that never
  /// touch the digital kernel.
  std::string kernel;
  /// True when the reference hypervectors form ONE contiguous word block
  /// (a one-extent hd::RefView — the mmap'd monolithic index layout). A
  /// multi-segment library reports false here but still sweeps block-wise;
  /// extent_count below says how fragmented its view is.
  bool contiguous_refs = false;
  /// Contiguous extents of the piecewise reference view the digital
  /// sweeps run over (hd::RefView): 1 = monolithic (contiguous_refs),
  /// >1 = segmented/fragmented but still block-swept, 0 = no references
  /// (or a substrate that never builds a view).
  std::size_t extent_count = 0;

  /// Mean queries amortized per batched block (0 before any batched call).
  [[nodiscard]] double queries_per_block() const noexcept {
    return query_blocks == 0 ? 0.0
                             : static_cast<double>(batched_queries) /
                                   static_cast<double>(query_blocks);
  }

  /// Accumulates `other`'s exact counters into this (phases, shard
  /// entries, blocks, batched queries). Identity fields — backend name,
  /// references, shards, sigma, gain, kernel, contiguous_refs,
  /// extent_count — are adopted from `other` when this snapshot is
  /// still default-constructed, and kept otherwise. Because the counters
  /// are exact and scheduling-independent, stage-serial per-window deltas
  /// (see since()) compose back to the synchronous run's totals — the
  /// contract obs-fed bench accounting and the streaming-vs-synchronous
  /// regression test rely on.
  BackendStats& operator+=(const BackendStats& other);

  /// Named form of operator+=, for call sites that read better with a
  /// verb (aggregating per-shard or per-round snapshots).
  BackendStats& merge(const BackendStats& other) { return *this += other; }

  /// Counter-wise delta (this − before, clamped at zero): the exact work
  /// a window of execution performed, given a snapshot taken at its start
  /// on the same backend instance. Identity fields keep this snapshot's
  /// values.
  [[nodiscard]] BackendStats since(const BackendStats& before) const;
};

/// Options consumed by the built-in backend factories. Unknown/irrelevant
/// fields are ignored by backends that do not need them, so one options
/// struct can configure any registered name. A field that changes results
/// must also be hashed by serve::backend_config_hash, or sessions differing
/// only in it would share one cached backend.
struct BackendOptions {
  rram::ArrayConfig array{};           ///< Device model ("rram-statistical").
  std::size_t activated_pairs = 64;    ///< Differential pairs per phase.
  std::size_t calibration_samples = 4096;
  std::uint64_t seed = 2024;
  /// Arrays per chip. With `array` it sizes the chip slices
  /// "rram-statistical" counts (accel::references_per_chip).
  std::size_t chip_arrays = 48;
  std::size_t max_refs_per_shard = 0;  ///< 0 → derive from chip capacity.
  /// Queries per block inside the batched search_batch overrides: each
  /// block is one reference-major sweep, entering every chip slice its
  /// windows meet once, and blocks are processed in parallel over the
  /// global thread pool (a wide block's sweep is itself cut into pool
  /// slices; hd::sweep_sliced).
  std::size_t query_block = 64;
};

/// Abstract search backend over an externally owned reference set (the
/// references must outlive the backend).
class SearchBackend {
 public:
  virtual ~SearchBackend() = default;

  /// Registry name this backend was created under.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Up to `k` best hits for one query against references [first, last),
  /// sorted by decreasing score, equal scores by lower reference index.
  /// `stream` keys any simulated noise (ignored by exact backends).
  [[nodiscard]] virtual std::vector<hd::SearchHit> top_k(
      const util::BitVec& query, std::size_t first, std::size_t last,
      std::size_t k, std::uint64_t stream) = 0;

  /// Searches a whole batch; result i corresponds to queries[i]. The
  /// default fans top_k out over util::ThreadPool::global(), so top_k must
  /// be reentrant. The built-in backends override it with genuinely
  /// batched implementations — every one sweeps size-
  /// `BackendOptions::query_block` blocks reference-major (shared
  /// activation-phase scheduling) — and any override must return results
  /// identical to sequential top_k calls.
  [[nodiscard]] virtual std::vector<std::vector<hd::SearchHit>> search_batch(
      std::span<const Query> queries, std::size_t k);

  /// Accounting snapshot (phases executed, shard count, ...).
  [[nodiscard]] virtual BackendStats stats() const = 0;
};

/// String-keyed factory for search backends. Thread-safe. Built-in names
/// are registered on first use of instance(); see the header comment for
/// how to add your own.
class BackendRegistry {
 public:
  using Factory = std::function<std::unique_ptr<SearchBackend>(
      std::span<const util::BitVec>, const BackendOptions&)>;

  /// The process-wide registry, with built-ins pre-registered.
  [[nodiscard]] static BackendRegistry& instance();

  /// Registers (or replaces) a factory under `name`. `imc_encoding` marks
  /// substrates whose reference/query libraries must be encoded through
  /// the IMC statistical error model (core::Pipeline consults this trait
  /// instead of hard-coding backend names).
  void register_backend(const std::string& name, Factory factory,
                        bool imc_encoding = false);

  /// True if `name` is registered.
  [[nodiscard]] bool contains(const std::string& name) const;

  /// Throws std::invalid_argument (listing registered names) if `name` is
  /// not registered.
  void require(const std::string& name) const;

  /// True when the backend registered under `name` requires IMC-model
  /// encoding; false for unknown names.
  [[nodiscard]] bool imc_encoding(const std::string& name) const;

  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Builds the backend registered under `name` over `references` (not
  /// owned; must outlive the backend). Throws std::invalid_argument for an
  /// unknown name, listing every registered name in the message.
  [[nodiscard]] std::unique_ptr<SearchBackend> make(
      const std::string& name, std::span<const util::BitVec> references,
      const BackendOptions& opts) const;

 private:
  struct Entry {
    Factory factory;
    bool imc_encoding = false;
  };

  BackendRegistry();
  [[noreturn]] void throw_unknown(const std::string& name) const;

  mutable std::mutex mutex_;
  std::map<std::string, Entry> factories_;
};

/// Convenience wrapper: BackendRegistry::instance().make(...).
[[nodiscard]] std::unique_ptr<SearchBackend> make_backend(
    const std::string& name, std::span<const util::BitVec> references,
    const BackendOptions& opts = {});

}  // namespace oms::core
