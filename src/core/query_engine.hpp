// Streaming query executor — the engine behind Pipeline::run and the
// entry point for serving queries as they arrive instead of as one
// synchronous batch.
//
// Queries are admitted one at a time (submit) or in chunks (submit_batch)
// into size-`block_size` blocks; each admission gets the next admission
// key, so keys follow admission order. A block runs start to finish as one
// unit of work on util::ThreadPool::global():
//
//   preprocess + encode → search → rescore → PSM emission
//
// Its queries are preprocessed and encoded one pool task each (exact
// digital or IMC-model encoding, matching the pipeline's backend trait;
// every encode, injected bit errors included, is keyed on its spectrum id,
// so the bits do not depend on the thread), their precursor-mass
// interpretations go to SearchBackend::search_batch as one block — the
// size-B query blocks the batched backends amortize activation phases and
// shard entries over — and the rescored PSMs are emitted under one lock.
// drain() flushes everything, applies the FDR filter, and returns the
// PipelineResult.
//
// The engine starts no thread. At most `stage_threads` blocks of a stream
// run at once, and at most `max_in_flight` queries are admitted but not
// yet resolved: the stream's one admission bound. A block never holds
// more queries than that bound, so a stream at its bound always has a
// block in flight whose resolution frees room. A pool task runs one block
// and then queues the stream's next task at the back of the pool's FIFO,
// so concurrent streams' blocks take turns on the pool and the pool queue
// is the one cross-stream scheduler. A submit() that finds the stream at
// its bound runs a pending block itself before it waits, as drain() does,
// so no pool task ever waits for work that only another queued pool task
// could do and streams may run from inside pool tasks. An exception from
// any block fails the stream: the first one is kept for drain() to
// rethrow, failed() turns true, submissions return without admitting, and
// blocks not yet run are dropped.
//
// Emission is policy-driven: AtDrain (default) holds all PSMs for the
// batch filter at drain(); Rolling additionally threads every PSM through
// core::StreamingFdr so hits whose q-value provably cannot rise above the
// FDR threshold are handed to QueryEngineConfig::on_accept while queries
// are still arriving. Either way drain() returns the same bit-identical
// result — rolling release order may vary with scheduling, membership
// never does. A stream has an explicit lifecycle for serving callers
// (serve::Session): submit/submit_batch/try_submit admit queries,
// close_stream() declares "no more arrivals" — which bounds the future
// arrivals by the queries already submitted and releases every PSM the
// final filter will accept as the in-flight tail resolves — and drain()
// collects the result.
//
// Determinism contract: every per-query artifact — encoding noise, injected
// bit errors, search noise, rescoring — is keyed on the query's spectrum id
// or admission key, never on arrival time, block composition, or thread
// schedule. Streaming results are therefore bit-identical to a synchronous
// Pipeline::run over the same queries in the same admission order, for any
// block size and block concurrency.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>

#include "core/pipeline.hpp"

namespace oms::obs {
class MetricsRegistry;
class Tracer;
}  // namespace oms::obs

namespace oms::core {

/// When the emission stage releases accepted PSMs.
enum class EmitPolicy {
  /// Hold every PSM until drain(); the FDR filter runs once at stream end
  /// (the paper's offline protocol). Pipeline::run uses this.
  AtDrain,
  /// Feed PSMs through core::StreamingFdr as they are rescored and fire
  /// on_accept mid-run for every PSM whose q-value provably cannot rise
  /// above the pipeline's fdr_threshold no matter what still arrives (the
  /// confident-emission bound; see core/streaming_fdr.hpp). drain() still
  /// returns the bit-identical final list and flushes the remaining
  /// accepted PSMs through on_accept, so the callback sees exactly
  /// drain().accepted, each PSM once.
  Rolling,
};

struct QueryEngineConfig {
  /// Queries per search block (B): the unit the backend's batched
  /// search_batch amortizes over. 0 → 1; capped at max_in_flight.
  std::size_t block_size = 64;
  /// Queries admitted but not yet resolved (their block has not finished),
  /// at most. Bounds the stream's memory; admission waits or refuses at
  /// the bound. 0 → 1.
  std::size_t max_in_flight = 1024;
  /// Blocks of this stream that run at once, at most. 0 → 1.
  std::size_t stage_threads = 1;
  /// PSM release policy. Rolling streams confident hits mid-run.
  EmitPolicy emit_policy = EmitPolicy::AtDrain;
  /// Rolling callback. Early releases fire on whichever thread runs a
  /// block — a pool worker, or a caller inside submit(), close_stream() or
  /// drain() — never two at once, but concurrently with other submit()
  /// calls. The drain-time flush fires on the drain() caller's thread, in
  /// admission order.
  std::function<void(const Psm&)> on_accept;
  /// Observability sink (see obs/metrics.hpp). When set, the engine
  /// records `engine.*` counters (submitted / dropped_preprocess /
  /// empty_window / psms_emitted / blocks), per-stage latency histograms
  /// (`engine.stage.*_seconds`, block-granular for the block stages; the
  /// encode stage covers a block's preprocess-and-encode fan-out, and
  /// queue_wait one wait in front of each of the three block stages; the
  /// first, from posting to a runner, includes the turns other streams'
  /// blocks take on the shared pool), per-PSM emission latency
  /// (`engine.emit_latency_seconds`, admission → release),
  /// and scrapes the backend's BackendStats into `backend.*` gauges after
  /// each searched block (set, not accumulated — the backend's counters
  /// are already monotonic totals, and concurrent blocks would make
  /// deltas overlap). nullptr ⇒ zero instrumentation cost. The registry
  /// must outlive the engine.
  obs::MetricsRegistry* metrics = nullptr;
  /// Per-query span tracer (see obs/trace.hpp). When set and enabled
  /// (sample_every > 0), sampled queries — keyed on the admission index
  /// the determinism contract already assigns — get per-stage wall-time
  /// spans through admit → preprocess → encode → queue-wait → search →
  /// rescore → emit. Every admitted query completes exactly one span
  /// (Emitted, EmptyWindow, or DroppedPreprocess) under either emit
  /// policy. nullptr or disabled ⇒ a single branch per stage. Must
  /// outlive the engine.
  obs::Tracer* tracer = nullptr;
};

/// Accounting for one streaming run; valid after drain(). The drop
/// accounting is exact on the non-failed path:
///   submitted == emitted + dropped_preprocess + empty_window
/// (checked by drain, which throws std::logic_error naming the counts if
/// it fails) — no query vanishes from the per-run view.
struct QueryEngineStats {
  std::size_t submitted = 0;      ///< Spectra handed to submit*().
  std::size_t searched = 0;       ///< Survived preprocessing.
  std::size_t blocks = 0;         ///< Query blocks that reached search.
  std::size_t block_size = 0;     ///< Effective B (capped at max_in_flight).
  std::size_t stage_threads = 0;  ///< Effective concurrent blocks.
  std::size_t early_emitted = 0;  ///< PSMs released before drain (Rolling).
  std::size_t emitted = 0;        ///< Queries that produced a PSM (pre-FDR).
  std::size_t dropped_preprocess = 0;  ///< Quality-filtered before encoding.
  std::size_t empty_window = 0;   ///< Searched; no candidate in any window.
};

class QueryEngine {
 public:
  /// Binds to a pipeline whose library is already built (set_library must
  /// have run; throws std::logic_error otherwise). The pipeline must
  /// outlive the engine, and set_library must not be called while the
  /// engine is live.
  explicit QueryEngine(Pipeline& pipeline, const QueryEngineConfig& cfg = {});
  /// Without a drain(), runs or waits out every admitted query first.
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Admits one query spectrum. While max_in_flight queries are unresolved
  /// it runs pending blocks itself or waits (back-pressure). Returns
  /// without admitting once the stream has failed. Throws
  /// std::logic_error after close_stream()/drain().
  void submit(const ms::Spectrum& query);

  /// Move overload for streaming producers that hand over ownership
  /// (avoids copying the peak arrays into the open block).
  void submit(ms::Spectrum&& query);

  /// Admits a chunk of query spectra in order.
  void submit_batch(std::span<const ms::Spectrum> queries);

  /// Non-blocking admission: returns false when max_in_flight queries are
  /// unresolved — the reject arm of admission control — or after a block
  /// failure (drain() reports the exception). A refused `query` is not
  /// moved from, so the caller may hand it to submit() or submit_for().
  /// Throws std::logic_error after close_stream()/drain().
  [[nodiscard]] bool try_submit(ms::Spectrum&& query);

  /// Bounded-wait admission: waits up to `timeout` for room, then gives
  /// up. Same contract as try_submit otherwise.
  [[nodiscard]] bool submit_for(ms::Spectrum&& query,
                                std::chrono::milliseconds timeout);

  /// Declares the end of arrivals without collecting the result: no
  /// further submissions are accepted (submit throws std::logic_error),
  /// and the confident-emission bound becomes "exactly the queries already
  /// submitted" — so as the tail of the stream resolves, every PSM the
  /// final filter will accept is released through on_accept (under
  /// EmitPolicy::Rolling). Until then no future-arrival bound exists and
  /// nothing releases early. Idempotent; drain() may follow to block for
  /// completion and collect the PipelineResult.
  void close_stream();

  /// True once a block failure has poisoned the stream (drain() rethrows
  /// the stored exception). Submissions are dropped from this point, and
  /// producers waiting at the bound return.
  [[nodiscard]] bool failed() const noexcept;

  /// Queries admitted but not yet resolved (scored, quality-filtered, or
  /// empty-windowed; dropped once the stream has failed) — the occupancy
  /// max_in_flight bounds. A block's queries resolve when it finishes.
  [[nodiscard]] std::size_t outstanding() const noexcept;

  /// Ends the stream: runs or waits out every block, applies the FDR
  /// filter, and
  /// returns exactly what a synchronous Pipeline::run over the submitted
  /// queries would have. The engine accepts no further submissions.
  /// Rethrows the first block failure, if any.
  [[nodiscard]] PipelineResult drain();

  /// Streaming accounting; call after drain().
  [[nodiscard]] QueryEngineStats stats() const;

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;  ///< Shared with the pool tasks it posts.
};

}  // namespace oms::core
