// Staged streaming query executor — the engine behind Pipeline::run and
// the entry point for serving queries as they arrive instead of as one
// synchronous batch.
//
// Queries are admitted one at a time (submit) or in chunks (submit_batch)
// and flow through bounded-queue stages:
//
//   admission → preprocess → encode → search → rescore → PSM emission
//
// The preprocess stage (single-threaded, so query indices are assigned in
// admission order) packs surviving spectra into size-`block_size` blocks;
// encode workers turn a block into hypervectors (exact digital or IMC-model
// encoding, matching the pipeline's backend trait) and expand the
// precursor-mass interpretations; search workers hand each block to
// SearchBackend::search_batch — the size-B query blocks the genuinely
// batched backends amortize activation phases and shard entries over;
// rescore workers reduce interpretations and build PSMs; the emission stage
// collects them. drain() flushes everything, applies the FDR filter, and
// returns the PipelineResult.
//
// One stage runner (private to query_engine.cpp) carries the protocol the
// stages share, so each stage body holds only its own work. It pops the
// stage's queue until that queue is closed and empty, and drops items once
// the stream has failed. An exception from any stage fails the stream: the
// first one is kept for drain() to rethrow, failed() turns true, and every
// queue closes, so no producer or worker stays blocked. For the encode,
// search and rescore stages the runner also observes each block's queue
// wait, re-stamps the block and pushes the stage's output to the next
// queue with its depth gauge. The last worker of a stage closes the next
// queue, so the stages wind down in pipeline order. submit, try_submit and
// submit_for share one admission path and differ only in how they push.
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
// or assigned index, never on arrival time, block composition, or thread
// schedule. Streaming results are therefore bit-identical to a synchronous
// Pipeline::run over the same queries in the same admission order, for any
// block size and worker count. (Backends that report thread_safe() == false
// — the circuit simulation — are served by single-threaded stages so their
// engine-state call sequence matches the synchronous path.)
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
  /// search_batch amortizes over. 0 → 1.
  std::size_t block_size = 64;
  /// Capacity of each inter-stage queue, in blocks. Bounds memory and
  /// applies back-pressure to admission when a stage falls behind.
  std::size_t queue_blocks = 8;
  /// Worker threads for each of the encode / search / rescore stages.
  /// Forced to 1 when the backend is not thread-safe. 0 → 1.
  std::size_t stage_threads = 1;
  /// PSM release policy. Rolling streams confident hits mid-run.
  EmitPolicy emit_policy = EmitPolicy::AtDrain;
  /// Rolling callback. Early releases fire from an engine-internal thread
  /// while submit() may still be running on the caller's thread — the
  /// callback must tolerate that concurrency. The drain-time flush fires
  /// on the drain() caller's thread, in admission order.
  std::function<void(const Psm&)> on_accept;
  /// Serving hook: called from engine-internal stage threads each time
  /// queries finish flowing through the pipeline (with the count newly
  /// resolved) — a query resolves when it is quality-filtered, finds no
  /// candidate window, or has its PSM rescored. Admission-control layers
  /// (serve::Session) use it to release in-flight quota. Must be
  /// thread-safe; never called again after drain() returns.
  std::function<void(std::size_t)> on_query_resolved;
  /// Serving hook: when set, every backend search_batch call is wrapped in
  /// this gate — the engine's search workers call gate(run_block) and the
  /// gate decides when run_block() executes (serve::FairScheduler uses it
  /// for round-robin block scheduling across tenant sessions). The gate
  /// must invoke the thunk exactly once (on any thread, but synchronously
  /// — the engine's worker waits) and propagate its exceptions. Purely a
  /// scheduling knob: per-query keyed noise makes results independent of
  /// block execution order.
  std::function<void(const std::function<void()>&)> search_gate;
  /// Observability sink (see obs/metrics.hpp). When set, the engine
  /// records `engine.*` counters (submitted / dropped_preprocess /
  /// empty_window / psms_emitted / blocks), per-stage latency histograms
  /// (`engine.stage.*_seconds`, block-granular for the block stages),
  /// bounded-queue depth gauges (`engine.queue.*_depth`), per-PSM
  /// emission-latency (`engine.emit_latency_seconds`, admission → release),
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
  /// rescore → emit; gate waits fold into queue-wait. Every admitted
  /// query completes exactly one span (Emitted, EmptyWindow, or
  /// DroppedPreprocess) under either emit policy. nullptr or disabled ⇒
  /// a single branch per stage. Must outlive the engine.
  obs::Tracer* tracer = nullptr;
};

/// Accounting for one streaming run; valid after drain(). The drop
/// accounting is exact on the non-failed path:
///   submitted == emitted + dropped_preprocess + empty_window
/// (asserted in drain) — no query vanishes from the per-run view.
struct QueryEngineStats {
  std::size_t submitted = 0;      ///< Spectra handed to submit*().
  std::size_t searched = 0;       ///< Survived preprocessing.
  std::size_t blocks = 0;         ///< Query blocks formed.
  std::size_t block_size = 0;     ///< Effective B.
  std::size_t stage_threads = 0;  ///< Effective workers per stage.
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
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Admits one query spectrum. Blocks while the admission queue is full
  /// (back-pressure). Throws std::logic_error after drain().
  void submit(const ms::Spectrum& query);

  /// Move overload for streaming producers that hand over ownership
  /// (avoids copying the peak arrays into the admission queue).
  void submit(ms::Spectrum&& query);

  /// Admits a chunk of query spectra in order.
  void submit_batch(std::span<const ms::Spectrum> queries);

  /// Non-blocking admission: returns false (leaving the engine untouched)
  /// when the admission queue is full — the reject arm of admission
  /// control. Also returns false after a stage failure (drain() reports
  /// the exception). Throws std::logic_error after close_stream()/drain().
  [[nodiscard]] bool try_submit(ms::Spectrum&& query);

  /// Bounded-wait admission: blocks up to `timeout` for admission-queue
  /// room, then gives up. Same contract as try_submit otherwise.
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

  /// True once a stage failure has poisoned the stream (drain() rethrows
  /// the stored exception). Submissions are silently dropped from this
  /// point; admission-control layers use this to unblock quota waiters.
  [[nodiscard]] bool failed() const noexcept;

  /// Queries admitted but not yet resolved (scored, quality-filtered, or
  /// empty-windowed) — the in-flight occupancy admission control bounds.
  /// Counter drift after a stage failure is possible (dropped blocks
  /// never resolve); check failed() first.
  [[nodiscard]] std::size_t outstanding() const noexcept;

  /// Ends the stream: flushes every stage, applies the FDR filter, and
  /// returns exactly what a synchronous Pipeline::run over the submitted
  /// queries would have. The engine accepts no further submissions.
  /// Rethrows the first stage failure, if any.
  [[nodiscard]] PipelineResult drain();

  /// Streaming accounting; call after drain().
  [[nodiscard]] QueryEngineStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace oms::core
