// serve::Session — one tenant query stream on a SearchServer.
//
// A session is the serving-layer face of one core::QueryEngine: opened by
// SearchServer::open(library, config) against a cached library lease, fed
// by submit()/submit_batch() as queries arrive, and ended by close(),
// which declares "no more arrivals", waits for the in-flight tail, and
// returns the same PipelineResult a solo synchronous Pipeline::run over
// the stream would have produced. With Rolling emission (the default
// here), close() bounds the stream by what was submitted and releases
// every accepted PSM through SessionConfig::on_accept as the in-flight
// tail resolves — no stream length is needed up front.
//
// Admission control: each session carries a bounded in-flight quota
// (`max_in_flight` queries admitted but not yet resolved). When the quota
// or the engine's admission queue is full, AdmitPolicy decides: Block
// applies back-pressure to the submitting thread; Reject returns false
// immediately (after an optional bounded wait) so a front-end can shed
// load per-tenant instead of letting one stream balloon server memory.
//
// Isolation contract (pinned by tests/serve_server_test.cpp): the PSM
// stream of a session is bit-identical to a solo run with the same config
// and query order, regardless of how many other sessions share the
// server, its backends, and its scheduler slots.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "core/pipeline.hpp"
#include "core/query_engine.hpp"
#include "index/segmented_library.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace oms::serve {

class SearchServer;

namespace detail {
struct ServerCore;
}  // namespace detail

/// What happens when the in-flight quota (or the engine's admission
/// queue) is full at submit time.
enum class AdmitPolicy {
  Block,   ///< Back-pressure: submit() waits for room.
  Reject,  ///< Shed load: submit() returns false without admitting.
};

struct SessionConfig {
  /// Full pipeline configuration for this stream: preprocess, encoder,
  /// backend name/options, FDR threshold, seed. Together with the library
  /// path it selects (or creates) the cache entry.
  core::PipelineConfig pipeline{};
  /// Engine tuning; 0 → serving defaults (block_size 64, stage workers
  /// scaled to the pool but modest — tenants share the machine, and the
  /// FairScheduler caps concurrent search blocks anyway).
  std::size_t block_size = 0;
  std::size_t stage_threads = 0;
  std::size_t queue_blocks = 0;
  /// Queries admitted but not yet resolved before admission control kicks
  /// in. Bounds per-tenant memory. Must be >= 1.
  std::size_t max_in_flight = 1024;
  AdmitPolicy admit = AdmitPolicy::Block;
  /// Reject policy only: how long submit() may wait for room before
  /// giving up (0 → fail immediately).
  std::chrono::milliseconds admit_timeout{0};
  /// Streaming PSM delivery (EmitPolicy::Rolling under the hood). Fires
  /// from engine-internal threads while submits may be running — must be
  /// thread-safe. Sees exactly close().accepted, each PSM once. Null →
  /// results only at close().
  std::function<void(const core::Psm&)> on_accept;
  /// Per-query stage tracing for this stream (obs/trace.hpp): trace every
  /// Nth admitted query through the engine's stages, spans readable via
  /// Session::tracer(). 0 (default) disables tracing — the engine's hot
  /// path then costs one branch per stage (the overhead contract the
  /// serve bench's qps gate holds the layer to).
  std::uint64_t trace_sample_every = 0;
  /// Completed-span ring capacity when tracing is on.
  std::size_t trace_capacity = 1024;
};

struct SessionStats {
  std::uint64_t submitted = 0;   ///< Queries admitted.
  std::uint64_t rejected = 0;    ///< Submissions refused (Reject policy).
  std::uint64_t streamed = 0;    ///< PSMs delivered through on_accept.
  bool library_cache_hit = false;  ///< Lease found the mapping resident.
  bool backend_shared = false;     ///< Lease carried a cached backend.
};

class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Server-unique session id (also the FairScheduler stream id).
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  /// Admits one query. Returns true when admitted; false when rejected
  /// (Reject policy with quota/queue full, or after a stage failure —
  /// close() reports the underlying exception). Blocks for room under
  /// AdmitPolicy::Block. Throws std::logic_error once closed.
  [[nodiscard]] bool submit(ms::Spectrum query);

  /// Admits a chunk in order; stops at the first rejection. Returns the
  /// number admitted (== queries.size() under Block, absent failures).
  [[nodiscard]] std::size_t submit_batch(std::span<const ms::Spectrum> queries);

  /// Ends the stream: no more arrivals, every eligible PSM is released
  /// through on_accept as the tail resolves, and the final result — bit
  /// identical to a solo Pipeline::run over the submitted queries — is
  /// returned. Rethrows the first stage failure, if any. One-shot; a
  /// second call throws std::logic_error.
  [[nodiscard]] core::PipelineResult close();

  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }
  /// True once a stage failure poisoned the stream (close() rethrows).
  [[nodiscard]] bool failed() const noexcept { return engine_->failed(); }
  /// Queries admitted but not yet resolved.
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return engine_->outstanding();
  }
  [[nodiscard]] SessionStats stats() const;
  /// This stream's span tracer; null unless trace_sample_every > 0.
  [[nodiscard]] const obs::Tracer* tracer() const noexcept {
    return tracer_.get();
  }
  [[nodiscard]] const core::PipelineConfig& config() const noexcept {
    return pipeline_->config();
  }
  [[nodiscard]] const std::string& library_path() const noexcept {
    return library_path_;
  }
  /// Generation identity of the leased library: the manifest's
  /// combined_hash for a segmented library, 0 for a monolithic index.
  /// A session keeps its generation for its whole stream (the leased
  /// mapping stays alive even if the Maintainer compacts underneath);
  /// the tenant's next stream leases the current generation.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return library_->generation();
  }

 private:
  friend class SearchServer;

  Session(std::shared_ptr<detail::ServerCore> core, std::string library_path,
          SessionConfig cfg);

  /// Quota acquisition per policy; false → reject (or stream failed).
  [[nodiscard]] bool acquire_quota();
  void release_quota(std::size_t n);
  /// Tears down server-side registration exactly once (close and dtor).
  void detach() noexcept;

  std::shared_ptr<detail::ServerCore> core_;
  std::string library_path_;
  SessionConfig cfg_;
  std::uint64_t id_ = 0;

  std::unique_ptr<core::Pipeline> pipeline_;
  std::unique_ptr<obs::Tracer> tracer_;  ///< Before engine_: outlives it.
  std::unique_ptr<core::QueryEngine> engine_;
  /// Keep-alive: the leased library must outlive engine + pipeline even
  /// if the cache evicts it mid-session.
  std::shared_ptr<const index::SegmentedLibrary> library_;

  std::mutex quota_mutex_;
  std::condition_variable quota_cv_;
  std::size_t quota_used_ = 0;

  std::atomic<bool> closed_{false};
  bool detached_ = false;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> streamed_{0};
  bool cache_hit_ = false;
  bool backend_shared_ = false;

  /// Per-session registry counters (serve.session.<id>.queries/.psms),
  /// resolved right after the scheduler assigns id_ — the first submit
  /// (and hence the first on_accept) cannot precede constructor return.
  obs::Counter* session_queries_ = nullptr;
  obs::Counter* session_psms_ = nullptr;
  /// First-accepted-PSM latency base (session open time).
  std::chrono::steady_clock::time_point opened_at_{};
  std::atomic<bool> first_psm_seen_{false};
};

}  // namespace oms::serve
