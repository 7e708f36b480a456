// serve::SearchServer — the multi-tenant front door of the OMS search
// stack, tying the serve layer together:
//
//   SearchServer
//    ├─ LibraryCache      (serve/library_cache.hpp) keeps N mmapped
//    │                    index::LibraryIndex artifacts hot, refcounted,
//    │                    LRU-evicted, with donated shared backends
//    ├─ Maintainer        (serve/maintainer.hpp) compacts fragmented
//    │                    segmented libraries off the request path
//    └─ Session…          (serve/session.hpp) one per open query stream:
//                         private Pipeline + QueryEngine (Rolling FDR,
//                         on_accept delivery), in-flight bound, explicit
//                         open → submit → close lifecycle
//
// Every session's engine runs its query blocks on the one global
// util::ThreadPool, one block per pool task, so the pool's FIFO queue
// interleaves the tenants' blocks round-robin: no stream's backlog holds
// a worker for more than one block while another stream's block waits.
//
// The server is transport-agnostic: examples/search_server.cpp wraps it
// in a line protocol over TCP or stdin/stdout, but anything able to call
// open()/submit()/close() can serve queries. Sessions hold shared
// ownership of the server core, so a Session outliving its SearchServer
// handle stays fully functional (the core dies with the last session).
//
// Capacity: open() fails fast at `max_sessions` rather than queueing —
// the admission-control philosophy is an explicit per-tenant in-flight
// bound inside a session and explicit rejection at the door, never
// unbounded buffering.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "serve/library_cache.hpp"
#include "serve/maintainer.hpp"
#include "serve/session.hpp"

namespace oms::serve {

struct SearchServerConfig {
  LibraryCacheConfig cache{};
  /// Concurrently open sessions before open() throws.
  std::size_t max_sessions = 64;
  /// Background compaction of segmented libraries (serve/maintainer.hpp):
  /// every manifest a session opens is watched, and fragmented ones are
  /// compacted off the request path. interval 0 disables the daemon
  /// thread (run_once() stays available via maintainer()).
  MaintainerConfig maintainer{};
};

struct SearchServerStats {
  std::size_t sessions_open = 0;
  std::uint64_t sessions_total = 0;      ///< Successfully opened, ever.
  std::uint64_t queries_admitted = 0;    ///< Across all sessions.
  std::uint64_t psms_streamed = 0;       ///< on_accept deliveries.
  LibraryCacheStats cache{};
};

namespace detail {
/// State shared by the server handle and every session it opened.
/// Cross-session accounting lives in the obs::MetricsRegistry — the one
/// accounting path the STATS verb, SearchServerStats, and the serve bench
/// all read — with handles resolved once here so sessions never touch the
/// registry mutex on the query path.
struct ServerCore {
  explicit ServerCore(const SearchServerConfig& config)
      : cfg(config), cache(config.cache),
        queries_total(metrics.counter("serve.queries_total")),
        psms_total(metrics.counter("serve.psms_total")),
        admission_rejected(metrics.counter("serve.admission.rejected")),
        admission_blocked(metrics.counter("serve.admission.blocked")),
        open_seconds(metrics.histogram("serve.open_seconds")),
        first_psm_seconds(metrics.histogram("serve.first_psm_seconds")),
        maintainer(config.maintainer, cache, metrics) {}

  const SearchServerConfig cfg;
  LibraryCache cache;
  obs::MetricsRegistry metrics;

  obs::Counter& queries_total;       ///< Admitted, across all sessions.
  obs::Counter& psms_total;          ///< on_accept deliveries.
  obs::Counter& admission_rejected;  ///< Submissions refused (Reject).
  /// Submissions that found the stream at its in-flight bound.
  obs::Counter& admission_blocked;
  obs::Histogram& open_seconds;      ///< SearchServer::open latency.
  obs::Histogram& first_psm_seconds; ///< Session open → first accepted PSM.

  std::mutex mutex;  ///< Guards the session counts.
  std::size_t sessions_open = 0;
  std::uint64_t sessions_total = 0;
  /// Session ids, never reused: unlike sessions_total, a failed open
  /// does not give its number back.
  std::atomic<std::uint64_t> next_session_id{1};

  /// Declared LAST on purpose: constructed after (and destroyed before)
  /// the cache and registry its daemon thread touches.
  Maintainer maintainer;
};
}  // namespace detail

class SearchServer {
 public:
  explicit SearchServer(const SearchServerConfig& cfg = {});

  SearchServer(const SearchServer&) = delete;
  SearchServer& operator=(const SearchServer&) = delete;

  /// Opens a tenant stream over the artifact at `library_path`: leases
  /// the mapping from the cache (mapping it on first touch), builds the
  /// session's pipeline + engine over the shared backend. Throws
  /// std::runtime_error at max_sessions, and propagates open/validation
  /// failures (missing file, fingerprint drift) without leaking capacity.
  [[nodiscard]] std::shared_ptr<Session> open(const std::string& library_path,
                                              SessionConfig cfg);

  [[nodiscard]] SearchServerStats stats() const;

  /// The server's live metrics registry: every session's engine feeds
  /// `engine.*` / `backend.*` into it, the serve layer its `serve.*`
  /// counters and histograms (see obs/metrics.hpp).
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept {
    return core_->metrics;
  }
  /// Point-in-time snapshot with the scrape-time gauges refreshed first
  /// (session counts, LibraryCache hit/miss/eviction/donation, Maintainer
  /// watch list) — what the line protocol's STATS verb serializes via
  /// Snapshot::to_json(). Its key set does not grow with the number of
  /// sessions opened.
  [[nodiscard]] obs::Snapshot metrics_snapshot() const;

  [[nodiscard]] LibraryCache& cache() noexcept { return core_->cache; }
  /// The background compaction daemon (serve/maintainer.hpp); exposed so
  /// tools and tests can run_once() deterministically or read its stats.
  [[nodiscard]] Maintainer& maintainer() noexcept {
    return core_->maintainer;
  }
  [[nodiscard]] const SearchServerConfig& config() const noexcept {
    return core_->cfg;
  }

 private:
  std::shared_ptr<detail::ServerCore> core_;
};

}  // namespace oms::serve
