#include "serve/server.hpp"

#include <stdexcept>
#include <utility>

namespace oms::serve {

SearchServer::SearchServer(const SearchServerConfig& cfg)
    : core_(std::make_shared<detail::ServerCore>(cfg)) {}

std::shared_ptr<Session> SearchServer::open(const std::string& library_path,
                                            SessionConfig cfg) {
  {
    const std::lock_guard lock(core_->mutex);
    if (core_->sessions_open >= core_->cfg.max_sessions) {
      throw std::runtime_error(
          "SearchServer::open: at max_sessions (" +
          std::to_string(core_->cfg.max_sessions) + ")");
    }
    // Reserve the slot before the (slow, throwing) construction so two
    // racing opens cannot both squeeze past the limit.
    ++core_->sessions_open;
    ++core_->sessions_total;
  }
  try {
    const obs::ScopedTimer timer(core_->open_seconds);
    const core::PipelineConfig pcfg = cfg.pipeline;
    std::shared_ptr<Session> session(
        new Session(core_, library_path, std::move(cfg)));
    // Hand every manifest-backed (growable, thus fragmentable) library —
    // generation 0 is a monolithic index — to the Maintainer. After the
    // session leased its generation: a compaction can never swap the
    // artifact out from under an open().
    if (session->generation() != 0) {
      core_->maintainer.watch(library_path, pcfg);
    }
    return session;
  } catch (...) {
    const std::lock_guard lock(core_->mutex);
    --core_->sessions_open;
    --core_->sessions_total;
    throw;
  }
}

SearchServerStats SearchServer::stats() const {
  SearchServerStats out;
  {
    const std::lock_guard lock(core_->mutex);
    out.sessions_open = core_->sessions_open;
    out.sessions_total = core_->sessions_total;
  }
  out.queries_admitted = core_->queries_total.value();
  out.psms_streamed = core_->psms_total.value();
  out.cache = core_->cache.stats();
  return out;
}

obs::Snapshot SearchServer::metrics_snapshot() const {
  obs::MetricsRegistry& m = core_->metrics;
  {
    const std::lock_guard lock(core_->mutex);
    m.gauge("serve.sessions_open")
        .set(static_cast<double>(core_->sessions_open));
    m.gauge("serve.sessions_total")
        .set(static_cast<double>(core_->sessions_total));
  }
  const LibraryCacheStats c = core_->cache.stats();
  m.gauge("serve.cache.hits").set(static_cast<double>(c.hits));
  m.gauge("serve.cache.misses").set(static_cast<double>(c.misses));
  m.gauge("serve.cache.evictions").set(static_cast<double>(c.evictions));
  m.gauge("serve.cache.resident").set(static_cast<double>(c.resident));
  m.gauge("serve.cache.backend_hits")
      .set(static_cast<double>(c.backend_hits));
  m.gauge("serve.cache.backend_donations")
      .set(static_cast<double>(c.backend_donations));
  core_->maintainer.refresh_gauges();
  return m.snapshot();
}

}  // namespace oms::serve
