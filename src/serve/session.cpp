#include "serve/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "serve/server.hpp"
#include "util/thread_pool.hpp"

namespace oms::serve {

namespace {

/// Serving default: a session runs at most this many of its blocks on the
/// shared pool at once — tenants share the machine, and the pool's FIFO
/// queue takes their blocks in turn, one block per task. No session starts
/// a thread of its own.
[[nodiscard]] std::size_t default_stage_threads() {
  return std::clamp<std::size_t>(
      util::ThreadPool::global().thread_count() / 2, 1, 4);
}

}  // namespace

Session::Session(std::shared_ptr<detail::ServerCore> core,
                 std::string library_path, SessionConfig cfg)
    : core_(std::move(core)),
      library_path_(std::move(library_path)),
      cfg_(std::move(cfg)),
      id_(core_->next_session_id.fetch_add(1, std::memory_order_relaxed)),
      opened_at_(std::chrono::steady_clock::now()) {
  if (cfg_.max_in_flight == 0) {
    throw std::invalid_argument("Session: max_in_flight must be >= 1");
  }

  LibraryLease lease = core_->cache.lease(library_path_, cfg_.pipeline);
  cache_hit_ = lease.cache_hit;
  backend_shared_ = lease.backend_hit;
  library_ = lease.segmented;

  pipeline_ = std::make_unique<core::Pipeline>(cfg_.pipeline);
  pipeline_->set_library(library_, lease.backend);
  if (!lease.backend) {
    // First session on this (library, backend-config): donate the backend
    // the pipeline just built so later tenants share it.
    core_->cache.donate(library_path_, cfg_.pipeline,
                        pipeline_->shared_backend());
  }

  core::QueryEngineConfig ecfg;
  ecfg.block_size = cfg_.block_size != 0 ? cfg_.block_size : 64;
  ecfg.stage_threads = cfg_.stage_threads != 0 ? cfg_.stage_threads
                                               : default_stage_threads();
  ecfg.max_in_flight = cfg_.max_in_flight;
  ecfg.emit_policy = core::EmitPolicy::Rolling;
  ecfg.on_accept = [this](const core::Psm& psm) {
    streamed_.fetch_add(1, std::memory_order_relaxed);
    core_->psms_total.add(1);
    if (!first_psm_seen_.exchange(true, std::memory_order_relaxed)) {
      core_->first_psm_seconds.observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        opened_at_)
              .count());
    }
    if (cfg_.on_accept) cfg_.on_accept(psm);
  };
  ecfg.metrics = &core_->metrics;
  if (cfg_.trace_sample_every != 0) {
    tracer_ = std::make_unique<obs::Tracer>(obs::TracerConfig{
        cfg_.trace_capacity, cfg_.trace_sample_every});
    ecfg.tracer = tracer_.get();
  }
  engine_ = std::make_unique<core::QueryEngine>(*pipeline_, ecfg);
}

Session::~Session() {
  // Abandoned session (destroyed without close()): wind the engine down
  // — close admission, drain, swallow whatever the drain reports — and
  // release the server slot. The result is discarded by choice.
  if (!closed_.exchange(true, std::memory_order_acq_rel)) {
    try {
      engine_->close_stream();
    } catch (...) {
    }
  }
  if (!detached_) {
    try {
      (void)engine_->drain();
    } catch (...) {
    }
    detach();
  }
}

bool Session::submit(ms::Spectrum query) {
  if (closed_.load(std::memory_order_acquire)) {
    throw std::logic_error("Session::submit: session closed");
  }
  // The engine holds the one in-flight bound; a refused try_submit leaves
  // `query` intact for the policy's second attempt.
  bool admitted = engine_->try_submit(std::move(query));
  if (!admitted) {
    if (engine_->failed()) return false;  // close() reports the failure
    core_->admission_blocked.add(1);
    if (cfg_.admit == AdmitPolicy::Block) {
      engine_->submit(std::move(query));
      admitted = !engine_->failed();  // a failed stream drops the query
    } else if (cfg_.admit_timeout.count() > 0) {
      admitted = engine_->submit_for(std::move(query), cfg_.admit_timeout);
    }
  }
  if (!admitted) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    core_->admission_rejected.add(1);
    return false;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  core_->queries_total.add(1);
  return true;
}

std::size_t Session::submit_batch(std::span<const ms::Spectrum> queries) {
  std::size_t admitted = 0;
  for (const ms::Spectrum& q : queries) {
    if (!submit(q)) break;
    ++admitted;
  }
  return admitted;
}

core::PipelineResult Session::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) {
    throw std::logic_error("Session::close: already closed");
  }
  engine_->close_stream();
  core::PipelineResult result;
  std::exception_ptr failure;
  try {
    result = engine_->drain();
  } catch (...) {
    failure = std::current_exception();
  }
  detach();
  if (failure) std::rethrow_exception(failure);
  return result;
}

void Session::detach() noexcept {
  if (detached_) return;
  detached_ = true;
  const std::lock_guard lock(core_->mutex);
  --core_->sessions_open;
}

SessionStats Session::stats() const {
  SessionStats out;
  out.submitted = submitted_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.streamed = streamed_.load(std::memory_order_relaxed);
  out.library_cache_hit = cache_hit_;
  out.backend_shared = backend_shared_;
  return out;
}

}  // namespace oms::serve
