#include "serve/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "serve/server.hpp"
#include "util/thread_pool.hpp"

namespace oms::serve {

namespace {

/// Serving default: modest per-session stage parallelism — tenants share
/// the machine, and the FairScheduler already bounds concurrent search
/// blocks; deep per-session worker pools would only inflate memory.
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
    // the pipeline just built so later tenants share it. donate() ignores
    // non-thread-safe backends (those stay private by design).
    core_->cache.donate(library_path_, cfg_.pipeline,
                        pipeline_->shared_backend());
  }

  core::QueryEngineConfig ecfg;
  ecfg.block_size = cfg_.block_size != 0 ? cfg_.block_size : 64;
  ecfg.stage_threads = cfg_.stage_threads != 0 ? cfg_.stage_threads
                                               : default_stage_threads();
  ecfg.queue_blocks = cfg_.queue_blocks != 0 ? cfg_.queue_blocks
                                             : 2 * ecfg.stage_threads + 2;
  ecfg.emit_policy = core::EmitPolicy::Rolling;
  ecfg.on_accept = [this](const core::Psm& psm) {
    streamed_.fetch_add(1, std::memory_order_relaxed);
    core_->psms_total.add(1);
    if (session_psms_ != nullptr) session_psms_->add(1);
    if (!first_psm_seen_.exchange(true, std::memory_order_relaxed)) {
      core_->first_psm_seconds.observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        opened_at_)
              .count());
    }
    if (cfg_.on_accept) cfg_.on_accept(psm);
  };
  ecfg.on_query_resolved = [this](std::size_t n) { release_quota(n); };
  ecfg.search_gate = [this](const std::function<void()>& fn) {
    core_->scheduler.run(id_, fn);
  };
  ecfg.metrics = &core_->metrics;
  if (cfg_.trace_sample_every != 0) {
    tracer_ = std::make_unique<obs::Tracer>(obs::TracerConfig{
        cfg_.trace_capacity, cfg_.trace_sample_every});
    ecfg.tracer = tracer_.get();
  }
  engine_ = std::make_unique<core::QueryEngine>(*pipeline_, ecfg);

  // Last: everything that could throw is behind us, so the stream cannot
  // leak out of the rotation. id_ is only read when a search block runs,
  // which requires a submit, which requires this constructor to return.
  id_ = core_->scheduler.register_stream();
  try {
    const std::string prefix = "serve.session." + std::to_string(id_);
    session_queries_ = &core_->metrics.counter(prefix + ".queries");
    session_psms_ = &core_->metrics.counter(prefix + ".psms");
  } catch (...) {
    core_->scheduler.unregister_stream(id_);
    throw;
  }
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

bool Session::acquire_quota() {
  std::unique_lock lock(quota_mutex_);
  if (quota_used_ < cfg_.max_in_flight) {
    ++quota_used_;
    return true;
  }
  if (cfg_.admit == AdmitPolicy::Reject) {
    if (cfg_.admit_timeout.count() <= 0) return false;
    core_->admission_blocked.add(1);
    (void)quota_cv_.wait_for(lock, cfg_.admit_timeout, [&] {
      return quota_used_ < cfg_.max_in_flight || engine_->failed();
    });
    if (engine_->failed() || quota_used_ >= cfg_.max_in_flight) return false;
    ++quota_used_;
    return true;
  }
  // Block: waiting is open-ended, but a stage failure stops resolutions
  // (and thus notifications) for good — poll it on a coarse tick so a
  // blocked producer escapes instead of hanging.
  core_->admission_blocked.add(1);
  while (true) {
    (void)quota_cv_.wait_for(lock, std::chrono::milliseconds(50), [&] {
      return quota_used_ < cfg_.max_in_flight;
    });
    if (quota_used_ < cfg_.max_in_flight) {
      ++quota_used_;
      return true;
    }
    if (engine_->failed()) return false;
  }
}

void Session::release_quota(std::size_t n) {
  {
    const std::lock_guard lock(quota_mutex_);
    quota_used_ -= std::min(n, quota_used_);
  }
  quota_cv_.notify_all();
}

bool Session::submit(ms::Spectrum query) {
  if (closed_.load(std::memory_order_acquire)) {
    throw std::logic_error("Session::submit: session closed");
  }
  if (engine_->failed()) return false;
  if (!acquire_quota()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    core_->admission_rejected.add(1);
    return false;
  }
  bool admitted = false;
  if (cfg_.admit == AdmitPolicy::Block) {
    // Blocking admission: queue back-pressure stalls this caller. After a
    // stage failure the push is silently dropped (close() reports the
    // exception), so the quota slot just acquired is never resolved —
    // acceptable drift, failed() gates every later submit.
    engine_->submit(std::move(query));
    admitted = true;
  } else if (cfg_.admit_timeout.count() > 0) {
    admitted = engine_->submit_for(std::move(query), cfg_.admit_timeout);
  } else {
    admitted = engine_->try_submit(std::move(query));
  }
  if (!admitted) {
    release_quota(1);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    core_->admission_rejected.add(1);
    return false;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  core_->queries_total.add(1);
  if (session_queries_ != nullptr) session_queries_->add(1);
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
  // Unpark any producer still waiting on quota (it will observe closed_).
  quota_cv_.notify_all();
  if (failure) std::rethrow_exception(failure);
  return result;
}

void Session::detach() noexcept {
  if (detached_) return;
  detached_ = true;
  try {
    core_->scheduler.unregister_stream(id_);
  } catch (...) {
    // Quiescence is guaranteed by the drain that precedes every detach;
    // never let teardown throw regardless.
  }
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
