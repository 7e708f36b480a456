#include "core/query_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "accel/imc_encoder.hpp"
#include "core/streaming_fdr.hpp"
#include "hd/errors.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace oms::core {
namespace {

/// Salt for query-side keyed noise and bit errors ("QUER"); the same value
/// Pipeline has always used for its query encoding stream.
constexpr std::uint64_t kQuerySalt = 0x51554552ULL;

using Clock = std::chrono::steady_clock;

/// One admitted query plus its admission-queue entry time (stamped only
/// when observability is on; default-constructed otherwise).
struct Admitted {
  ms::Spectrum spectrum;
  Clock::time_point enqueued{};
};

/// One unit of work flowing through the stages. The hypervectors live on
/// the heap, so Query::hv pointers into `hvs` stay valid as the block
/// moves between queues.
struct Block {
  std::vector<ms::BinnedSpectrum> spectra;  ///< Prepped queries.
  std::vector<std::size_t> index;           ///< Global query index per entry.
  std::vector<std::uint64_t> span_keys;     ///< Tracer keys, aligned to spectra.
  std::vector<util::BitVec> hvs;            ///< Encoded, aligned to spectra.
  std::vector<Query> searches;              ///< Interpretation requests.
  /// (local slot, interpreted precursor mass) per search request.
  std::vector<std::pair<std::size_t, double>> interp;
  std::vector<std::vector<hd::SearchHit>> hits;  ///< Aligned to searches.
  Clock::time_point stamp{};  ///< Last queue-entry time (obs only).
};

/// A finished PSM tagged with its global query index for final ordering.
struct Emitted {
  std::size_t index = 0;
  std::uint64_t span_key = 0;
  Psm psm;
};

[[nodiscard]] double seconds_between(Clock::time_point a,
                                     Clock::time_point b) noexcept {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

namespace detail {
std::atomic<std::size_t> fail_worker_start_at{0};
}  // namespace detail

struct QueryEngine::Impl {
  Impl(Pipeline& p, const QueryEngineConfig& engine_cfg)
      : pipeline(p),
        cfg(sanitize(engine_cfg)),
        imc_encode(BackendRegistry::instance().imc_encoding(p.backend_name())),
        admission(cfg.block_size * cfg.queue_blocks),
        to_encode(cfg.queue_blocks),
        to_search(cfg.queue_blocks),
        to_rescore(cfg.queue_blocks),
        to_emit(cfg.queue_blocks) {
    if (pipeline.lib().empty() || !pipeline.backend_) {
      throw std::logic_error("QueryEngine: Pipeline::set_library() first");
    }
    // The estimator serves close_stream()'s release: roll_emit holds
    // everything back until the stream is closed and the future-arrival
    // bound exists.
    if (cfg.emit_policy == EmitPolicy::Rolling) {
      if (pipeline.cfg_.grouped_fdr) {
        rolling_grouped = std::make_unique<StreamingGroupedFdr>(
            StreamingGroupedFdr::standard_open());
      } else {
        rolling = std::make_unique<StreamingFdr>();
      }
    }
    if (cfg.metrics != nullptr) {
      obs = std::make_unique<Obs>(*cfg.metrics);
      const BackendStats s = pipeline.backend_->stats();
      obs->be_name.set(s.backend);
      obs->be_kernel.set(s.kernel);
    }
    if (imc_encode && !pipeline.imc_encoder_) {
      // set_library builds the encoder whenever the trait holds, so this
      // means the references were encoded under a different trait than the
      // queries would be — fail fast instead of skewing scores silently.
      throw std::logic_error(
          "QueryEngine: backend requires IMC-model encoding but the library "
          "was encoded without it (was the backend re-registered after "
          "set_library?)");
    }

    // With every slot reserved, only a thread start can throw, and
    // destroying the joinable workers already started would end the
    // process. Close every queue, as fail() does, so each of them drains
    // out whatever stage it serves, join them, and rethrow.
    workers.reserve(2 + 3 * cfg.stage_threads);
    try {
      start_worker([this] { preprocess_loop(); });
      start_stage(to_encode, to_search, obs ? &obs->search_depth : nullptr,
                  &Impl::encode_stage);
      start_stage(to_search, to_rescore, obs ? &obs->rescore_depth : nullptr,
                  &Impl::search_stage);
      start_stage(to_rescore, to_emit, obs ? &obs->emit_depth : nullptr,
                  &Impl::rescore_stage);
      start_worker([this] { emit_loop(); });
    } catch (...) {
      close_queues();
      shutdown();
      throw;
    }
  }

  ~Impl() { shutdown(); }

  static QueryEngineConfig sanitize(QueryEngineConfig c) {
    c.block_size = std::max<std::size_t>(1, c.block_size);
    c.queue_blocks = std::max<std::size_t>(1, c.queue_blocks);
    c.stage_threads = std::max<std::size_t>(1, c.stage_threads);
    return c;
  }

  // --- stage runner -------------------------------------------------------

  /// What a block stage hands its output to (see start_stage).
  template <typename T>
  using Send = std::function<void(T)>;

  /// Runs `work` on every item popped from `in` until the queue is closed
  /// and empty. Once the stream has failed, items are popped and dropped;
  /// an exception from `work` fails the stream.
  template <typename T, typename Work>
  void run_stage(util::BoundedQueue<T>& in, const Work& work) {
    while (auto item = in.pop()) {
      if (!failed.load(std::memory_order_acquire)) {
        guarded([&] { work(*item); });
      }
    }
  }

  /// Runs `f`, routing any exception to fail() (the first one wins).
  template <typename F>
  void guarded(const F& f) {
    try {
      f();
    } catch (...) {
      fail(std::current_exception());
    }
  }

  /// Starts one worker thread running `loop`.
  template <typename Loop>
  void start_worker(Loop&& loop) {
    if (workers.size() + 1 ==
        detail::fail_worker_start_at.load(std::memory_order_relaxed)) {
      throw std::system_error(
          std::make_error_code(std::errc::resource_unavailable_try_again),
          "QueryEngine: worker start");
    }
    workers.emplace_back(std::forward<Loop>(loop));
  }

  /// Starts cfg.stage_threads workers of a block stage. Each one runs
  /// run_stage over `in`; with timing on it observes a block's queue wait
  /// (histogram and kQueueWait trace) and hands `body` the time the stage
  /// started on the block, and `body` passes its output to a Send that
  /// forwards it to `out` (see hand_on). The last worker to finish closes
  /// `out`, so the cascade winds down stage by stage.
  template <typename Out>
  void start_stage(util::BoundedQueue<Block>& in, util::BoundedQueue<Out>& out,
                   obs::Gauge* depth,
                   void (Impl::*body)(Block&, Clock::time_point,
                                      const Send<Out>&)) {
    auto live = std::make_shared<std::atomic<std::size_t>>(cfg.stage_threads);
    for (std::size_t t = 0; t < cfg.stage_threads; ++t) {
      start_worker([this, &in, &out, depth, body, live] {
        const Send<Out> send = [&](Out item) {
          hand_on(out, depth, std::move(item));
        };
        run_stage(in, [&](Block& block) {
          Clock::time_point t0{};
          if (timing_on()) {
            t0 = Clock::now();
            const double wait = seconds_between(block.stamp, t0);
            if (obs) obs->queue_wait_s.observe(wait);
            if (tracing_on()) {
              trace_block(block, obs::Stage::kQueueWait, wait);
            }
          }
          (this->*body)(block, t0, send);
        });
        if (live->fetch_sub(1, std::memory_order_acq_rel) == 1) out.close();
      });
    }
  }

  /// Pushes `item` to the next stage and sets that queue's `depth` gauge;
  /// a block is re-stamped with its queue-entry time first (timing on).
  /// The push fails only once a failure closed the queue.
  template <typename T>
  void hand_on(util::BoundedQueue<T>& out, obs::Gauge* depth, T item) {
    if constexpr (std::is_same_v<T, Block>) {
      if (timing_on()) item.stamp = Clock::now();
    }
    (void)out.push(std::move(item));
    if (depth != nullptr) depth->set(static_cast<double>(out.size()));
  }

  // --- stages -------------------------------------------------------------

  void preprocess_loop() {
    Block current;
    // Tracer span keys are admission sequence numbers assigned here, in
    // the single-threaded preprocess stage — the same admission ordering
    // the determinism contract keys on, but covering preprocess-dropped
    // queries too (which never get a `searched` index).
    std::uint64_t admit_seq = 0;
    run_stage(admission, [&](Admitted& admitted) {
      const std::uint64_t key = admit_seq++;
      const bool traced = cfg.tracer != nullptr && cfg.tracer->sampled(key);
      Clock::time_point t0{};
      if (obs || traced) {
        t0 = Clock::now();
        const double wait = seconds_between(admitted.enqueued, t0);
        if (obs) obs->admission_wait_s.observe(wait);
        if (traced) cfg.tracer->record(key, obs::Stage::kAdmit, wait);
      }
      ms::BinnedSpectrum binned;
      const bool kept =
          ms::preprocess(admitted.spectrum, pipeline.cfg_.preprocess, binned);
      if (obs || traced) {
        const double prep = seconds_between(t0, Clock::now());
        if (obs) obs->preprocess_s.observe(prep);
        if (traced) cfg.tracer->record(key, obs::Stage::kPreprocess, prep);
      }
      if (!kept) {
        // Quality-filtered, same as preprocess_all. The query can no
        // longer produce a PSM, which tightens the rolling bound.
        dropped_preprocess.fetch_add(1, std::memory_order_relaxed);
        if (obs) obs->dropped_preprocess.add(1);
        if (traced) {
          cfg.tracer->complete(key, obs::SpanOutcome::kDroppedPreprocess);
        }
        note_resolved(1);
        return;
      }
      const std::size_t index = searched++;
      if (obs) {
        const std::lock_guard<std::mutex> lock(admit_time_mutex);
        if (admit_time_by_index.size() <= index) {
          admit_time_by_index.resize(index + 1);
        }
        admit_time_by_index[index] = admitted.enqueued;
      }
      current.index.push_back(index);
      current.span_keys.push_back(key);
      current.spectra.push_back(std::move(binned));
      if (current.spectra.size() >= cfg.block_size) flush(current);
    });
    guarded([&] {
      if (!current.spectra.empty()) flush(current);
    });
    to_encode.close();
  }

  void flush(Block& current) {
    ++blocks;
    if (obs) obs->blocks.add(1);
    hand_on(to_encode, obs ? &obs->encode_depth : nullptr,
            std::exchange(current, Block{}));
  }

  void encode_stage(Block& block, Clock::time_point t0,
                    const Send<Block>& send) {
    encode_block(block);
    build_searches(block);
    if (timing_on()) {
      const double enc = seconds_between(t0, Clock::now());
      if (obs) obs->encode_s.observe(enc);
      if (tracing_on()) trace_block(block, obs::Stage::kEncode, enc);
    }
    send(std::move(block));
  }

  void search_stage(Block& block, Clock::time_point t0,
                    const Send<Block>& send) {
    const std::size_t k =
        std::max<std::size_t>(1, pipeline.cfg_.rescore_top_k);
    double inner_s = 0.0;
    const auto run_block = [&] {
      if (timing_on()) {
        const Clock::time_point s0 = Clock::now();
        block.hits = pipeline.backend_->search_batch(block.searches, k);
        inner_s = seconds_between(s0, Clock::now());
      } else {
        block.hits = pipeline.backend_->search_batch(block.searches, k);
      }
    };
    // The gate (serve::FairScheduler) only decides *when* the block runs;
    // keyed noise keeps the results schedule-independent.
    if (cfg.search_gate) {
      cfg.search_gate(run_block);
    } else {
      run_block();
    }
    if (timing_on()) {
      // Outer minus inner separates the time waiting on the gate
      // (cross-tenant scheduling) from the backend search itself; for the
      // tracer the gate wait folds into queue-wait.
      const double gate_wait =
          std::max(0.0, seconds_between(t0, Clock::now()) - inner_s);
      if (obs) {
        obs->search_s.observe(inner_s);
        obs->gate_wait_s.observe(gate_wait);
      }
      if (tracing_on()) {
        trace_block(block, obs::Stage::kSearch, inner_s);
        trace_block(block, obs::Stage::kQueueWait, gate_wait);
      }
    }
    if (obs) scrape_backend();
    send(std::move(block));
  }

  void rescore_stage(Block& block, Clock::time_point t0,
                     const Send<std::vector<Emitted>>& send) {
    std::vector<Emitted> emitted_block = rescore_block(block);
    if (timing_on()) {
      const double rs = seconds_between(t0, Clock::now());
      if (obs) obs->rescore_s.observe(rs);
      if (tracing_on()) trace_block(block, obs::Stage::kRescore, rs);
    }
    if (tracing_on() && emitted_block.size() != block.span_keys.size()) {
      // Empty-window slots never reach the emit stage: close their spans
      // here, after the block's last record. Emitted entries preserve slot
      // order, so the non-emitted keys fall out of a two-pointer walk.
      std::size_t j = 0;
      for (const std::uint64_t key : block.span_keys) {
        if (j < emitted_block.size() && emitted_block[j].span_key == key) {
          ++j;
        } else {
          cfg.tracer->complete(key, obs::SpanOutcome::kEmptyWindow);
        }
      }
    }
    if (!emitted_block.empty()) send(std::move(emitted_block));
    // Every query in the block is now resolved — either its PSM is en
    // route to emission or it had no candidate window.
    note_resolved(block.spectra.size());
  }

  /// Resolution bookkeeping shared by the preprocess filter and rescore:
  /// feeds outstanding() and the serving layer's in-flight quota hook.
  void note_resolved(std::size_t n) {
    resolved.fetch_add(n, std::memory_order_acq_rel);
    if (cfg.on_query_resolved) cfg.on_query_resolved(n);
  }

  void emit_loop() {
    // Estimator adds allocate and the user's on_accept may throw; the
    // runner routes both to fail() like every other stage.
    run_stage(to_emit, [this](std::vector<Emitted>& emitted_block) {
      Clock::time_point t0{};
      std::vector<std::uint64_t> span_keys;
      if (timing_on()) {
        t0 = Clock::now();
        if (tracing_on()) {
          span_keys.reserve(emitted_block.size());
          for (const Emitted& e : emitted_block) {
            span_keys.push_back(e.span_key);
          }
        }
      }
      if (rolling || rolling_grouped) {
        for (const Emitted& e : emitted_block) {
          if (rolling_grouped) {
            rolling_grouped->add(e.psm, e.index);
          } else {
            rolling->add(e.psm, e.index);
          }
        }
      }
      if (obs) obs->psms_emitted.add(emitted_block.size());
      emitted.insert(emitted.end(),
                     std::make_move_iterator(emitted_block.begin()),
                     std::make_move_iterator(emitted_block.end()));
      roll_emit();
      if (timing_on()) {
        const double es = seconds_between(t0, Clock::now());
        if (obs) obs->emit_s.observe(es);
        for (const std::uint64_t key : span_keys) {
          cfg.tracer->record(key, obs::Stage::kEmit, es);
          // The emission decision ran: the span chain is complete (the
          // FDR verdict — early release vs drain — is a stream-level
          // property, not a per-query stage).
          cfg.tracer->complete(key, obs::SpanOutcome::kEmitted);
        }
      }
    });
    // The stream is complete once to_emit closes: every stage has finished,
    // so the outstanding-query count is exact (zero) and everything the
    // final filter will accept can be released before the drain machinery
    // runs.
    guarded([this] { roll_emit(); });
  }

  /// Rolling early release: runs on the emission thread after each block.
  /// Charges every query that could still produce a PSM as a potential
  /// future decoy; confident survivors go to the user callback now.
  void roll_emit() {
    if (!rolling && !rolling_grouped) return;
    // A future-arrival bound exists once the caller declared the stream
    // closed; before that, nothing can release before the drain flush.
    if (!closed.load(std::memory_order_acquire)) return;
    if (failed.load(std::memory_order_acquire)) return;
    // Every admitted query yields at most one PSM; queries that already
    // resolved without a PSM (quality-filtered, empty mass window) do not.
    // The admitted count IS the total once closed, so the bound is the
    // unresolved tail and hits zero once every in-flight query resolves —
    // that is how close releases the whole eligible set. Relaxed loads may
    // lag and over-count the future — that only delays a release, never
    // unsounds one.
    const std::size_t seen =
        rolling_grouped ? rolling_grouped->size() : rolling->size();
    const std::size_t done =
        seen + dropped_preprocess.load(std::memory_order_relaxed) +
        empty_window.load(std::memory_order_relaxed);
    const std::size_t arrived = submitted.load(std::memory_order_acquire);
    const std::size_t max_future = arrived > done ? arrived - done : 0;
    const double threshold = pipeline.cfg_.fdr_threshold;
    const std::vector<StreamingFdr::Release> releases =
        rolling_grouped ? rolling_grouped->emit_confident(threshold, max_future)
                        : rolling->emit_confident(threshold, max_future);
    for (const StreamingFdr::Release& r : releases) {
      if (released.size() <= r.tag) released.resize(r.tag + 1, false);
      released[r.tag] = true;
      ++early_emitted;
      if (obs) {
        obs->early_released.add(1);
        observe_emit_latency(r.tag);
      }
      if (cfg.on_accept) cfg.on_accept(r.psm);
    }
  }

  // --- stage bodies -------------------------------------------------------

  // One task per query on the global pool: each encode (and its injected
  // bit errors) is keyed on the spectrum id, so the bits do not depend on
  // which thread runs it, and parallel_tasks rethrows a failure here.
  void encode_block(Block& block) {
    const std::size_t n = block.spectra.size();
    block.hvs.resize(n);

    if (imc_encode) {
      // Deterministic per (device, bucket, seed): block-wise calibration
      // fills the same sigma cache one whole-batch pass would.
      std::vector<std::size_t> peak_counts(n);
      for (std::size_t i = 0; i < n; ++i) {
        peak_counts[i] = block.spectra[i].peak_count();
      }
      pipeline.imc_encoder_->precalibrate(peak_counts);
    }
    const double ber = pipeline.cfg_.injected_ber;
    const std::uint64_t ber_seed =
        util::hash_combine(pipeline.cfg_.seed, kQuerySalt);
    util::ThreadPool::global().parallel_tasks(n, [&](std::size_t i) {
      const ms::BinnedSpectrum& q = block.spectra[i];
      util::BitVec hv =
          imc_encode ? pipeline.imc_encoder_->encode_keyed(
                           q.bins, q.weights,
                           util::hash_combine(kQuerySalt, q.id))
                     : pipeline.encoder_.encode(q.bins, q.weights);
      if (ber > 0.0) hv = hd::with_bit_errors_keyed(hv, ber, ber_seed, q.id);
      block.hvs[i] = std::move(hv);
    });
  }

  void build_searches(Block& block) {
    const PipelineConfig& pcfg = pipeline.cfg_;
    const double window =
        pcfg.open_search ? pcfg.oms_window_da : pcfg.standard_window_da;
    block.searches.reserve(block.spectra.size());
    block.interp.reserve(block.spectra.size());
    for (std::size_t slot = 0; slot < block.spectra.size(); ++slot) {
      const ms::BinnedSpectrum& q = block.spectra[slot];

      // Candidate precursor-mass interpretations: the recorded charge,
      // plus z±1 when charge-tolerant search is on. The neutral mass
      // scales as m·z_alt/z_rec for a fixed observed m/z.
      double masses[3];
      std::size_t n_masses = 0;
      masses[n_masses++] = q.precursor_mass;
      if (pcfg.charge_tolerant) {
        const int z = q.precursor_charge;
        if (z > 1) {
          masses[n_masses++] =
              q.precursor_mass * static_cast<double>(z - 1) / z;
        }
        masses[n_masses++] = q.precursor_mass * static_cast<double>(z + 1) / z;
      }

      for (std::size_t m = 0; m < n_masses; ++m) {
        const auto [first, last] =
            pipeline.lib().mass_window(masses[m], window);
        if (first >= last) continue;
        block.searches.push_back(Query{&block.hvs[slot], first, last, q.id});
        block.interp.emplace_back(slot, masses[m]);
      }
    }
  }

  [[nodiscard]] std::vector<Emitted> rescore_block(Block& block) {
    const PipelineConfig& pcfg = pipeline.cfg_;
    const std::size_t k = std::max<std::size_t>(1, pcfg.rescore_top_k);
    const double bin_width = pcfg.preprocess.bin_width;
    const std::size_t n = block.spectra.size();

    // Reduce interpretations per query: the strongest leading dot wins,
    // earlier interpretation (recorded charge first) on ties.
    std::vector<std::vector<hd::SearchHit>> hits(n);
    std::vector<double> matched_mass(n);
    for (std::size_t slot = 0; slot < n; ++slot) {
      matched_mass[slot] = block.spectra[slot].precursor_mass;
    }
    for (std::size_t j = 0; j < block.searches.size(); ++j) {
      auto& part = block.hits[j];
      const std::size_t slot = block.interp[j].first;
      if (!part.empty() &&
          (hits[slot].empty() || part.front().dot > hits[slot].front().dot)) {
        hits[slot] = std::move(part);
        matched_mass[slot] = block.interp[j].second;
      }
    }

    std::vector<Emitted> out;
    out.reserve(n);
    for (std::size_t slot = 0; slot < n; ++slot) {
      if (hits[slot].empty()) {
        // No candidate in any mass window: resolved without a PSM. The
        // span completes in rescore_stage, after the block's kRescore
        // record — completing here and recording after would silently
        // reopen the span.
        empty_window.fetch_add(1, std::memory_order_relaxed);
        if (obs) obs->empty_window.add(1);
        continue;
      }
      const ms::BinnedSpectrum& q = block.spectra[slot];

      hd::SearchHit best = hits[slot].front();
      double best_score = best.similarity;
      if (k > 1) {
        // Rescore the HD candidates with the exact shifted dot product
        // and keep the strongest.
        best_score = -1.0;
        for (const auto& h : hits[slot]) {
          const ms::BinnedSpectrum& cand = pipeline.lib()[h.reference_index];
          const double shift_da = matched_mass[slot] - cand.precursor_mass;
          const auto shift =
              static_cast<std::int64_t>(std::llround(shift_da / bin_width));
          const double s = ms::shifted_dot(q, cand, shift);
          if (s > best_score) {
            best_score = s;
            best = h;
          }
        }
      }

      const ms::BinnedSpectrum& ref = pipeline.lib()[best.reference_index];
      Emitted e;
      e.index = block.index[slot];
      e.span_key = block.span_keys[slot];
      e.psm.query_id = q.id;
      e.psm.peptide = ref.peptide;
      e.psm.score = best_score;
      e.psm.is_decoy = ref.is_decoy;
      e.psm.mass_shift = matched_mass[slot] - ref.precursor_mass;
      e.psm.reference_index = best.reference_index;
      out.push_back(std::move(e));
    }
    return out;
  }

  // --- lifecycle ----------------------------------------------------------

  /// The one admission path behind submit, try_submit and submit_for,
  /// which differ only in the admission-queue `push` they pass. Throws
  /// std::logic_error naming `who` once the stream is drained or closed.
  /// The query is counted before the push, so the rolling bound can only
  /// over-count the future mid-admission, never under-count (that merely
  /// delays a release); the count is undone when the push refuses it.
  template <typename Push>
  bool admit(const char* who, ms::Spectrum&& query, const Push& push) {
    if (drained) {
      throw std::logic_error(std::string(who) + ": already drained");
    }
    if (closed.load(std::memory_order_acquire)) {
      throw std::logic_error(std::string(who) + ": stream closed");
    }
    submitted.fetch_add(1, std::memory_order_acq_rel);
    if (push(Admitted{std::move(query),
                      timing_on() ? Clock::now() : Clock::time_point{}})) {
      if (obs) obs->submitted.add(1);
      return true;
    }
    submitted.fetch_sub(1, std::memory_order_acq_rel);
    return false;
  }


  void fail(std::exception_ptr e) {
    {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::move(e);
    }
    failed.store(true, std::memory_order_release);
    // Unblock every producer and consumer; run_stage pops and drops the
    // remaining items.
    close_queues();
  }

  void close_queues() {
    admission.close();
    to_encode.close();
    to_search.close();
    to_rescore.close();
    to_emit.close();
  }

  void shutdown() {
    admission.close();
    for (std::thread& t : workers) {
      if (t.joinable()) t.join();
    }
  }

  Pipeline& pipeline;
  const QueryEngineConfig cfg;
  const bool imc_encode;

  // --- observability ------------------------------------------------------
  // Metric handles resolved once at construction so the stages never
  // touch the registry mutex. Null when QueryEngineConfig::metrics is null
  // — every instrumentation site is then a single `if (obs)` branch.
  struct Obs {
    explicit Obs(obs::MetricsRegistry& r)
        : submitted(r.counter("engine.queries_submitted")),
          dropped_preprocess(r.counter("engine.queries_dropped_preprocess")),
          empty_window(r.counter("engine.queries_empty_window")),
          psms_emitted(r.counter("engine.psms_emitted")),
          early_released(r.counter("engine.psms_early_released")),
          blocks(r.counter("engine.blocks")),
          admission_wait_s(r.histogram("engine.stage.admission_wait_seconds")),
          preprocess_s(r.histogram("engine.stage.preprocess_seconds")),
          encode_s(r.histogram("engine.stage.encode_seconds")),
          queue_wait_s(r.histogram("engine.stage.queue_wait_seconds")),
          search_s(r.histogram("engine.stage.search_seconds")),
          gate_wait_s(r.histogram("engine.stage.gate_wait_seconds")),
          rescore_s(r.histogram("engine.stage.rescore_seconds")),
          emit_s(r.histogram("engine.stage.emit_seconds")),
          emit_latency_s(r.histogram("engine.emit_latency_seconds")),
          encode_depth(r.gauge("engine.queue.encode_depth")),
          search_depth(r.gauge("engine.queue.search_depth")),
          rescore_depth(r.gauge("engine.queue.rescore_depth")),
          emit_depth(r.gauge("engine.queue.emit_depth")),
          be_phases(r.gauge("backend.phases_executed")),
          be_shard_entries(r.gauge("backend.shard_entries")),
          be_query_blocks(r.gauge("backend.query_blocks")),
          be_batched_queries(r.gauge("backend.batched_queries")),
          be_name(r.info("backend.name")),
          be_kernel(r.info("backend.kernel")) {}
    obs::Counter& submitted;
    obs::Counter& dropped_preprocess;
    obs::Counter& empty_window;
    obs::Counter& psms_emitted;
    obs::Counter& early_released;
    obs::Counter& blocks;
    obs::Histogram& admission_wait_s;
    obs::Histogram& preprocess_s;
    obs::Histogram& encode_s;
    obs::Histogram& queue_wait_s;
    obs::Histogram& search_s;
    obs::Histogram& gate_wait_s;
    obs::Histogram& rescore_s;
    obs::Histogram& emit_s;
    obs::Histogram& emit_latency_s;
    obs::Gauge& encode_depth;
    obs::Gauge& search_depth;
    obs::Gauge& rescore_depth;
    obs::Gauge& emit_depth;
    obs::Gauge& be_phases;
    obs::Gauge& be_shard_entries;
    obs::Gauge& be_query_blocks;
    obs::Gauge& be_batched_queries;
    obs::Info& be_name;
    obs::Info& be_kernel;
  };
  std::unique_ptr<Obs> obs;

  /// True when any timing instrumentation is live (metrics or sampling
  /// tracer); gates every clock read so the uninstrumented path stays
  /// clock-free.
  [[nodiscard]] bool timing_on() const noexcept {
    return obs != nullptr || tracing_on();
  }
  [[nodiscard]] bool tracing_on() const noexcept {
    return cfg.tracer != nullptr && cfg.tracer->enabled();
  }
  /// Adds `s` to `stage` of every sampled span in the block (record()
  /// filters unsampled keys; a cheap modulo per key).
  void trace_block(const Block& b, obs::Stage stage, double s) const {
    for (const std::uint64_t key : b.span_keys) {
      cfg.tracer->record(key, stage, s);
    }
  }
  /// Latest full backend snapshot → `backend.*` gauges. Set, not
  /// accumulated: the backend's counters are already monotonic process
  /// totals, and per-block deltas would overlap under concurrent blocks
  /// or a backend shared across sessions (BackendStats::operator+= is for
  /// stage-serial composition — see the regression test).
  void scrape_backend() const {
    const BackendStats s = pipeline.backend_->stats();
    obs->be_phases.set(static_cast<double>(s.phases_executed));
    obs->be_shard_entries.set(static_cast<double>(s.shard_entries));
    obs->be_query_blocks.set(static_cast<double>(s.query_blocks));
    obs->be_batched_queries.set(static_cast<double>(s.batched_queries));
  }

  /// Admission-entry time by searched index, for the Rolling-path
  /// emission-latency histogram (admission → release). Written by the
  /// preprocess thread, read by the emission/drain threads; only
  /// populated when metrics are on.
  std::mutex admit_time_mutex;
  std::vector<Clock::time_point> admit_time_by_index;

  void observe_emit_latency(std::size_t index) {
    Clock::time_point t{};
    {
      const std::lock_guard<std::mutex> lock(admit_time_mutex);
      if (index < admit_time_by_index.size()) t = admit_time_by_index[index];
    }
    if (t != Clock::time_point{}) {
      obs->emit_latency_s.observe(seconds_between(t, Clock::now()));
    }
  }

  util::BoundedQueue<Admitted> admission;
  util::BoundedQueue<Block> to_encode;
  util::BoundedQueue<Block> to_search;
  util::BoundedQueue<Block> to_rescore;
  util::BoundedQueue<std::vector<Emitted>> to_emit;

  /// Every stage worker in pipeline order (preprocess, encode, search,
  /// rescore, emit), which is the order shutdown() joins them in.
  std::vector<std::thread> workers;

  std::atomic<bool> failed{false};
  /// Set by close_stream()/drain-after-close: no further arrivals, so the
  /// rolling bound may treat `submitted` as the exact stream total.
  std::atomic<bool> closed{false};
  std::mutex error_mutex;
  std::exception_ptr error;

  std::vector<Emitted> emitted;  ///< Emission stage only, until joined.
  /// Producer (caller) thread writes; the emission thread reads it for
  /// the rolling future-arrival bound, hence atomic.
  std::atomic<std::size_t> submitted{0};
  /// Queries that finished without producing a PSM, split by cause so no
  /// query silently vanishes from the per-run view: quality-filtered at
  /// preprocessing vs searched-but-empty candidate windows. Written by
  /// preprocess/rescore workers, read by the emission thread to tighten
  /// the rolling bound and by drain() for the drop-accounting identity
  /// submitted == emitted + dropped_preprocess + empty_window.
  std::atomic<std::size_t> dropped_preprocess{0};
  std::atomic<std::size_t> empty_window{0};
  /// All resolved queries (with or without a PSM) — outstanding() feeds
  /// the serving layer's in-flight accounting.
  std::atomic<std::size_t> resolved{0};
  std::size_t searched = 0;      ///< Preprocess thread, read after join.
  std::size_t blocks = 0;        ///< Preprocess thread, read after join.
  bool drained = false;

  // Rolling-emission state: owned by the emission thread while stages are
  // live, read by drain() after the join.
  std::unique_ptr<StreamingFdr> rolling;
  std::unique_ptr<StreamingGroupedFdr> rolling_grouped;
  std::vector<bool> released;     ///< By admission index; emitted early.
  std::size_t early_emitted = 0;  ///< Releases before drain().
};

QueryEngine::QueryEngine(Pipeline& pipeline, const QueryEngineConfig& cfg)
    : impl_(std::make_unique<Impl>(pipeline, cfg)) {}

QueryEngine::~QueryEngine() = default;

void QueryEngine::submit(const ms::Spectrum& query) {
  submit(ms::Spectrum(query));
}

void QueryEngine::submit(ms::Spectrum&& query) {
  // push() only fails when a stage failure closed the queue; drain()
  // reports the stored exception.
  (void)impl_->admit("QueryEngine::submit", std::move(query),
                     [this](Admitted&& a) {
                       return impl_->admission.push(std::move(a));
                     });
}

void QueryEngine::submit_batch(std::span<const ms::Spectrum> queries) {
  for (const ms::Spectrum& q : queries) submit(q);
}

bool QueryEngine::try_submit(ms::Spectrum&& query) {
  return impl_->admit("QueryEngine::try_submit", std::move(query),
                      [this](Admitted&& a) {
                        return impl_->admission.try_push(std::move(a));
                      });
}

bool QueryEngine::submit_for(ms::Spectrum&& query,
                             std::chrono::milliseconds timeout) {
  return impl_->admit("QueryEngine::submit_for", std::move(query),
                      [this, timeout](Admitted&& a) {
                        return impl_->admission.push_for(std::move(a),
                                                         timeout);
                      });
}

void QueryEngine::close_stream() {
  if (impl_->drained) {
    throw std::logic_error("QueryEngine::close_stream: already drained");
  }
  impl_->closed.store(true, std::memory_order_release);
  // Ends admission: the preprocess loop flushes its partial block and the
  // stage cascade winds down, so the emission thread's final roll_emit
  // sees max_future == 0 and releases every PSM the drain filter will
  // accept — without blocking this caller.
  impl_->admission.close();
}

bool QueryEngine::failed() const noexcept {
  return impl_->failed.load(std::memory_order_acquire);
}

std::size_t QueryEngine::outstanding() const noexcept {
  const std::size_t in = impl_->submitted.load(std::memory_order_acquire);
  const std::size_t out = impl_->resolved.load(std::memory_order_acquire);
  return in > out ? in - out : 0;
}

PipelineResult QueryEngine::drain() {
  if (impl_->drained) {
    throw std::logic_error("QueryEngine::drain: already drained");
  }
  impl_->drained = true;
  impl_->admission.close();
  impl_->shutdown();
  {
    const std::lock_guard<std::mutex> lock(impl_->error_mutex);
    if (impl_->error) std::rethrow_exception(impl_->error);
  }

  // Drop accounting is exact on the non-failed path: every admitted query
  // either produced a PSM, was quality-filtered at preprocessing, or had
  // no candidate in any precursor window. Tested against both emit
  // policies; a violation means a stage lost a query silently.
  assert(impl_->submitted.load(std::memory_order_acquire) ==
         impl_->emitted.size() +
             impl_->dropped_preprocess.load(std::memory_order_acquire) +
             impl_->empty_window.load(std::memory_order_acquire));

  PipelineResult result;
  result.queries_in = impl_->submitted.load(std::memory_order_acquire);
  result.queries_searched = impl_->searched;
  result.library_targets = impl_->pipeline.lib().target_count();
  result.library_decoys = impl_->pipeline.lib().decoy_count();

  // Blocks finish out of order; the assigned query index restores the
  // admission order the synchronous path emits in.
  std::sort(impl_->emitted.begin(), impl_->emitted.end(),
            [](const Emitted& a, const Emitted& b) { return a.index < b.index; });
  result.psms.reserve(impl_->emitted.size());
  for (Emitted& e : impl_->emitted) result.psms.push_back(std::move(e.psm));

  // One mask serves both the accepted list and the rolling flush; the
  // grouped sort-by-query-id mirrors filter_at_fdr_standard_open.
  const PipelineConfig& pcfg = impl_->pipeline.cfg_;
  const std::vector<bool> mask =
      pcfg.grouped_fdr
          ? accept_mask_at_fdr_standard_open(result.psms, pcfg.fdr_threshold)
          : accept_mask_at_fdr(result.psms, pcfg.fdr_threshold);
  for (std::size_t i = 0; i < result.psms.size(); ++i) {
    if (mask[i]) result.accepted.push_back(result.psms[i]);
  }
  if (pcfg.grouped_fdr) {
    std::sort(result.accepted.begin(), result.accepted.end(),
              [](const Psm& a, const Psm& b) { return a.query_id < b.query_id; });
  }

  // Rolling flush: every accepted PSM not already released mid-run goes to
  // the callback now, in admission order, so the callback has seen exactly
  // result.accepted once the drain returns. Early releases are a subset of
  // the final accepted list by the confident-emission bound.
  if (impl_->cfg.emit_policy == EmitPolicy::Rolling && impl_->cfg.on_accept) {
    for (std::size_t i = 0; i < result.psms.size(); ++i) {
      const std::size_t admission = impl_->emitted[i].index;
      const bool was_released = admission < impl_->released.size() &&
                                impl_->released[admission];
      if (mask[i] && !was_released) {
        if (impl_->obs) impl_->observe_emit_latency(admission);
        impl_->cfg.on_accept(result.psms[i]);
      }
    }
  }
  return result;
}

QueryEngineStats QueryEngine::stats() const {
  QueryEngineStats s;
  s.submitted = impl_->submitted.load(std::memory_order_acquire);
  s.searched = impl_->searched;
  s.blocks = impl_->blocks;
  s.block_size = impl_->cfg.block_size;
  s.stage_threads = impl_->cfg.stage_threads;
  s.early_emitted = impl_->early_emitted;
  s.emitted = impl_->emitted.size();
  s.dropped_preprocess =
      impl_->dropped_preprocess.load(std::memory_order_acquire);
  s.empty_window = impl_->empty_window.load(std::memory_order_acquire);
  return s;
}

}  // namespace oms::core
