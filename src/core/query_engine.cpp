#include "core/query_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
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

/// One unit of work: up to block_size admitted spectra, which one runner
/// takes from preprocessing to emission. A block does not move while it
/// runs, so Query::hv pointers into `hvs` stay valid.
struct Block {
  std::size_t first_key = 0;                ///< Admission key of raw[0].
  std::vector<ms::Spectrum> raw;            ///< Admitted, in admission order.
  std::vector<Clock::time_point> admitted;  ///< Admission times (obs only).
  std::vector<ms::BinnedSpectrum> spectra;  ///< Survivors of preprocessing.
  std::vector<std::size_t> keys;            ///< Admission key per survivor.
  std::vector<util::BitVec> hvs;            ///< Encoded, aligned to spectra.
  std::vector<Query> searches;              ///< Interpretation requests.
  /// (local slot, interpreted precursor mass) per search request.
  std::vector<std::pair<std::size_t, double>> interp;
  std::vector<std::vector<hd::SearchHit>> hits;  ///< Aligned to searches.
  Clock::time_point stamp{};  ///< Posting, then each stage's end (obs only).
};

/// A finished PSM tagged with its admission key for final ordering.
struct Emitted {
  std::size_t key = 0;
  Psm psm;
};

[[nodiscard]] double seconds_between(Clock::time_point a,
                                     Clock::time_point b) noexcept {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

struct QueryEngine::Impl : std::enable_shared_from_this<QueryEngine::Impl> {
  Impl(Pipeline& p, const QueryEngineConfig& engine_cfg)
      : pipeline(p),
        cfg(sanitize(engine_cfg)),
        imc_encode(BackendRegistry::instance().imc_encoding(p.backend_name())) {
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
  }

  static QueryEngineConfig sanitize(QueryEngineConfig c) {
    c.max_in_flight = std::max<std::size_t>(1, c.max_in_flight);
    // A block holds no more queries than may be unresolved at once, so a
    // stream at its bound always has a block in flight that frees room.
    c.block_size = std::clamp<std::size_t>(c.block_size, 1, c.max_in_flight);
    c.stage_threads = std::max<std::size_t>(1, c.stage_threads);
    return c;
  }

  // --- block scheduling ---------------------------------------------------
  //
  // Admission fills the open block under `mutex` while fewer than
  // cfg.max_in_flight queries are unresolved; a full block (or the partial
  // one once admission ends) moves to `pending` and a pool task is posted
  // to run it. At most cfg.stage_threads blocks run at once. Nothing ever
  // waits on a queued pool task: submit() at the bound, drain() and the
  // destructor run pending blocks themselves (run_one), as parallel_tasks'
  // caller does. A pool task runs one block and then posts the stream's
  // next task at the back of the pool's FIFO queue, so the blocks of
  // concurrent streams take turns on the pool and no worker serves one
  // stream's backlog while another's block waits. Pool tasks hold the Impl
  // by shared_ptr, so one that starts after the engine is gone finds
  // nothing pending and touches nothing else.

  /// The one admission path behind submit, try_submit and submit_for,
  /// which differ only in `wait`: it is called with `lock` held while the
  /// stream is at its bound, and returns false to give up; `query` is
  /// then left as it was. Throws std::logic_error naming `who` once the
  /// stream is drained or closed; returns false once it has failed.
  template <typename Wait>
  bool admit(const char* who, ms::Spectrum&& query, const Wait& wait) {
    std::unique_lock<std::mutex> lock(mutex);
    if (drained) {
      throw std::logic_error(std::string(who) + ": already drained");
    }
    if (closed.load(std::memory_order_relaxed)) {
      throw std::logic_error(std::string(who) + ": stream closed");
    }
    for (;;) {
      if (failed.load(std::memory_order_acquire)) return false;
      if (outstanding() < cfg.max_in_flight) break;
      if (!wait(lock)) return false;
    }
    // Counted under the lock that hands blocks to runners, so the rolling
    // bound never sees a query resolve before it is counted.
    open.raw.push_back(std::move(query));
    if (timing_on()) open.admitted.push_back(Clock::now());
    submitted.fetch_add(1, std::memory_order_acq_rel);
    if (obs) obs->submitted.add(1);
    flush(lock);
    return true;
  }

  /// Moves the open block to `pending` once it is full, or holds anything
  /// after admission ended. Then posts pool tasks for pending blocks that
  /// may run now and have no runner coming.
  void flush(std::unique_lock<std::mutex>& lock) {
    (void)lock;  // held by the caller
    const bool ended = drained || closed.load(std::memory_order_relaxed);
    if (!open.raw.empty() && (open.raw.size() >= cfg.block_size || ended)) {
      const std::size_t next_key = open.first_key + open.raw.size();
      if (timing_on()) open.stamp = Clock::now();
      pending.push_back(std::exchange(open, Block{}));
      open.first_key = next_key;
      ++inflight;
    }
    while (running + waking < cfg.stage_threads && waking < pending.size()) {
      util::ThreadPool::global().post(
          [self = shared_from_this()] { self->run_pending(); });
      ++waking;  // the task cannot start before `lock` is released
    }
  }

  /// A posted pool task: runs one pending block, if the stream has room.
  /// run_one's flush then queues the stream's next task behind whatever
  /// other streams posted meanwhile.
  void run_pending() {
    std::unique_lock<std::mutex> lock(mutex);
    --waking;
    (void)run_one(lock);
  }

  /// Runs the oldest pending block on this thread, unless none is pending
  /// or stage_threads blocks already run; returns whether it ran one.
  /// Releases `lock` while the block runs. Once the stream has failed,
  /// blocks are taken and dropped.
  bool run_one(std::unique_lock<std::mutex>& lock) {
    if (pending.empty() || running >= cfg.stage_threads) return false;
    Block block = std::move(pending.front());
    pending.pop_front();
    const std::size_t queries = block.raw.size();
    ++running;
    lock.unlock();
    if (!failed.load(std::memory_order_acquire)) {
      guarded([&] { run_block(block); });
    }
    block = Block{};
    lock.lock();
    --running;
    // Counted under `mutex`, which admission waits on: every query of the
    // block is now quality-filtered, empty-windowed or emitted (or dropped
    // with a failed stream), so room opens for as many admissions.
    resolved.fetch_add(queries, std::memory_order_acq_rel);
    if (closed.load(std::memory_order_relaxed) && inflight == 1 &&
        open.raw.empty()) {
      // The stream's last block: release everything the final filter will
      // accept before drain() can see the stream finish.
      lock.unlock();
      final_release();
      lock.lock();
    }
    --inflight;
    flush(lock);
    cv.notify_all();
    return true;
  }

  /// Ends admission and runs or waits out every block. Caller holds `lock`
  /// and has set `drained`.
  void finish(std::unique_lock<std::mutex>& lock) {
    for (;;) {
      flush(lock);
      if (inflight == 0) return;
      if (!run_one(lock)) cv.wait(lock);
    }
  }

  /// The closed stream's last roll_emit: every query has resolved, so the
  /// future-arrival bound is zero.
  void final_release() {
    const std::lock_guard<std::mutex> lock(emit_mutex);
    guarded([this] { roll_emit(); });
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

  void fail(std::exception_ptr e) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (!error) error = std::move(e);
    failed.store(true, std::memory_order_release);
    cv.notify_all();
  }

  // --- one block, start to finish -----------------------------------------

  void run_block(Block& block) {
    const Clock::time_point claimed =
        timing_on() ? Clock::now() : Clock::time_point{};
    prepare(block);
    if (block.spectra.empty()) return;  // every query was quality-filtered
    blocks.fetch_add(1, std::memory_order_relaxed);
    if (obs) obs->blocks.add(1);
    build_searches(block);
    if (timing_on()) {
      // The wait from posting to a runner, observed once the block is
      // known to reach the block stages.
      observe_wait(block, seconds_between(block.stamp, claimed));
      end_stage(block, claimed, obs ? &obs->encode_s : nullptr,
                obs::Stage::kEncode);
    }
    search_stage(block);
    rescore_stage(block);
  }

  /// Preprocesses and encodes the block's spectra, one pool task per query
  /// (each encode and its injected bit errors are keyed on the spectrum
  /// id, so the bits do not depend on the thread). Survivors keep
  /// admission order; quality-filtered queries resolve here.
  void prepare(Block& block) {
    const std::size_t n = block.raw.size();
    std::vector<ms::BinnedSpectrum> binned(n);
    std::vector<util::BitVec> hvs(n);
    std::vector<char> kept(n, 0);
    util::ThreadPool::global().parallel_tasks(n, [&](std::size_t i) {
      kept[i] = preprocess_one(block, i, binned[i]) ? 1 : 0;
      if (kept[i] != 0 && !imc_encode) hvs[i] = encode_one(binned[i]);
    });
    for (std::size_t i = 0; i < n; ++i) {
      if (kept[i] == 0) continue;
      block.spectra.push_back(std::move(binned[i]));
      block.keys.push_back(block.first_key + i);
      block.hvs.push_back(std::move(hvs[i]));
    }
    block.raw = {};
    searched.fetch_add(block.spectra.size(), std::memory_order_relaxed);
    if (const std::size_t dropped = n - block.spectra.size(); dropped > 0) {
      // Quality-filtered, same as preprocess_all. These queries can no
      // longer produce a PSM, which tightens the rolling bound.
      dropped_preprocess.fetch_add(dropped, std::memory_order_relaxed);
      if (obs) obs->dropped_preprocess.add(dropped);
    }
    if (!imc_encode || block.spectra.empty()) return;
    // Deterministic per (device, bucket, seed): block-wise calibration
    // fills the same sigma cache one whole-batch pass would.
    std::vector<std::size_t> peak_counts(block.spectra.size());
    for (std::size_t i = 0; i < peak_counts.size(); ++i) {
      peak_counts[i] = block.spectra[i].peak_count();
    }
    pipeline.imc_encoder_->precalibrate(peak_counts);
    util::ThreadPool::global().parallel_tasks(
        block.spectra.size(), [&](std::size_t i) {
          block.hvs[i] = encode_one(block.spectra[i]);
        });
  }

  /// Preprocesses raw spectrum `i` of `block` into `out`; false when the
  /// quality filter drops it.
  bool preprocess_one(const Block& block, std::size_t i,
                      ms::BinnedSpectrum& out) {
    // Tracer span keys are admission keys: the ordering the determinism
    // contract keys on, covering preprocess-dropped queries too.
    const std::size_t key = block.first_key + i;
    const bool traced = cfg.tracer != nullptr && cfg.tracer->sampled(key);
    Clock::time_point t0{};
    if (obs || traced) {
      // Admission ends when the block is posted; the wait for a runner
      // after that is the block's queue wait.
      t0 = Clock::now();
      const double wait = seconds_between(block.admitted[i], block.stamp);
      if (obs) obs->admission_wait_s.observe(wait);
      if (traced) cfg.tracer->record(key, obs::Stage::kAdmit, wait);
    }
    const bool kept =
        ms::preprocess(block.raw[i], pipeline.cfg_.preprocess, out);
    if (obs || traced) {
      const double prep = seconds_between(t0, Clock::now());
      if (obs) obs->preprocess_s.observe(prep);
      if (traced) cfg.tracer->record(key, obs::Stage::kPreprocess, prep);
    }
    if (!kept) {
      if (traced) cfg.tracer->complete(key, obs::SpanOutcome::kDroppedPreprocess);
    } else if (obs) {
      const std::lock_guard<std::mutex> lock(admit_time_mutex);
      if (admit_time_by_key.size() <= key) admit_time_by_key.resize(key + 1);
      admit_time_by_key[key] = block.admitted[i];
    }
    return kept;
  }

  [[nodiscard]] util::BitVec encode_one(const ms::BinnedSpectrum& q) const {
    util::BitVec hv =
        imc_encode ? pipeline.imc_encoder_->encode_keyed(
                         q.bins, q.weights, util::hash_combine(kQuerySalt, q.id))
                   : pipeline.encoder_.encode(q.bins, q.weights);
    const double ber = pipeline.cfg_.injected_ber;
    if (ber > 0.0) {
      hv = hd::with_bit_errors_keyed(
          hv, ber, util::hash_combine(pipeline.cfg_.seed, kQuerySalt), q.id);
    }
    return hv;
  }

  void search_stage(Block& block) {
    const Clock::time_point t0 = begin_stage(block);
    const std::size_t k =
        std::max<std::size_t>(1, pipeline.cfg_.rescore_top_k);
    block.hits = pipeline.backend_->search_batch(block.searches, k);
    if (timing_on()) {
      end_stage(block, t0, obs ? &obs->search_s : nullptr,
                obs::Stage::kSearch);
    }
    if (obs) scrape_backend();
  }

  void rescore_stage(Block& block) {
    const Clock::time_point t0 = begin_stage(block);
    std::vector<Emitted> out = rescore_block(block);
    if (timing_on()) {
      end_stage(block, t0, obs ? &obs->rescore_s : nullptr,
                obs::Stage::kRescore);
    }
    if (tracing_on() && out.size() != block.keys.size()) {
      // Empty-window slots are never emitted: close their spans here,
      // after the block's last record. Emitted entries preserve slot
      // order, so the non-emitted keys fall out of a two-pointer walk.
      std::size_t j = 0;
      for (const std::size_t key : block.keys) {
        if (j < out.size() && out[j].key == key) {
          ++j;
        } else {
          cfg.tracer->complete(key, obs::SpanOutcome::kEmptyWindow);
        }
      }
    }
    if (!out.empty()) emit(out);
  }

  /// Queries admitted but not yet resolved.
  [[nodiscard]] std::size_t outstanding() const noexcept {
    const std::size_t in = submitted.load(std::memory_order_acquire);
    const std::size_t out = resolved.load(std::memory_order_acquire);
    return in > out ? in - out : 0;
  }

  /// Hands a block's PSMs to emission. Under emit_mutex, so estimator
  /// adds, roll_emit and on_accept never run concurrently. Estimator adds
  /// allocate and the user's on_accept may throw; the block's runner
  /// routes both to fail().
  void emit(std::vector<Emitted>& out) {
    const std::lock_guard<std::mutex> lock(emit_mutex);
    const Clock::time_point t0 =
        timing_on() ? Clock::now() : Clock::time_point{};
    for (const Emitted& e : out) {
      if (rolling_grouped) {
        rolling_grouped->add(e.psm, e.key);
      } else if (rolling) {
        rolling->add(e.psm, e.key);
      }
    }
    if (obs) obs->psms_emitted.add(out.size());
    emitted.insert(emitted.end(), std::make_move_iterator(out.begin()),
                   std::make_move_iterator(out.end()));
    roll_emit();
    if (!timing_on()) return;
    const double es = seconds_between(t0, Clock::now());
    if (obs) obs->emit_s.observe(es);
    if (!tracing_on()) return;
    for (auto it = emitted.end() - static_cast<std::ptrdiff_t>(out.size());
         it != emitted.end(); ++it) {
      cfg.tracer->record(it->key, obs::Stage::kEmit, es);
      // The emission decision ran: the span chain is complete (the FDR
      // verdict — early release vs drain — is a stream-level property, not
      // a per-query stage).
      cfg.tracer->complete(it->key, obs::SpanOutcome::kEmitted);
    }
  }

  /// Rolling early release, under emit_mutex after each block. Charges
  /// every query that could still produce a PSM as a potential future
  /// decoy; confident survivors go to the user callback now.
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
      e.key = block.keys[slot];
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
          rescore_s(r.histogram("engine.stage.rescore_seconds")),
          emit_s(r.histogram("engine.stage.emit_seconds")),
          emit_latency_s(r.histogram("engine.emit_latency_seconds")),
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
    obs::Histogram& rescore_s;
    obs::Histogram& emit_s;
    obs::Histogram& emit_latency_s;
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
    for (const std::size_t key : b.keys) cfg.tracer->record(key, stage, s);
  }
  /// A block's wait in front of a stage: histogram and kQueueWait spans.
  void observe_wait(const Block& b, double wait) const {
    if (obs) obs->queue_wait_s.observe(wait);
    if (tracing_on()) trace_block(b, obs::Stage::kQueueWait, wait);
  }
  /// Starts a block stage; with timing on, observes the block's wait since
  /// the previous stage ended and returns the start time.
  [[nodiscard]] Clock::time_point begin_stage(const Block& b) const {
    if (!timing_on()) return {};
    const Clock::time_point t0 = Clock::now();
    observe_wait(b, seconds_between(b.stamp, t0));
    return t0;
  }
  /// Ends a block stage that started at `t0`: observes its time in `hist`
  /// and the `stage` spans, and stamps the block for the next wait.
  void end_stage(Block& b, Clock::time_point t0, obs::Histogram* hist,
                 obs::Stage stage) const {
    b.stamp = Clock::now();
    const double s = seconds_between(t0, b.stamp);
    if (hist != nullptr) hist->observe(s);
    if (tracing_on()) trace_block(b, stage, s);
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

  /// Admission time by admission key, for the Rolling-path emission-
  /// latency histogram (admission → release). Written as queries pass
  /// preprocessing, read at release; only populated when metrics are on.
  std::mutex admit_time_mutex;
  std::vector<Clock::time_point> admit_time_by_key;

  void observe_emit_latency(std::size_t key) {
    Clock::time_point t{};
    {
      const std::lock_guard<std::mutex> lock(admit_time_mutex);
      if (key < admit_time_by_key.size()) t = admit_time_by_key[key];
    }
    if (t != Clock::time_point{}) {
      obs->emit_latency_s.observe(seconds_between(t, Clock::now()));
    }
  }

  // --- scheduling state, under `mutex` ------------------------------------
  std::mutex mutex;
  std::condition_variable cv;  ///< A block finished, or the stream failed.
  Block open;                  ///< Filling; keys from open.first_key on.
  std::deque<Block> pending;   ///< Full blocks waiting for a runner.
  std::size_t running = 0;     ///< Blocks being run.
  std::size_t inflight = 0;    ///< Pending + running blocks.
  std::size_t waking = 0;      ///< Posted pool tasks not yet started.
  bool drained = false;        ///< drain() or the destructor began.
  std::exception_ptr error;    ///< First failure; drain() rethrows it.

  std::atomic<bool> failed{false};
  /// Set by close_stream(): no further arrivals, so the rolling bound may
  /// treat `submitted` as the exact stream total.
  std::atomic<bool> closed{false};

  /// Written under `mutex` by admission; read by roll_emit for the
  /// rolling future-arrival bound, hence atomic.
  std::atomic<std::size_t> submitted{0};
  /// Queries that finished without producing a PSM, split by cause so no
  /// query silently vanishes from the per-run view: quality-filtered at
  /// preprocessing vs searched-but-empty candidate windows. Read by
  /// roll_emit to tighten the rolling bound and by drain() for the
  /// drop-accounting identity
  /// submitted == emitted + dropped_preprocess + empty_window.
  std::atomic<std::size_t> dropped_preprocess{0};
  std::atomic<std::size_t> empty_window{0};
  /// Queries of finished or dropped blocks, written under `mutex`;
  /// admission bounds submitted − resolved by cfg.max_in_flight.
  std::atomic<std::size_t> resolved{0};
  std::atomic<std::size_t> searched{0};  ///< Survived preprocessing.
  std::atomic<std::size_t> blocks{0};    ///< Blocks that reached search.

  // Emission state, under emit_mutex while blocks run; drain() reads it
  // once every block has finished.
  std::mutex emit_mutex;
  std::vector<Emitted> emitted;
  std::unique_ptr<StreamingFdr> rolling;
  std::unique_ptr<StreamingGroupedFdr> rolling_grouped;
  std::vector<bool> released;     ///< By admission key; emitted early.
  std::size_t early_emitted = 0;  ///< Releases before drain().
};

QueryEngine::QueryEngine(Pipeline& pipeline, const QueryEngineConfig& cfg)
    : impl_(std::make_shared<Impl>(pipeline, cfg)) {}

QueryEngine::~QueryEngine() {
  // As drain() does, run or wait out every admitted block, so none
  // outlives the engine.
  std::unique_lock<std::mutex> lock(impl_->mutex);
  impl_->drained = true;
  impl_->finish(lock);
}

void QueryEngine::submit(const ms::Spectrum& query) {
  submit(ms::Spectrum(query));
}

void QueryEngine::submit(ms::Spectrum&& query) {
  // Admission fails only once the stream has failed; drain() reports the
  // stored exception. At the bound the producer runs a pending block
  // before it waits, so a producer inside a pool task never waits on a
  // block that only a queued pool task would run.
  (void)impl_->admit("QueryEngine::submit", std::move(query),
                     [this](std::unique_lock<std::mutex>& lock) {
                       if (!impl_->run_one(lock)) impl_->cv.wait(lock);
                       return true;
                     });
}

void QueryEngine::submit_batch(std::span<const ms::Spectrum> queries) {
  for (const ms::Spectrum& q : queries) submit(q);
}

bool QueryEngine::try_submit(ms::Spectrum&& query) {
  return impl_->admit("QueryEngine::try_submit", std::move(query),
                      [](std::unique_lock<std::mutex>&) { return false; });
}

bool QueryEngine::submit_for(ms::Spectrum&& query,
                             std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  return impl_->admit("QueryEngine::submit_for", std::move(query),
                      [this, deadline](std::unique_lock<std::mutex>& lock) {
                        if (std::chrono::steady_clock::now() >= deadline) {
                          return false;
                        }
                        impl_->cv.wait_until(lock, deadline);
                        return true;
                      });
}

void QueryEngine::close_stream() {
  Impl& im = *impl_;
  std::unique_lock<std::mutex> lock(im.mutex);
  if (im.drained) {
    throw std::logic_error("QueryEngine::close_stream: already drained");
  }
  if (im.closed.exchange(true, std::memory_order_acq_rel)) return;
  // Ends admission: the partial block goes to a runner and the last block
  // to finish runs the final roll_emit, which sees max_future == 0 and
  // releases every PSM the drain filter will accept — without blocking
  // this caller. With no block in flight, that release runs here.
  im.flush(lock);
  if (im.inflight != 0) return;
  ++im.inflight;
  lock.unlock();
  im.final_release();
  lock.lock();
  --im.inflight;
  im.cv.notify_all();
}

bool QueryEngine::failed() const noexcept {
  return impl_->failed.load(std::memory_order_acquire);
}

std::size_t QueryEngine::outstanding() const noexcept {
  return impl_->outstanding();
}

PipelineResult QueryEngine::drain() {
  Impl& im = *impl_;
  {
    std::unique_lock<std::mutex> lock(im.mutex);
    if (im.drained) {
      throw std::logic_error("QueryEngine::drain: already drained");
    }
    im.drained = true;
    im.finish(lock);
    if (im.error) std::rethrow_exception(im.error);
  }

  // Drop accounting is exact on the non-failed path: every admitted query
  // either produced a PSM, was quality-filtered at preprocessing, or had
  // no candidate in any precursor window. A violation means a block lost
  // queries silently.
  const std::size_t submitted = im.submitted.load(std::memory_order_acquire);
  const std::size_t dropped =
      im.dropped_preprocess.load(std::memory_order_acquire);
  const std::size_t empty = im.empty_window.load(std::memory_order_acquire);
  if (submitted != im.emitted.size() + dropped + empty) {
    throw std::logic_error(
        "QueryEngine::drain: lost queries: submitted " +
        std::to_string(submitted) + " != emitted " +
        std::to_string(im.emitted.size()) + " + dropped_preprocess " +
        std::to_string(dropped) + " + empty_window " + std::to_string(empty));
  }

  PipelineResult result;
  result.queries_in = submitted;
  result.queries_searched = im.searched.load(std::memory_order_acquire);
  result.library_targets = im.pipeline.lib().target_count();
  result.library_decoys = im.pipeline.lib().decoy_count();

  // Blocks finish out of order; the admission key restores the admission
  // order the synchronous path emits in.
  std::sort(im.emitted.begin(), im.emitted.end(),
            [](const Emitted& a, const Emitted& b) { return a.key < b.key; });
  result.psms.reserve(im.emitted.size());
  for (Emitted& e : im.emitted) result.psms.push_back(std::move(e.psm));

  // One mask serves both the accepted list and the rolling flush; the
  // grouped sort-by-query-id mirrors filter_at_fdr_standard_open.
  const PipelineConfig& pcfg = im.pipeline.cfg_;
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
  if (im.cfg.emit_policy == EmitPolicy::Rolling && im.cfg.on_accept) {
    for (std::size_t i = 0; i < result.psms.size(); ++i) {
      const std::size_t key = im.emitted[i].key;
      const bool was_released = key < im.released.size() && im.released[key];
      if (mask[i] && !was_released) {
        if (im.obs) im.observe_emit_latency(key);
        im.cfg.on_accept(result.psms[i]);
      }
    }
  }
  return result;
}

QueryEngineStats QueryEngine::stats() const {
  QueryEngineStats s;
  s.submitted = impl_->submitted.load(std::memory_order_acquire);
  s.searched = impl_->searched.load(std::memory_order_acquire);
  s.blocks = impl_->blocks.load(std::memory_order_acquire);
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
