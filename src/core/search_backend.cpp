#include "core/search_backend.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "accel/imc_search.hpp"
#include "accel/sharded_search.hpp"
#include "util/thread_pool.hpp"

namespace oms::core {

BackendStats& BackendStats::operator+=(const BackendStats& other) {
  if (backend.empty()) backend = other.backend;
  if (references == 0) references = other.references;
  if (shards <= 1) shards = other.shards;
  if (phase_sigma == 0.0) phase_sigma = other.phase_sigma;
  if (gain == 1.0) gain = other.gain;
  if (kernel.empty()) kernel = other.kernel;
  if (extent_count == 0) extent_count = other.extent_count;
  contiguous_refs = contiguous_refs || other.contiguous_refs;
  phases_executed += other.phases_executed;
  shard_entries += other.shard_entries;
  query_blocks += other.query_blocks;
  batched_queries += other.batched_queries;
  return *this;
}

BackendStats BackendStats::since(const BackendStats& before) const {
  const auto delta = [](std::uint64_t now, std::uint64_t then) {
    return now >= then ? now - then : 0;
  };
  BackendStats d = *this;
  d.phases_executed = delta(phases_executed, before.phases_executed);
  d.shard_entries = delta(shard_entries, before.shard_entries);
  d.query_blocks = delta(query_blocks, before.query_blocks);
  d.batched_queries = delta(batched_queries, before.batched_queries);
  return d;
}

std::vector<std::vector<hd::SearchHit>> SearchBackend::search_batch(
    std::span<const Query> queries, std::size_t k) {
  std::vector<std::vector<hd::SearchHit>> out(queries.size());
  const auto run_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const Query& q = queries[i];
      out[i] = top_k(*q.hv, q.first, q.last, k, q.stream);
    }
  };
  if (thread_safe()) {
    util::ThreadPool::global().parallel_for(0, queries.size(), run_range);
  } else {
    run_range(0, queries.size());
  }
  return out;
}

namespace {

/// Runs `block(sub, out_offset)` for every size-`block_size` slice of
/// `queries` in parallel over the global thread pool, collecting results
/// into one batch-aligned vector. Shared by the genuinely batched
/// search_batch overrides: per-query results are keyed, so block
/// composition and scheduling never change them.
template <typename BlockFn>
std::vector<std::vector<hd::SearchHit>> run_blocked(
    std::span<const Query> queries, std::size_t block_size,
    const BlockFn& block) {
  std::vector<std::vector<hd::SearchHit>> out(queries.size());
  const std::size_t bsize = std::max<std::size_t>(1, block_size);
  const std::size_t n_blocks = (queries.size() + bsize - 1) / bsize;
  util::ThreadPool::global().parallel_for(
      0, n_blocks, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t b = lo; b < hi; ++b) {
          const std::size_t begin = b * bsize;
          const std::size_t count = std::min(bsize, queries.size() - begin);
          auto hits = block(queries.subspan(begin, count));
          for (std::size_t j = 0; j < count; ++j) {
            out[begin + j] = std::move(hits[j]);
          }
        }
      });
  return out;
}

/// Block accounting shared by the batched overrides: how many blocks were
/// served and how many queries they amortized (BackendStats::query_blocks /
/// batched_queries).
struct BlockCounters {
  std::atomic<std::uint64_t> query_blocks{0};
  std::atomic<std::uint64_t> batched_queries{0};

  void count(std::size_t n_queries, std::size_t block_size) {
    const std::size_t bsize = std::max<std::size_t>(1, block_size);
    query_blocks.fetch_add((n_queries + bsize - 1) / bsize,
                           std::memory_order_relaxed);
    batched_queries.fetch_add(n_queries, std::memory_order_relaxed);
  }

  void fill(BackendStats& s) const {
    s.query_blocks = query_blocks.load(std::memory_order_relaxed);
    s.batched_queries = batched_queries.load(std::memory_order_relaxed);
  }
};

/// Exact digital Hamming search — hd::top_k_search behind the seam. At
/// construction the references are coalesced into a piecewise hd::RefView
/// (one extent for the mmap'd monolithic LibraryIndex layout, a few per
/// segmented library, one per row for scattered heap BitVecs); every
/// sweep — per-query and batched — runs over that view with global
/// indices and scores every candidate of the window.
class IdealHdBackend final : public SearchBackend {
 public:
  IdealHdBackend(std::span<const util::BitVec> references,
                 std::size_t query_block)
      : view_(hd::RefView::from_span(references)),
        query_block_(query_block) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "ideal-hd";
  }

  [[nodiscard]] std::vector<hd::SearchHit> top_k(
      const util::BitVec& query, std::size_t first, std::size_t last,
      std::size_t k, std::uint64_t /*stream*/) override {
    return hd::top_k_search(query, view_, first, last, k);
  }

  [[nodiscard]] std::vector<std::vector<hd::SearchHit>> search_batch(
      std::span<const Query> queries, std::size_t k) override {
    auto out = run_blocked(queries, query_block_,
                           [&](std::span<const Query> sub) {
                             return hd::top_k_search_batch(sub, view_, k);
                           });
    counters_.count(queries.size(), query_block_);
    return out;
  }

  [[nodiscard]] BackendStats stats() const override {
    BackendStats s;
    s.backend = "ideal-hd";
    s.references = view_.count();
    s.kernel = hd::kernels::tier_name(hd::kernels::active_tier());
    s.contiguous_refs = view_.contiguous();
    s.extent_count = view_.extent_count();
    counters_.fill(s);
    return s;
  }

 private:
  hd::RefView view_;  ///< Piecewise layout of the references.
  std::size_t query_block_;
  BlockCounters counters_;
};

/// One in-memory-compute engine (statistical or circuit fidelity).
class ImcBackend final : public SearchBackend {
 public:
  ImcBackend(std::string name, std::span<const util::BitVec> references,
             const accel::ImcSearchConfig& cfg, std::size_t query_block)
      : name_(std::move(name)),
        engine_(references, cfg),
        query_block_(query_block) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }

  [[nodiscard]] bool thread_safe() const noexcept override {
    // Circuit fidelity drives stateful crossbar arrays per call.
    return engine_.config().fidelity != accel::Fidelity::kCircuit;
  }

  [[nodiscard]] std::vector<hd::SearchHit> top_k(
      const util::BitVec& query, std::size_t first, std::size_t last,
      std::size_t k, std::uint64_t stream) override {
    if (engine_.config().fidelity == accel::Fidelity::kCircuit) {
      return engine_.top_k(query, first, last, k);
    }
    return engine_.top_k_keyed(query, first, last, k, stream);
  }

  [[nodiscard]] std::vector<std::vector<hd::SearchHit>> search_batch(
      std::span<const Query> queries, std::size_t k) override {
    if (engine_.config().fidelity == accel::Fidelity::kCircuit) {
      // The analog arrays carry per-call state; keep the sequential path.
      return SearchBackend::search_batch(queries, k);
    }
    auto out = run_blocked(queries, query_block_,
                           [&](std::span<const Query> sub) {
                             return engine_.search_many(sub, k);
                           });
    counters_.count(queries.size(), query_block_);
    return out;
  }

  [[nodiscard]] BackendStats stats() const override {
    BackendStats s;
    s.backend = name_;
    s.references = engine_.reference_count();
    s.phases_executed = engine_.phases_executed();
    s.phase_sigma = engine_.phase_sigma();
    s.gain = engine_.gain();
    counters_.fill(s);
    return s;
  }

 private:
  std::string name_;
  accel::ImcSearchEngine engine_;
  std::size_t query_block_;
  BlockCounters counters_;
};

/// Multi-chip scale-out: contiguous shards, merged top-k.
class ShardedBackend final : public SearchBackend {
 public:
  ShardedBackend(std::span<const util::BitVec> references,
                 const accel::ShardedSearchConfig& cfg,
                 std::size_t query_block)
      : sharded_(references, cfg), query_block_(query_block) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "sharded";
  }

  [[nodiscard]] std::vector<hd::SearchHit> top_k(
      const util::BitVec& query, std::size_t first, std::size_t last,
      std::size_t k, std::uint64_t stream) override {
    return sharded_.top_k(query, first, last, k, stream);
  }

  [[nodiscard]] std::vector<std::vector<hd::SearchHit>> search_batch(
      std::span<const Query> queries, std::size_t k) override {
    auto out = run_blocked(queries, query_block_,
                           [&](std::span<const Query> sub) {
                             return sharded_.search_many(sub, k);
                           });
    counters_.count(queries.size(), query_block_);
    return out;
  }

  [[nodiscard]] BackendStats stats() const override {
    BackendStats s;
    s.backend = "sharded";
    s.references = sharded_.reference_count();
    s.shards = sharded_.shard_count();
    s.phases_executed = sharded_.phases_executed();
    s.phase_sigma = sharded_.phase_sigma();
    s.gain = sharded_.gain();
    s.shard_entries = sharded_.shard_entries();
    counters_.fill(s);
    return s;
  }

 private:
  accel::ShardedSearch sharded_;
  std::size_t query_block_;
  BlockCounters counters_;
};

accel::ImcSearchConfig imc_config(const BackendOptions& opts,
                                  accel::Fidelity fidelity) {
  accel::ImcSearchConfig cfg;
  cfg.array = opts.array;
  cfg.activated_pairs = opts.activated_pairs;
  cfg.fidelity = fidelity;
  cfg.calibration_samples = opts.calibration_samples;
  cfg.seed = opts.seed;
  return cfg;
}

}  // namespace

BackendRegistry::BackendRegistry() {
  const EncodingTrait always_imc_encoded = [](const BackendOptions&) {
    return true;
  };
  factories_["ideal-hd"] = {[](std::span<const util::BitVec> refs,
                               const BackendOptions& opts) {
                              return std::make_unique<IdealHdBackend>(
                                  refs, opts.query_block);
                            },
                            /*imc_encoding=*/nullptr};
  factories_["rram-statistical"] = {
      [](std::span<const util::BitVec> refs, const BackendOptions& opts) {
        return std::make_unique<ImcBackend>(
            "rram-statistical", refs,
            imc_config(opts, accel::Fidelity::kStatistical),
            opts.query_block);
      },
      always_imc_encoded};
  factories_["rram-circuit"] = {
      [](std::span<const util::BitVec> refs, const BackendOptions& opts) {
        return std::make_unique<ImcBackend>(
            "rram-circuit", refs, imc_config(opts, accel::Fidelity::kCircuit),
            opts.query_block);
      },
      always_imc_encoded};
  factories_["sharded"] = {
      [](std::span<const util::BitVec> refs, const BackendOptions& opts) {
        if (opts.sharded_fidelity == accel::Fidelity::kCircuit) {
          throw std::invalid_argument(
              "sharded backend does not support circuit fidelity (shards "
              "search through the thread-safe keyed path only)");
        }
        accel::ShardedSearchConfig cfg;
        cfg.chip = opts.chip;
        cfg.chip.array = opts.array;
        cfg.engine = imc_config(opts, opts.sharded_fidelity);
        cfg.max_refs_per_shard = opts.max_refs_per_shard;
        cfg.parallel_shards = opts.parallel_shards;
        cfg.pool = opts.shard_pool;
        return std::make_unique<ShardedBackend>(refs, cfg, opts.query_block);
      },
      // Statistical shards model the same device noise as the monolithic
      // rram-statistical engine, so their libraries must be encoded the
      // same way for end-to-end equivalence; ideal shards take the exact
      // encoding (matching "ideal-hd").
      [](const BackendOptions& opts) {
        return opts.sharded_fidelity == accel::Fidelity::kStatistical;
      }};
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::register_backend(const std::string& name,
                                       Factory factory, bool imc_encoding) {
  register_backend(
      name, std::move(factory),
      imc_encoding ? EncodingTrait([](const BackendOptions&) { return true; })
                   : EncodingTrait());
}

void BackendRegistry::register_backend(const std::string& name,
                                       Factory factory,
                                       EncodingTrait imc_encoding) {
  const std::lock_guard<std::mutex> lock(mutex_);
  factories_[name] = Entry{std::move(factory), std::move(imc_encoding)};
}

bool BackendRegistry::contains(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return factories_.count(name) != 0;
}

void BackendRegistry::require(const std::string& name) const {
  if (!contains(name)) throw_unknown(name);
}

bool BackendRegistry::imc_encoding(const std::string& name,
                                   const BackendOptions& opts) const {
  EncodingTrait trait;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = factories_.find(name);
    if (it == factories_.end() || !it->second.imc_encoding) return false;
    trait = it->second.imc_encoding;
  }
  return trait(opts);
}

std::vector<std::string> BackendRegistry::names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, entry] : factories_) out.push_back(name);
  return out;
}

void BackendRegistry::throw_unknown(const std::string& name) const {
  std::ostringstream msg;
  msg << "unknown search backend '" << name << "'; registered backends:";
  for (const auto& n : names()) msg << " " << n;
  throw std::invalid_argument(msg.str());
}

std::unique_ptr<SearchBackend> BackendRegistry::make(
    const std::string& name, std::span<const util::BitVec> references,
    const BackendOptions& opts) const {
  Factory factory;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = factories_.find(name);
    if (it != factories_.end()) factory = it->second.factory;
  }
  if (!factory) throw_unknown(name);
  return factory(references, opts);
}

std::unique_ptr<SearchBackend> make_backend(
    const std::string& name, std::span<const util::BitVec> references,
    const BackendOptions& opts) {
  return BackendRegistry::instance().make(name, references, opts);
}

}  // namespace oms::core
