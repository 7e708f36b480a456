#include "core/search_backend.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "accel/imc_search.hpp"
#include "accel/mapper.hpp"
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
  util::ThreadPool::global().parallel_for(
      0, queries.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const Query& q = queries[i];
          out[i] = top_k(*q.hv, q.first, q.last, k, q.stream);
        }
      });
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

/// Chip slices of `width` references that a block enters: those meeting
/// the union of its non-empty windows, clipped to `count` references.
std::uint64_t slices_entered(std::span<const Query> queries,
                             std::size_t count, std::size_t width) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;  // [first, last]
  spans.reserve(queries.size());
  for (const Query& q : queries) {
    const std::size_t last = std::min(q.last, count);
    if (q.first < last) spans.emplace_back(q.first / width, (last - 1) / width);
  }
  std::sort(spans.begin(), spans.end());
  std::uint64_t entered = 0;
  std::size_t next = 0;  // first slice not yet counted
  for (const auto& [first, last] : spans) {
    const std::size_t from = std::max(first, next);
    if (from <= last) {
      entered += last - from + 1;
      next = last + 1;
    }
  }
  return entered;
}

accel::ImcSearchConfig imc_config(const BackendOptions& opts) {
  accel::ImcSearchConfig cfg;
  cfg.array = opts.array;
  cfg.activated_pairs = opts.activated_pairs;
  cfg.calibration_samples = opts.calibration_samples;
  cfg.seed = opts.seed;
  return cfg;
}

/// References per chip slice: `max_refs_per_shard` when set, else what one
/// chip of `chip_arrays` arrays holds. An empty library has no dimension
/// to size a chip by, and no slice to enter.
std::size_t slice_width(std::span<const util::BitVec> references,
                        const BackendOptions& opts) {
  if (opts.max_refs_per_shard > 0) return opts.max_refs_per_shard;
  if (references.empty()) return 1;
  return accel::references_per_chip(
      static_cast<std::uint32_t>(references.front().size()),
      rram::ChipConfig{opts.chip_arrays, opts.array});
}

/// The MLC-RRAM search model: one accel::ImcSearchEngine over the whole
/// library, cut into chip slices for accounting only — shards =
/// ceil(references / width) (at least 1) and one shard entry per (block,
/// slice its windows meet). The hits, phases, sigma and gain are the
/// engine's, since keyed noise depends on the global reference index
/// alone.
class ImcBackend final : public SearchBackend {
 public:
  ImcBackend(std::span<const util::BitVec> references,
             const BackendOptions& opts)
      : engine_(references, imc_config(opts)),
        query_block_(opts.query_block),
        slice_width_(slice_width(references, opts)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "rram-statistical";
  }

  [[nodiscard]] std::vector<hd::SearchHit> top_k(
      const util::BitVec& query, std::size_t first, std::size_t last,
      std::size_t k, std::uint64_t stream) override {
    const Query q{&query, first, last, stream};
    return std::move(search(std::span(&q, 1), k).front());
  }

  [[nodiscard]] std::vector<std::vector<hd::SearchHit>> search_batch(
      std::span<const Query> queries, std::size_t k) override {
    auto out = run_blocked(queries, query_block_,
                           [&](std::span<const Query> sub) {
                             return search(sub, k);
                           });
    counters_.count(queries.size(), query_block_);
    return out;
  }

  [[nodiscard]] BackendStats stats() const override {
    BackendStats s;
    s.backend = "rram-statistical";
    s.references = engine_.reference_count();
    s.shards = std::max<std::size_t>(
        1, (s.references + slice_width_ - 1) / slice_width_);
    s.phases_executed = engine_.phases_executed();
    s.phase_sigma = engine_.phase_sigma();
    s.gain = engine_.gain();
    s.shard_entries = slice_entries_.load(std::memory_order_relaxed);
    s.kernel = hd::kernels::tier_name(hd::kernels::active_tier());
    s.contiguous_refs = engine_.view().contiguous();
    s.extent_count = engine_.view().extent_count();
    counters_.fill(s);
    return s;
  }

 private:
  /// One block through the engine, with its slice entries counted.
  [[nodiscard]] std::vector<std::vector<hd::SearchHit>> search(
      std::span<const Query> queries, std::size_t k) const {
    auto hits = engine_.search_many(queries, k);
    if (k > 0) {
      slice_entries_.fetch_add(
          slices_entered(queries, engine_.reference_count(), slice_width_),
          std::memory_order_relaxed);
    }
    return hits;
  }

  accel::ImcSearchEngine engine_;  ///< Validates the device model first.
  std::size_t query_block_;
  std::size_t slice_width_;
  mutable std::atomic<std::uint64_t> slice_entries_{0};
  BlockCounters counters_;
};

}  // namespace

BackendRegistry::BackendRegistry() {
  factories_["ideal-hd"] = {[](std::span<const util::BitVec> refs,
                               const BackendOptions& opts) {
                              return std::make_unique<IdealHdBackend>(
                                  refs, opts.query_block);
                            },
                            /*imc_encoding=*/false};
  factories_["rram-statistical"] = {
      [](std::span<const util::BitVec> refs, const BackendOptions& opts) {
        return std::make_unique<ImcBackend>(refs, opts);
      },
      /*imc_encoding=*/true};
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::register_backend(const std::string& name,
                                       Factory factory, bool imc_encoding) {
  const std::lock_guard<std::mutex> lock(mutex_);
  factories_[name] = Entry{std::move(factory), imc_encoding};
}

bool BackendRegistry::contains(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return factories_.count(name) != 0;
}

void BackendRegistry::require(const std::string& name) const {
  if (!contains(name)) throw_unknown(name);
}

bool BackendRegistry::imc_encoding(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = factories_.find(name);
  return it != factories_.end() && it->second.imc_encoding;
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
