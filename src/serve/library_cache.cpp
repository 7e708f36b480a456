#include "serve/library_cache.hpp"

#include <stdexcept>
#include <utility>

#include "index/format.hpp"
#include "index/index_builder.hpp"
#include "index/manifest.hpp"
#include "util/rng.hpp"

namespace oms::serve {

std::uint64_t backend_config_hash(const core::PipelineConfig& cfg) noexcept {
  const core::BackendOptions& o = cfg.backend_options;
  const std::string name = core::Pipeline::backend_name(cfg);
  std::uint64_t x = index::fnv1a64(name.data(), name.size(),
                                   0x4241434b454e4431ULL);  // "BACKEND1"
  // The pipeline overrides opts.seed with cfg.seed before construction, so
  // the session seed — not the options field — is what keys the instance.
  x = util::hash_combine(x, cfg.seed, o.activated_pairs);
  x = util::hash_combine(x, o.calibration_samples, o.chip_arrays);
  x = util::hash_combine(x, o.max_refs_per_shard, o.query_block);
  // The fingerprint's device hash, but for every backend: the fingerprint
  // leaves the device out for exact backends.
  return util::hash_combine(x, index::device_hash(o.array));
}

LibraryCache::LibraryCache(const LibraryCacheConfig& cfg) : cfg_(cfg) {
  if (cfg_.capacity == 0) {
    throw std::invalid_argument("LibraryCache: capacity must be >= 1");
  }
}

void LibraryCache::touch(Entry& entry, const Key& key) {
  lru_.erase(entry.lru);
  lru_.push_front(key);
  entry.lru = lru_.begin();
}

LibraryLease LibraryCache::lease(const std::string& path,
                                 const core::PipelineConfig& pcfg) {
  const std::uint64_t bkey = backend_config_hash(pcfg);
  Key key{index::fingerprint_hash(index::fingerprint_of(pcfg)),
          index::library_generation(path), path};

  const std::lock_guard lock(mutex_);
  auto it = entries_.find(key);
  std::shared_ptr<const index::SegmentedLibrary> opened;
  if (it == entries_.end()) {
    // Miss: map and validate before anything is cached, so a drifting or
    // corrupt artifact can never poison the entry under this key.
    opened = std::make_shared<const index::SegmentedLibrary>(
        index::SegmentedLibrary::open(path, cfg_.open));
    index::validate_fingerprint(opened->fingerprint(), pcfg);
    // Insert under the generation actually opened — the manifest may
    // have been rewritten between the key peek and the open.
    key.generation = opened->generation();
    it = entries_.find(key);
  }
  if (it != entries_.end()) {
    ++stats_.hits;
    touch(it->second, key);
    LibraryLease out;
    out.segmented = it->second.library;
    out.cache_hit = true;
    if (auto bit = it->second.backends.find(bkey);
        bit != it->second.backends.end()) {
      out.backend = bit->second;
      out.backend_hit = true;
      ++stats_.backend_hits;
    }
    return out;
  }
  ++stats_.misses;

  lru_.push_front(key);
  Entry entry;
  entry.library = opened;
  entry.lru = lru_.begin();
  entries_.emplace(key, std::move(entry));
  while (entries_.size() > cfg_.capacity) {
    // Evict the coldest entry. Sessions holding its lease keep the mapping
    // (and any shared backend) alive through their shared_ptrs; the cache
    // merely stops handing it to newcomers.
    const Key victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    ++stats_.evictions;
  }
  stats_.resident = entries_.size();

  LibraryLease out;
  out.segmented = std::move(opened);
  return out;
}

void LibraryCache::donate(const std::string& path,
                          const core::PipelineConfig& pcfg,
                          std::shared_ptr<core::SearchBackend> backend) {
  if (!backend) return;
  Key key{index::fingerprint_hash(index::fingerprint_of(pcfg)), 0, path};
  try {
    key.generation = index::library_generation(path);
  } catch (const std::exception&) {
    return;  // manifest torn or gone — nothing current to donate to
  }
  // A manifest rewritten since the lease yields the new generation's key
  // here, which misses the old generation's entry below — exactly right:
  // a backend built over superseded segments must not be shared forward.
  const std::uint64_t bkey = backend_config_hash(pcfg);

  const std::lock_guard lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;  // evicted since the lease: let it go
  if (it->second.backends.emplace(bkey, std::move(backend)).second) {
    ++stats_.backend_donations;
  }
}

LibraryCacheStats LibraryCache::stats() const {
  const std::lock_guard lock(mutex_);
  LibraryCacheStats out = stats_;
  out.resident = entries_.size();
  return out;
}

std::size_t LibraryCache::resident() const {
  const std::lock_guard lock(mutex_);
  return entries_.size();
}

}  // namespace oms::serve
