// Fingerprint-keyed cache of hot search libraries — the artifact side of
// the multi-tenant serve layer (serve/server.hpp).
//
// A serving process typically multiplexes many query streams over a small
// set of library artifacts. Re-mapping the files and rebuilding a search
// backend per session would throw away exactly the cold-start work of the
// persistent index, so the cache keeps up to `capacity` opened
// index::SegmentedLibrary instances resident — the one library type, which
// opens a segmented manifest or a monolithic index alike — keyed on
// (fingerprint-hash, generation, path):
//
//   * the fingerprint hash (index::fingerprint_of over the session's
//     PipelineConfig, FNV-1a'd) captures every knob that changes the bytes
//     a search reads — preprocess, encoder, encoding trait, seed — so two
//     sessions with drifting configs can never share an entry;
//   * the generation (index::library_generation: a manifest's combined
//     hash, 0 for a monolithic index) names the current segment list, so
//     an append or compaction changes the key: new sessions miss onto the
//     fresh generation and the stale one simply ages out of the LRU;
//   * the path disambiguates distinct artifacts built under identical
//     configuration (two different libraries are two entries).
//
// lease() returns shared_ptr ownership of both the opened library and
// (when available) a search backend already built over its hypervectors.
// Eviction is LRU and drops only the cache's reference: a library still
// serving an open session stays mapped until the last session releases its
// lease — the refcount IS the correctness story, there is no "in use" flag.
//
// Backends are a second-level cache inside each entry, keyed on a hash of
// everything that shapes a backend instance (registry name, seed, device
// model, chip-slice geometry). The cache never constructs backends itself —
// core::Pipeline owns that logic — sessions donate() the backend their
// pipeline built. Every registered backend is reentrant with keyed noise,
// so any of them may be shared.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "core/pipeline.hpp"
#include "core/search_backend.hpp"
#include "index/segmented_library.hpp"

namespace oms::serve {

struct LibraryCacheConfig {
  /// Resident libraries kept hot (LRU beyond this). Must be >= 1.
  std::size_t capacity = 4;
  /// Forwarded to index::SegmentedLibrary::open for cache misses.
  index::OpenOptions open{};
};

/// Monotonic counters; snapshot under the cache lock.
struct LibraryCacheStats {
  std::size_t hits = 0;        ///< lease() found the library resident.
  std::size_t misses = 0;      ///< lease() had to open + map the file.
  std::size_t evictions = 0;   ///< LRU entries dropped (leases unaffected).
  std::size_t resident = 0;    ///< Entries currently held.
  std::size_t backend_hits = 0;       ///< Leases that carried a backend.
  std::size_t backend_donations = 0;  ///< Backends adopted via donate().
};

/// What a session holds while serving: shared ownership of the opened
/// library, plus the shared search backend when a compatible one has been
/// donated (null → the session's pipeline builds a private backend and
/// should donate it back).
struct LibraryLease {
  std::shared_ptr<const index::SegmentedLibrary> segmented;
  std::shared_ptr<core::SearchBackend> backend;
  bool cache_hit = false;   ///< Library was already resident.
  bool backend_hit = false; ///< Backend came from the cache too.
};

/// Order-sensitive field-by-field hash of everything that shapes a search
/// backend built by core::Pipeline under this config: registry name, seed,
/// device model, chip-slice geometry, batching. Field enumeration, never raw
/// struct bytes — padding must not leak into the key.
[[nodiscard]] std::uint64_t backend_config_hash(
    const core::PipelineConfig& cfg) noexcept;

class LibraryCache {
 public:
  explicit LibraryCache(const LibraryCacheConfig& cfg = {});

  LibraryCache(const LibraryCache&) = delete;
  LibraryCache& operator=(const LibraryCache&) = delete;

  /// Returns a lease for the artifact at `path` as required by `pcfg`.
  /// `path` may name a monolithic index or a segmented library's
  /// manifest; leases key on the current generation, so a lease taken
  /// after an append/compaction never returns the stale segment list.
  /// Resident → shared library (plus
  /// backend when one matching backend_config_hash(pcfg) was donated).
  /// Miss → opens the file, validates its fingerprint against pcfg
  /// (index::validate_fingerprint; throws on drift, nothing is cached),
  /// inserts, and evicts the least-recently-leased entry beyond
  /// capacity. Opens run under the cache lock: concurrent first-touch of one artifact maps it once, at
  /// the cost of serializing unrelated cold opens (acceptable — opens are
  /// rare and mmap is cheap; revisit with per-key latches if it shows up).
  [[nodiscard]] LibraryLease lease(const std::string& path,
                                   const core::PipelineConfig& pcfg);

  /// Offers the backend a session's pipeline built over the leased library,
  /// so later sessions share it. Ignored (not an error) when the backend
  /// is null, when the library is no longer resident,
  /// or when an equivalent backend is already cached (first donation
  /// wins — all donors built under the same key, so the instances are
  /// interchangeable).
  void donate(const std::string& path, const core::PipelineConfig& pcfg,
              std::shared_ptr<core::SearchBackend> backend);

  [[nodiscard]] LibraryCacheStats stats() const;
  /// Entries currently resident (test/introspection convenience).
  [[nodiscard]] std::size_t resident() const;

 private:
  struct Key {
    std::uint64_t fp_hash = 0;
    std::uint64_t generation = 0;
    std::string path;
    [[nodiscard]] bool operator<(const Key& o) const noexcept {
      return std::tie(fp_hash, generation, path) <
             std::tie(o.fp_hash, o.generation, o.path);
    }
  };
  struct Entry {
    std::shared_ptr<const index::SegmentedLibrary> library;
    /// backend_config_hash → donated backend. Usually one element; more
    /// when sessions search one artifact under different backend options
    /// (e.g. two chip-slice widths of rram-statistical).
    std::map<std::uint64_t, std::shared_ptr<core::SearchBackend>> backends;
    std::list<Key>::iterator lru;  ///< Position in lru_ (front = hottest).
  };

  void touch(Entry& entry, const Key& key);

  LibraryCacheConfig cfg_;
  mutable std::mutex mutex_;
  std::map<Key, Entry> entries_;
  std::list<Key> lru_;  ///< Front = most recently leased.
  LibraryCacheStats stats_;
};

}  // namespace oms::serve
