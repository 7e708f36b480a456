// Multi-tenant serve layer contracts (src/serve/):
//
//   * Isolation keystone: a session's result — and its streamed
//     accepted-PSM sequence — is bit-identical to a solo Pipeline::run
//     with the same config and query stream, regardless of how many
//     other sessions (on the same or different backends) run
//     concurrently against the same server, cache, and scheduler.
//   * LibraryCache: fingerprint+path keying, hit/miss/donation counters,
//     LRU eviction that cannot pull a mapped artifact out from under an
//     open session (refcount semantics), fingerprint-drift rejection.
//   * Session close(): flushes exactly the accepted set through
//     on_accept — every accepted PSM once, nothing else — with no stream
//     length declared up front.
//   * Admission control: Reject policy sheds load once max_in_flight
//     unresolved queries are held on a stalled substrate; the session
//     still returns the exact solo result for the queries it admitted.
//   * FairScheduler: round-robin grants across streams, FIFO within.
//   * SearchServer: max_sessions capacity gate and stats plumbing.
//
// Runs under the `tsan` ctest label (see CMakeLists) — every contract
// here is exercised with real cross-session concurrency.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/search_backend.hpp"
#include "index/index_builder.hpp"
#include "index/library_index.hpp"
#include "ms/synthetic.hpp"
#include "serve/library_cache.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"

namespace {

using namespace oms;

core::PipelineConfig serve_config(const std::string& backend) {
  core::PipelineConfig cfg;
  cfg.encoder.dim = 1024;
  cfg.encoder.bins = cfg.preprocess.bin_count();
  cfg.encoder.chunks = 64;
  cfg.backend_options.calibration_samples = 256;
  cfg.backend_name = backend;
  cfg.seed = 4242;
  return cfg;
}

ms::Workload workload_with_seed(std::uint64_t seed,
                                std::size_t queries = 60) {
  ms::WorkloadConfig cfg;
  cfg.reference_count = 300;
  cfg.query_count = queries;
  cfg.seed = seed;
  return ms::generate_workload(cfg);
}

/// Disjoint 60-query windows drawn from the SAME workload the artifacts
/// are built from (seed 5): the generator emits references before queries
/// off one RNG stream, so a wider query_count leaves the reference set
/// untouched and every window really queries the indexed library — the
/// FDR filter has signal and accepts a non-empty set deterministically.
std::vector<ms::Spectrum> matched_queries(std::size_t tenant,
                                          std::size_t count = 60) {
  static const ms::Workload wl = workload_with_seed(5, 300);
  const auto begin = wl.queries.begin() +
                     static_cast<std::ptrdiff_t>(tenant * count);
  return {begin, begin + static_cast<std::ptrdiff_t>(count)};
}

/// Builds (once per process) an artifact for the given config and returns
/// its path. `tag` names the file; reuse a tag only with the same config.
std::string build_artifact(const std::string& tag,
                           const core::PipelineConfig& cfg) {
  static std::mutex mu;
  static std::vector<std::string> built;
  const std::string path = testing::TempDir() + "serve_" + tag + ".omsx";
  const std::lock_guard lock(mu);
  if (std::find(built.begin(), built.end(), path) == built.end()) {
    core::Pipeline pipeline(cfg);
    pipeline.set_library(workload_with_seed(5).references);
    index::IndexBuilder::write_from_pipeline(pipeline, path);
    built.push_back(path);
  }
  return path;
}

void expect_same_psms(const core::PipelineResult& want,
                      const core::PipelineResult& got,
                      const std::string& what) {
  EXPECT_EQ(want.queries_in, got.queries_in) << what;
  EXPECT_EQ(want.queries_searched, got.queries_searched) << what;
  ASSERT_EQ(want.psms.size(), got.psms.size()) << what;
  for (std::size_t i = 0; i < want.psms.size(); ++i) {
    EXPECT_EQ(want.psms[i].query_id, got.psms[i].query_id)
        << what << " psm " << i;
    EXPECT_EQ(want.psms[i].reference_index, got.psms[i].reference_index)
        << what << " psm " << i;
    EXPECT_EQ(want.psms[i].score, got.psms[i].score) << what << " psm " << i;
    EXPECT_EQ(want.psms[i].mass_shift, got.psms[i].mass_shift)
        << what << " psm " << i;
  }
  ASSERT_EQ(want.accepted.size(), got.accepted.size()) << what;
  EXPECT_EQ(want.identification_set(), got.identification_set()) << what;
}

core::PipelineResult solo_run(const core::PipelineConfig& cfg,
                              const std::string& artifact,
                              const std::vector<ms::Spectrum>& queries) {
  core::Pipeline pipeline(cfg);
  pipeline.set_library(std::make_shared<index::LibraryIndex>(
      index::LibraryIndex::open(artifact)));
  return pipeline.run(queries);
}

/// Thread-safe collector for a session's on_accept stream.
struct PsmCollector {
  std::mutex mu;
  std::vector<core::Psm> psms;
  void operator()(const core::Psm& p) {
    const std::lock_guard lock(mu);
    psms.push_back(p);
  }
};

/// Sorts callback deliveries (clearance order) into accepted-list order.
void sort_like_accepted(std::vector<core::Psm>& psms) {
  std::sort(psms.begin(), psms.end(),
            [](const core::Psm& a, const core::Psm& b) {
              return a.query_id < b.query_id;
            });
}

void expect_streamed_exactly_accepted(std::vector<core::Psm> streamed,
                                      const core::PipelineResult& result,
                                      const std::string& what) {
  sort_like_accepted(streamed);
  ASSERT_EQ(streamed.size(), result.accepted.size()) << what;
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].query_id, result.accepted[i].query_id)
        << what << " streamed " << i;
    EXPECT_EQ(streamed[i].peptide, result.accepted[i].peptide)
        << what << " streamed " << i;
    EXPECT_EQ(streamed[i].score, result.accepted[i].score)
        << what << " streamed " << i;
  }
}

// ---------------------------------------------------------------------------
// Isolation keystone: 5 concurrent tenants across three backends and two
// artifacts; every session must match its solo run bit for bit, and every
// on_accept stream must be exactly the accepted set.

TEST(SearchServer, ConcurrentSessionsBitIdenticalToSoloRuns) {
  const auto exact_cfg = serve_config("ideal-hd");
  auto imc_cfg = serve_config("rram-statistical");
  auto sharded_cfg = serve_config("sharded");
  sharded_cfg.backend_options.max_refs_per_shard = 150;
  const std::string exact_art = build_artifact("exact", exact_cfg);
  // sharded-statistical shares the IMC encoding trait (and thus the
  // fingerprint and the cache entry) with rram-statistical; only the
  // backend instances differ.
  const std::string imc_art = build_artifact("imc", imc_cfg);

  struct Tenant {
    core::PipelineConfig cfg;
    std::string artifact;
    std::vector<ms::Spectrum> queries;
  };
  std::vector<Tenant> tenants;
  tenants.push_back({exact_cfg, exact_art, matched_queries(0)});
  tenants.push_back({exact_cfg, exact_art, matched_queries(1)});
  tenants.push_back({imc_cfg, imc_art, matched_queries(2)});
  tenants.push_back({imc_cfg, imc_art, matched_queries(3)});
  tenants.push_back({sharded_cfg, imc_art, matched_queries(4)});

  std::vector<core::PipelineResult> want(tenants.size());
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    want[i] = solo_run(tenants[i].cfg, tenants[i].artifact,
                       tenants[i].queries);
    ASSERT_GT(want[i].accepted.size(), 0U) << "tenant " << i;
  }

  serve::SearchServer server;
  std::vector<std::shared_ptr<serve::Session>> sessions;
  std::vector<std::unique_ptr<PsmCollector>> collectors;
  for (auto& t : tenants) {
    auto collector = std::make_unique<PsmCollector>();
    serve::SessionConfig scfg;
    scfg.pipeline = t.cfg;
    scfg.block_size = 7;  // deliberately awkward: partial final blocks
    scfg.stage_threads = 2;
    scfg.max_in_flight = 32;
    scfg.on_accept = [c = collector.get()](const core::Psm& p) { (*c)(p); };
    sessions.push_back(server.open(t.artifact, std::move(scfg)));
    collectors.push_back(std::move(collector));
  }
  EXPECT_EQ(server.stats().sessions_open, tenants.size());

  // All tenants submit and close concurrently.
  std::vector<core::PipelineResult> got(tenants.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    threads.emplace_back([&, i] {
      for (const ms::Spectrum& q : tenants[i].queries) {
        ASSERT_TRUE(sessions[i]->submit(q));
      }
      got[i] = sessions[i]->close();
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const std::string what = "tenant " + std::to_string(i);
    expect_same_psms(want[i], got[i], what);
    expect_streamed_exactly_accepted(collectors[i]->psms, got[i], what);
    const serve::SessionStats st = sessions[i]->stats();
    EXPECT_EQ(st.submitted, tenants[i].queries.size()) << what;
    EXPECT_EQ(st.rejected, 0U) << what;
    EXPECT_EQ(st.streamed, got[i].accepted.size()) << what;
  }

  const serve::SearchServerStats st = server.stats();
  EXPECT_EQ(st.sessions_open, 0U);
  EXPECT_EQ(st.sessions_total, tenants.size());
  // Two artifacts, five leases: three were hits.
  EXPECT_EQ(st.cache.misses, 2U);
  EXPECT_EQ(st.cache.hits, 3U);
  // Both exact sessions share one backend; both statistical sessions
  // another; sharded built (and donated) its own.
  EXPECT_EQ(st.cache.backend_donations, 3U);
  EXPECT_EQ(st.cache.backend_hits, 2U);
  EXPECT_GT(st.scheduler.grants, 0U);
  EXPECT_EQ(st.scheduler.running, 0U);
}

// ---------------------------------------------------------------------------
// LibraryCache semantics.

TEST(LibraryCache, HitMissDonationCounters) {
  const auto cfg = serve_config("ideal-hd");
  const std::string art = build_artifact("exact", cfg);
  serve::LibraryCache cache;

  auto first = cache.lease(art, cfg);
  ASSERT_TRUE(first.segmented != nullptr);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(first.backend == nullptr);

  // Donate a backend the way a session's pipeline would build it.
  core::Pipeline pipeline(cfg);
  pipeline.set_library(first.segmented);
  cache.donate(art, cfg, pipeline.shared_backend());

  auto second = cache.lease(art, cfg);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(second.backend_hit);
  EXPECT_EQ(second.segmented.get(), first.segmented.get());
  EXPECT_EQ(second.backend.get(), pipeline.shared_backend().get());

  // A different seed is a different fingerprint: distinct entry, and the
  // artifact on disk no longer validates against it.
  auto other = cfg;
  other.seed = 999;
  EXPECT_THROW((void)cache.lease(art, other), std::invalid_argument);

  const serve::LibraryCacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 1U);
  EXPECT_EQ(st.misses, 1U);  // the failed lease cached nothing
  EXPECT_EQ(st.backend_donations, 1U);
  EXPECT_EQ(st.backend_hits, 1U);
  EXPECT_EQ(st.resident, 1U);
}

TEST(LibraryCache, EvictionDropsColdEntryButLeaseKeepsItAlive) {
  const auto cfg = serve_config("ideal-hd");
  const std::string art_a = build_artifact("exact", cfg);
  // Same config, different artifact file → different path → own entry.
  const std::string art_b = testing::TempDir() + "serve_exact_b.omsx";
  {
    core::Pipeline pipeline(cfg);
    pipeline.set_library(workload_with_seed(6).references);
    index::IndexBuilder::write_from_pipeline(pipeline, art_b);
  }

  serve::LibraryCacheConfig ccfg;
  ccfg.capacity = 1;
  serve::LibraryCache cache(ccfg);

  auto lease_a = cache.lease(art_a, cfg);
  std::weak_ptr<const index::SegmentedLibrary> watch = lease_a.segmented;
  auto lease_b = cache.lease(art_b, cfg);  // capacity 1: evicts A
  EXPECT_EQ(cache.stats().evictions, 1U);
  EXPECT_EQ(cache.resident(), 1U);

  // The evicted mapping survives through the outstanding lease…
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(lease_a.segmented->size(), 600U);  // targets + decoys
  // …and re-leasing A is a fresh miss that evicts B.
  auto lease_a2 = cache.lease(art_a, cfg);
  EXPECT_FALSE(lease_a2.cache_hit);
  EXPECT_EQ(cache.stats().evictions, 2U);
  // The two generations of A are distinct mappings of identical bytes.
  EXPECT_NE(lease_a2.segmented.get(), lease_a.segmented.get());

  // Dropping the last lease releases the evicted mapping.
  lease_a.segmented.reset();
  EXPECT_TRUE(watch.expired());
}

TEST(LibraryCache, FingerprintHashIsValueBasedAcrossCodePaths) {
  const auto cfg = serve_config("ideal-hd");
  const std::string art = build_artifact("exact", cfg);

  // Two code paths to the same fingerprint VALUE: derived from the config
  // in-process, and round-tripped through the artifact's bytes on disk.
  const index::IndexFingerprint from_cfg = index::fingerprint_of(cfg);
  const index::IndexFingerprint from_disk =
      index::LibraryIndex::open(art).fingerprint();
  ASSERT_TRUE(from_cfg == from_disk);

  // Regression: the cache key must hash the fields, never the raw struct
  // bytes — equal fingerprints hash equal regardless of provenance, and
  // the serve:: shim agrees with the canonical index:: hash it delegates
  // to (one entry per library, not one per code path).
  EXPECT_EQ(serve::fingerprint_hash(from_cfg),
            serve::fingerprint_hash(from_disk));
  EXPECT_EQ(serve::fingerprint_hash(from_cfg),
            index::fingerprint_hash(from_cfg));

  // And it is not degenerate: a one-field perturbation moves the hash.
  index::IndexFingerprint other = from_cfg;
  other.enc_chunks += 1;
  EXPECT_NE(serve::fingerprint_hash(other),
            serve::fingerprint_hash(from_cfg));
  other = from_cfg;
  other.injected_ber = 0.001;
  EXPECT_NE(serve::fingerprint_hash(other),
            serve::fingerprint_hash(from_cfg));
}

// Sessions that differ in any field shaping search results must never
// share a donated backend: perturbing each one alone must move the key.
TEST(LibraryCache, BackendConfigHashKeysEveryResultShapingField) {
  const core::PipelineConfig base = serve_config("ideal-hd");
  const std::uint64_t h0 = serve::backend_config_hash(base);

  // Fields that cannot shape a backend keep the key: the empty name
  // resolves to "ideal-hd", the pipeline replaces BackendOptions::seed
  // with PipelineConfig::seed, and the sharded factory replaces
  // chip.array with BackendOptions::array.
  core::PipelineConfig same = base;
  same.backend_name.clear();
  same.backend_options.seed += 1;
  same.backend_options.chip.array.rows *= 2;
  EXPECT_EQ(serve::backend_config_hash(same), h0);

  // Every other field, except the test-only shard_pool pointer.
#define PERTURB(stmt) {#stmt, [](core::PipelineConfig& c) { stmt; }}
  const std::pair<const char*, void (*)(core::PipelineConfig&)> fields[] = {
      PERTURB(c.backend_name = "sharded"),
      PERTURB(c.seed += 1),
      PERTURB(c.backend_options.activated_pairs += 1),
      PERTURB(c.backend_options.calibration_samples += 1),
      PERTURB(c.backend_options.sharded_fidelity = accel::Fidelity::kIdeal),
      PERTURB(c.backend_options.chip.array_count += 1),
      PERTURB(c.backend_options.max_refs_per_shard += 1),
      PERTURB(c.backend_options.query_block += 1),
      PERTURB(c.backend_options.parallel_shards =
                  !c.backend_options.parallel_shards),
      PERTURB(c.backend_options.array.rows += 2),
      PERTURB(c.backend_options.array.cols += 2),
      PERTURB(c.backend_options.array.adc_bits += 1),
      PERTURB(c.backend_options.array.v_pulse += 0.1),
      PERTURB(c.backend_options.array.ir_alpha += 0.01),
      PERTURB(c.backend_options.array.sense_sigma += 0.001),
      PERTURB(c.backend_options.array.wire_sigma += 0.001),
      PERTURB(c.backend_options.array.read_time_s += 1.0),
      PERTURB(c.backend_options.array.read_disturb_us += 0.1),
      PERTURB(c.backend_options.array.cell.levels = 4),
      PERTURB(c.backend_options.array.cell.g_min_us += 0.5),
      PERTURB(c.backend_options.array.cell.g_max_us += 0.5),
      PERTURB(c.backend_options.array.cell.sigma_program_us += 0.1),
      PERTURB(c.backend_options.array.cell.relax_sigma_us += 0.01),
      PERTURB(c.backend_options.array.cell.relax_tau_s += 1.0),
      PERTURB(c.backend_options.array.cell.drift_frac += 0.001),
      PERTURB(c.backend_options.array.cell.mid_state_factor += 0.5),
      PERTURB(c.backend_options.array.cell.tail_prob_per_ln += 0.001),
      PERTURB(c.backend_options.array.cell.tail_sigma_us += 0.5),
      PERTURB(c.backend_options.array.cell.common_mode_fraction -= 0.05),
      PERTURB(c.backend_options.array.cell.write_verify_iterations += 1),
      PERTURB(c.backend_options.array.cell.verify_tolerance_us += 0.1),
  };
#undef PERTURB
  for (const auto& [field, perturb] : fields) {
    core::PipelineConfig cfg = base;
    perturb(cfg);
    EXPECT_NE(serve::backend_config_hash(cfg), h0) << field;
  }
}

TEST(LibraryCache, DonateAfterEvictionIsACleanNoOp) {
  const auto cfg = serve_config("ideal-hd");
  const std::string art_a = build_artifact("exact", cfg);
  const std::string art_b = testing::TempDir() + "serve_exact_d.omsx";
  {
    core::Pipeline pipeline(cfg);
    pipeline.set_library(workload_with_seed(8).references);
    index::IndexBuilder::write_from_pipeline(pipeline, art_b);
  }

  serve::LibraryCacheConfig ccfg;
  ccfg.capacity = 1;
  serve::LibraryCache cache(ccfg);

  // A session leases A and builds its backend, exactly as serve::Session
  // does; meanwhile B's lease evicts A's cache entry.
  auto lease_a = cache.lease(art_a, cfg);
  core::Pipeline pipeline(cfg);
  pipeline.set_library(lease_a.segmented);
  auto lease_b = cache.lease(art_b, cfg);
  EXPECT_EQ(cache.stats().evictions, 1U);

  // The straggler donation arrives after the eviction: it must neither
  // resurrect the dead entry nor count as a donation nor disturb B.
  cache.donate(art_a, cfg, pipeline.shared_backend());
  EXPECT_EQ(cache.stats().backend_donations, 0U);
  EXPECT_EQ(cache.resident(), 1U);

  // A fresh lease of A misses cleanly, with no stale backend attached
  // (it evicts B in turn — capacity is still 1).
  auto lease_a2 = cache.lease(art_a, cfg);
  EXPECT_FALSE(lease_a2.cache_hit);
  EXPECT_FALSE(lease_a2.backend_hit);
  EXPECT_TRUE(lease_a2.backend == nullptr);
  EXPECT_EQ(cache.stats().evictions, 2U);

  // The evicted-but-leased mapping stayed fully usable throughout.
  const auto queries = matched_queries(3);
  expect_same_psms(solo_run(cfg, art_a, queries), pipeline.run(queries),
                   "evicted-but-leased pipeline");
}

TEST(SearchServer, EvictedLibraryStillServesItsOpenSession) {
  const auto cfg = serve_config("ideal-hd");
  const std::string art_a = build_artifact("exact", cfg);
  const std::string art_b = testing::TempDir() + "serve_exact_c.omsx";
  {
    core::Pipeline pipeline(cfg);
    pipeline.set_library(workload_with_seed(7).references);
    index::IndexBuilder::write_from_pipeline(pipeline, art_b);
  }
  const auto queries = matched_queries(0);
  const auto want = solo_run(cfg, art_a, queries);

  serve::SearchServerConfig srv_cfg;
  srv_cfg.cache.capacity = 1;
  serve::SearchServer server(srv_cfg);

  serve::SessionConfig scfg;
  scfg.pipeline = cfg;
  auto session_a = server.open(art_a, scfg);
  // Feed half the stream, then force A's eviction by opening B.
  const std::size_t half = queries.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(session_a->submit(queries[i]));
  }
  auto session_b = server.open(art_b, scfg);
  EXPECT_EQ(server.stats().cache.evictions, 1U);
  // A's lease keeps serving: the rest of the stream, then an exact close.
  for (std::size_t i = half; i < queries.size(); ++i) {
    ASSERT_TRUE(session_a->submit(queries[i]));
  }
  expect_same_psms(want, session_a->close(), "evicted-but-leased session");
  (void)session_b->close();
}

// ---------------------------------------------------------------------------
// close() flush exactness (the close_stream satellite, end to end): the
// on_accept stream over a session's whole life is exactly the accepted
// set — no promise, no duplicates, nothing held back.

TEST(SearchServer, CloseFlushesExactlyTheAcceptedSet) {
  const auto cfg = serve_config("ideal-hd");
  const std::string art = build_artifact("exact", cfg);
  const auto queries = matched_queries(1);

  serve::SearchServer server;
  PsmCollector collector;
  serve::SessionConfig scfg;
  scfg.pipeline = cfg;
  scfg.block_size = 5;
  scfg.on_accept = [&collector](const core::Psm& p) { collector(p); };
  auto session = server.open(art, scfg);
  for (const ms::Spectrum& q : queries) {
    ASSERT_TRUE(session->submit(q));
  }
  const core::PipelineResult result = session->close();
  ASSERT_GT(result.accepted.size(), 0U);
  expect_streamed_exactly_accepted(collector.psms, result, "close flush");

  // The lifecycle is one-shot.
  EXPECT_THROW((void)session->close(), std::logic_error);
  EXPECT_THROW((void)session->submit(queries[0]), std::logic_error);
}

// ---------------------------------------------------------------------------
// Admission control: a stalled substrate fills the in-flight quota; the
// Reject policy then sheds load instead of buffering without bound, and
// the session still answers exactly for what it admitted.

/// Gate shared between the test and the registered backend: while closed,
/// every search parks, so admitted searchable queries can never resolve.
struct SubstrateGate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  void release() {
    {
      const std::lock_guard lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void wait() {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return open; });
  }
};
SubstrateGate g_gate;

class GatedBackend final : public core::SearchBackend {
 public:
  GatedBackend(std::span<const util::BitVec> refs,
               const core::BackendOptions& opts)
      : inner_(core::make_backend("ideal-hd", refs, opts)) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "gated-test";
  }
  [[nodiscard]] std::vector<hd::SearchHit> top_k(
      const util::BitVec& query, std::size_t first, std::size_t last,
      std::size_t k, std::uint64_t stream) override {
    g_gate.wait();
    return inner_->top_k(query, first, last, k, stream);
  }
  [[nodiscard]] core::BackendStats stats() const override {
    return inner_->stats();
  }

 private:
  std::unique_ptr<core::SearchBackend> inner_;
};

TEST(SearchServer, RejectPolicyShedsLoadOnStalledSubstrate) {
  core::BackendRegistry::instance().register_backend(
      "gated-test",
      [](std::span<const util::BitVec> refs, const core::BackendOptions& o) {
        return std::make_unique<GatedBackend>(refs, o);
      });
  // Exact encoding trait → shares the ideal-hd artifact fingerprint.
  auto cfg = serve_config("gated-test");
  const std::string art = build_artifact("exact", serve_config("ideal-hd"));
  const auto queries = matched_queries(2);

  serve::SearchServer server;
  serve::SessionConfig scfg;
  scfg.pipeline = cfg;
  scfg.block_size = 1;
  scfg.stage_threads = 1;
  scfg.queue_blocks = 2;
  scfg.max_in_flight = 3;
  scfg.admit = serve::AdmitPolicy::Reject;
  auto session = server.open(art, scfg);

  // With the gate closed nothing searchable resolves, so at most
  // max_in_flight (+ preprocess-filtered strays) submissions land before
  // rejections start.
  std::vector<ms::Spectrum> admitted;
  std::size_t rejections = 0;
  for (const ms::Spectrum& q : queries) {
    if (session->submit(q)) {
      admitted.push_back(q);
    } else {
      ++rejections;
    }
  }
  EXPECT_GT(rejections, 0U);
  EXPECT_LT(admitted.size(), queries.size());
  EXPECT_EQ(session->stats().rejected, rejections);

  g_gate.release();
  const core::PipelineResult result = session->close();
  // The admitted prefix is answered exactly — rejection is load shedding,
  // not corruption. (Gate open → the backend is ideal-hd bit for bit.)
  expect_same_psms(solo_run(cfg, art, admitted), result, "admitted subset");
}

// ---------------------------------------------------------------------------
// FairScheduler: round-robin across streams, FIFO within a stream.

TEST(FairScheduler, RoundRobinAcrossStreamsFifoWithin) {
  serve::FairScheduler sched(1);  // one slot serializes everything
  const std::uint64_t a = sched.register_stream();
  const std::uint64_t b = sched.register_stream();
  const std::uint64_t c = sched.register_stream();

  std::mutex order_mu;
  std::vector<std::string> order;
  SubstrateGate first_block;

  // Occupy the slot with A so the other submissions park deterministically.
  std::thread holder([&] {
    sched.run(a, [&] { first_block.wait(); });
  });
  while (sched.stats().running == 0) std::this_thread::yield();

  auto queued = [&](std::uint64_t id, const std::string& label) {
    return std::thread([&, id, label] {
      sched.run(id, [&, label] {
        const std::lock_guard lock(order_mu);
        order.push_back(label);
      });
    });
  };
  std::vector<std::thread> workers;
  // Queue in stream-FIFO order: B1 B2 B3, C1 C2, A2. Spawn one at a time
  // and wait for each to park so within-stream order is deterministic.
  const std::pair<std::uint64_t, std::string> plan[] = {
      {b, "B1"}, {b, "B2"}, {b, "B3"}, {c, "C1"}, {c, "C2"}, {a, "A2"}};
  std::size_t parked = 0;
  for (const auto& [id, label] : plan) {
    workers.push_back(queued(id, label));
    ++parked;
    while (sched.stats().waiting < parked) std::this_thread::yield();
  }

  first_block.release();
  holder.join();
  for (auto& w : workers) w.join();

  // Cursor sat at A (it ran last); rotation then interleaves fairly:
  // B C A B C B — stream B's backlog cannot starve C or A.
  const std::vector<std::string> expected = {"B1", "C1", "A2",
                                             "B2", "C2", "B3"};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sched.stats().grants, 7U);  // holder + six queued

  sched.unregister_stream(a);
  sched.unregister_stream(b);
  sched.unregister_stream(c);
  EXPECT_EQ(sched.stats().streams, 0U);
  EXPECT_THROW(sched.unregister_stream(a), std::logic_error);
}

// ---------------------------------------------------------------------------
// Server capacity gate.

TEST(SearchServer, MaxSessionsIsEnforcedAndReleasedOnClose) {
  const auto cfg = serve_config("ideal-hd");
  const std::string art = build_artifact("exact", cfg);

  serve::SearchServerConfig srv_cfg;
  srv_cfg.max_sessions = 2;
  serve::SearchServer server(srv_cfg);
  serve::SessionConfig scfg;
  scfg.pipeline = cfg;

  auto s1 = server.open(art, scfg);
  auto s2 = server.open(art, scfg);
  EXPECT_THROW((void)server.open(art, scfg), std::runtime_error);
  (void)s1->close();
  auto s3 = server.open(art, scfg);  // slot freed by the close
  EXPECT_EQ(server.stats().sessions_open, 2U);
  (void)s2->close();
  (void)s3->close();

  // A failed open (bad path) must not leak capacity either.
  EXPECT_THROW((void)server.open(testing::TempDir() + "missing.omsx", scfg),
               std::exception);
  EXPECT_EQ(server.stats().sessions_open, 0U);
}

// The observability contract of the serve layer: metrics_snapshot() (the
// STATS verb's payload) carries per-session query/PSM counts, cache and
// scheduler gauges, and the engine's stage histograms — and the numbers
// agree with the results the sessions actually returned.
TEST(SearchServerObs, MetricsSnapshotCarriesServeAndEngineInstruments) {
  const core::PipelineConfig cfg = serve_config("ideal-hd");
  const std::string art = build_artifact("obs", cfg);
  serve::SearchServer server((serve::SearchServerConfig()));
  serve::SessionConfig scfg;
  scfg.pipeline = cfg;
  scfg.trace_sample_every = 1;  // trace every query on both streams

  auto s1 = server.open(art, scfg);
  auto s2 = server.open(art, scfg);
  const std::uint64_t id1 = s1->id();
  const std::uint64_t id2 = s2->id();
  const auto q1 = matched_queries(0);
  const auto q2 = matched_queries(1);
  for (const auto& q : q1) ASSERT_TRUE(s1->submit(q));
  for (const auto& q : q2) ASSERT_TRUE(s2->submit(q));

  // Per-session tracer: every admitted query completed exactly one span.
  ASSERT_NE(s1->tracer(), nullptr);
  const core::PipelineResult r1 = s1->close();
  const core::PipelineResult r2 = s2->close();
  EXPECT_EQ(s1->tracer()->completed_total(), q1.size());
  EXPECT_EQ(s1->tracer()->open_spans(), 0U);
  ASSERT_FALSE(r1.accepted.empty());
  ASSERT_FALSE(r2.accepted.empty());

  const obs::Snapshot snap = server.metrics_snapshot();
  EXPECT_EQ(snap.counter("serve.queries_total"), q1.size() + q2.size());
  EXPECT_EQ(snap.counter("serve.psms_total"),
            r1.accepted.size() + r2.accepted.size());
  EXPECT_EQ(snap.counter("serve.admission.rejected"), 0U);
  EXPECT_EQ(
      snap.counter("serve.session." + std::to_string(id1) + ".queries"),
      q1.size());
  EXPECT_EQ(
      snap.counter("serve.session." + std::to_string(id2) + ".queries"),
      q2.size());
  EXPECT_EQ(snap.counter("serve.session." + std::to_string(id1) + ".psms"),
            r1.accepted.size());

  EXPECT_EQ(snap.gauge("serve.sessions_total"), 2.0);
  EXPECT_EQ(snap.gauge("serve.sessions_open"), 0.0);
  EXPECT_GE(snap.gauge("serve.cache.misses"), 1.0);  // first open
  EXPECT_GE(snap.gauge("serve.cache.hits"), 1.0);    // second open
  EXPECT_GT(snap.gauge("serve.scheduler.grants"), 0.0);

  const obs::HistogramSnapshot* open_h = snap.histogram("serve.open_seconds");
  ASSERT_NE(open_h, nullptr);
  EXPECT_EQ(open_h->count, 2U);
  // Both streams accepted PSMs, so both observed a first-PSM latency.
  const obs::HistogramSnapshot* first_psm =
      snap.histogram("serve.first_psm_seconds");
  ASSERT_NE(first_psm, nullptr);
  EXPECT_EQ(first_psm->count, 2U);
  const obs::HistogramSnapshot* search =
      snap.histogram("engine.stage.search_seconds");
  ASSERT_NE(search, nullptr);
  EXPECT_GT(search->count, 0U);
  EXPECT_LE(search->percentile(0.50), search->percentile(0.99));

  // The STATS verb ships exactly this snapshot as one JSON line.
  const std::string json = snap.to_json();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"serve.queries_total\":"), std::string::npos);
  EXPECT_NE(json.find("\"engine.stage.search_seconds\":"), std::string::npos);
}

}  // namespace
