#include "core/search_backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/pipeline.hpp"
#include "hd/search.hpp"
#include "ms/synthetic.hpp"

namespace oms::core {
namespace {

std::vector<util::BitVec> random_refs(std::size_t n, std::size_t dim,
                                      std::uint64_t seed) {
  std::vector<util::BitVec> refs(n);
  for (std::size_t i = 0; i < n; ++i) {
    refs[i] = util::BitVec(dim);
    refs[i].randomize(seed + i);
  }
  return refs;
}

BackendOptions small_options() {
  BackendOptions opts;
  opts.calibration_samples = 512;
  opts.seed = 99;
  return opts;
}

/// Every backend must order equal-score hits by lower reference index.
void expect_deterministic_order(const std::vector<hd::SearchHit>& hits,
                                const char* what) {
  for (std::size_t i = 1; i < hits.size(); ++i) {
    const bool ok = hits[i - 1].dot > hits[i].dot ||
                    (hits[i - 1].dot == hits[i].dot &&
                     hits[i - 1].reference_index < hits[i].reference_index);
    EXPECT_TRUE(ok) << what << ": hit " << i - 1 << " (dot "
                    << hits[i - 1].dot << ", ref "
                    << hits[i - 1].reference_index << ") vs hit " << i
                    << " (dot " << hits[i].dot << ", ref "
                    << hits[i].reference_index << ")";
  }
}

TEST(BackendRegistry, ContainsBuiltinNames) {
  const auto names = BackendRegistry::instance().names();
  for (const char* expected :
       {"ideal-hd", "rram-statistical", "rram-circuit", "sharded"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(BackendRegistry, UnknownNameThrowsListingRegisteredNames) {
  const auto refs = random_refs(10, 256, 1);
  try {
    (void)make_backend("ideal-hdd", refs, small_options());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("ideal-hdd"), std::string::npos) << msg;
    // The message must list every registered name so a typo is one
    // glance away from its fix.
    for (const auto& name : BackendRegistry::instance().names()) {
      EXPECT_NE(msg.find(name), std::string::npos) << name << " in " << msg;
    }
  }
}

TEST(BackendRegistry, CustomBackendRegistersAndResolves) {
  struct NullBackend final : SearchBackend {
    [[nodiscard]] std::string_view name() const noexcept override {
      return "null";
    }
    [[nodiscard]] std::vector<hd::SearchHit> top_k(
        const util::BitVec&, std::size_t, std::size_t, std::size_t,
        std::uint64_t) override {
      return {};
    }
    [[nodiscard]] BackendStats stats() const override {
      return BackendStats{"null", 0, 1, 0, 0.0, 1.0};
    }
  };
  BackendRegistry::instance().register_backend(
      "test-null", [](std::span<const util::BitVec>, const BackendOptions&) {
        return std::make_unique<NullBackend>();
      });
  EXPECT_TRUE(BackendRegistry::instance().contains("test-null"));
  const auto refs = random_refs(4, 128, 2);
  auto backend = make_backend("test-null", refs, small_options());
  EXPECT_EQ(backend->name(), "null");
  EXPECT_TRUE(backend->top_k(refs[0], 0, 4, 2, 0).empty());
}

TEST(SearchBackend, IdealHdBitExactWithTopKSearch) {
  const auto refs = random_refs(400, 1024, 3);
  auto backend = make_backend("ideal-hd", refs, small_options());
  util::BitVec query(1024);
  query.randomize(777);

  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 400}, {13, 251}, {100, 101}, {399, 400}, {50, 50}};
  for (const auto& [first, last] : ranges) {
    for (const std::size_t k : {1UL, 5UL, 16UL}) {
      const auto expected = hd::top_k_search(query, refs, first, last, k);
      const auto got = backend->top_k(query, first, last, k, 42);
      ASSERT_EQ(got.size(), expected.size()) << first << ".." << last;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(got[i], expected[i]) << i;
      }
    }
  }
}

TEST(SearchBackend, ShardedMatchesSingleEngineForSameKeyedStream) {
  const auto refs = random_refs(600, 1024, 4);
  BackendOptions opts = small_options();
  auto single = make_backend("rram-statistical", refs, opts);

  BackendOptions sharded_opts = opts;
  sharded_opts.max_refs_per_shard = 175;  // 4 shards, ragged tail
  auto sharded = make_backend("sharded", refs, sharded_opts);
  ASSERT_GT(sharded->stats().shards, 1U);

  util::BitVec query(1024);
  query.randomize(5000);
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 600}, {50, 400}, {174, 176} /* shard boundary */, {350, 600}};
  for (const auto& [first, last] : ranges) {
    for (const std::uint64_t stream : {0ULL, 7ULL, 123456789ULL}) {
      const auto a = single->top_k(query, first, last, 5, stream);
      const auto b = sharded->top_k(query, first, last, 5, stream);
      ASSERT_EQ(a.size(), b.size()) << first << ".." << last;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], b[i])
            << "range " << first << ".." << last << " hit " << i;
      }
    }
  }
}

TEST(SearchBackend, BatchedMatchesSequentialTopK) {
  const auto refs = random_refs(500, 512, 5);
  std::vector<util::BitVec> queries(60);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    queries[i] = util::BitVec(512);
    queries[i].randomize(9000 + i);
  }

  BackendOptions sharded_opts = small_options();
  sharded_opts.max_refs_per_shard = 120;
  const std::pair<const char*, BackendOptions> cases[] = {
      {"ideal-hd", small_options()},
      {"rram-statistical", small_options()},
      {"sharded", sharded_opts},
  };
  for (const auto& [name, opts] : cases) {
    auto backend = make_backend(name, refs, opts);

    std::vector<Query> batch(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      // Varied windows so the batch is not uniform.
      batch[i] = Query{&queries[i], i % 7, refs.size() - (i % 11), i};
    }
    const auto batched = backend->search_batch(batch, 4);
    ASSERT_EQ(batched.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto sequential = backend->top_k(*batch[i].hv, batch[i].first,
                                             batch[i].last, 4, batch[i].stream);
      ASSERT_EQ(batched[i].size(), sequential.size()) << name << " q" << i;
      for (std::size_t j = 0; j < sequential.size(); ++j) {
        EXPECT_EQ(batched[i][j], sequential[j]) << name << " q" << i;
      }
    }
  }
}

TEST(SearchBackend, WrongDimensionInMultiBlockBatchThrows) {
  // query_block = 2 splits the batch into blocks that run in parallel over
  // the global pool; the 960-dim query's block must surface the driver's
  // std::invalid_argument in the caller rather than end the process.
  const auto refs = random_refs(200, 1024, 6);
  std::vector<util::BitVec> queries(8);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    queries[i] = util::BitVec(i == 5 ? 960 : 1024);
    queries[i].randomize(7000 + i);
  }
  std::vector<Query> batch(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    batch[i] = Query{&queries[i], 0, refs.size(), i};
  }
  BackendOptions opts = small_options();
  opts.query_block = 2;
  for (const char* name : {"ideal-hd", "rram-statistical"}) {
    auto backend = make_backend(name, refs, opts);
    EXPECT_THROW((void)backend->search_batch(batch, 4), std::invalid_argument)
        << name;
    // The backend still serves a well-formed batch afterwards.
    const std::span<const Query> good(batch.data(), 4);
    EXPECT_EQ(backend->search_batch(good, 4).size(), good.size()) << name;
  }
}

TEST(SearchBackend, EqualScoresOrderByLowerIndexInEveryBackend) {
  // Duplicate reference hypervectors force exact score ties. Place the
  // duplicates so they straddle the sharded backend's shard boundary.
  std::vector<util::BitVec> refs = random_refs(200, 512, 6);
  for (const std::size_t dup : {17UL, 49UL, 50UL, 121UL}) {
    refs[dup] = refs[3];
  }

  BackendOptions ideal_shards = small_options();
  ideal_shards.max_refs_per_shard = 50;
  ideal_shards.sharded_fidelity = accel::Fidelity::kIdeal;
  BackendOptions noisy_shards = ideal_shards;
  noisy_shards.sharded_fidelity = accel::Fidelity::kStatistical;

  const std::pair<const char*, BackendOptions> cases[] = {
      {"ideal-hd", small_options()},
      {"rram-statistical", small_options()},
      {"sharded", ideal_shards},
      {"sharded", noisy_shards},
  };
  for (const auto& [name, opts] : cases) {
    auto backend = make_backend(name, refs, opts);
    const auto hits = backend->top_k(refs[3], 0, refs.size(), 8, 11);
    ASSERT_FALSE(hits.empty()) << name;
    expect_deterministic_order(hits, name);
  }

  // Exact backends must surface the tied duplicates in index order.
  for (const char* name : {"ideal-hd", "sharded"}) {
    auto backend = make_backend(name, refs, ideal_shards);
    const auto hits = backend->top_k(refs[3], 0, refs.size(), 5, 11);
    ASSERT_EQ(hits.size(), 5U) << name;
    const std::size_t expected[] = {3, 17, 49, 50, 121};
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(hits[i].reference_index, expected[i]) << name << " hit " << i;
      EXPECT_EQ(hits[i].dot, 512) << name;
    }
  }
}

TEST(BackendRegistry, ImcEncodingTraitMarksDeviceSubstrates) {
  auto& reg = BackendRegistry::instance();
  const BackendOptions opts;  // default sharded_fidelity = statistical
  EXPECT_TRUE(reg.imc_encoding("rram-statistical", opts));
  EXPECT_TRUE(reg.imc_encoding("rram-circuit", opts));
  EXPECT_FALSE(reg.imc_encoding("ideal-hd", opts));
  EXPECT_FALSE(reg.imc_encoding("no-such-backend", opts));
  // Sharded encodes like the substrate its shards simulate.
  EXPECT_TRUE(reg.imc_encoding("sharded", opts));
  BackendOptions ideal = opts;
  ideal.sharded_fidelity = accel::Fidelity::kIdeal;
  EXPECT_FALSE(reg.imc_encoding("sharded", ideal));
}

TEST(SearchBackend, ShardedRejectsCircuitFidelityAtConstruction) {
  // Shards search through the thread-safe keyed path, which circuit
  // fidelity cannot provide; the factory must fail fast instead of
  // letting top_k throw inside the thread pool later.
  const auto refs = random_refs(50, 256, 8);
  BackendOptions opts = small_options();
  opts.sharded_fidelity = accel::Fidelity::kCircuit;
  EXPECT_THROW((void)make_backend("sharded", refs, opts),
               std::invalid_argument);
}

TEST(SearchBackend, StatsReportSubstrateAccounting) {
  const auto refs = random_refs(300, 512, 7);

  auto ideal = make_backend("ideal-hd", refs, small_options());
  const BackendStats is = ideal->stats();
  EXPECT_EQ(is.backend, "ideal-hd");
  EXPECT_EQ(is.references, 300U);
  EXPECT_EQ(is.shards, 1U);
  EXPECT_EQ(is.phase_sigma, 0.0);

  BackendOptions sharded_opts = small_options();
  sharded_opts.max_refs_per_shard = 100;
  auto sharded = make_backend("sharded", refs, sharded_opts);
  EXPECT_EQ(sharded->stats().shards, 3U);
  EXPECT_EQ(sharded->stats().references, 300U);

  auto rram = make_backend("rram-statistical", refs, small_options());
  EXPECT_GT(rram->stats().phase_sigma, 0.0);
  EXPECT_EQ(rram->stats().phases_executed, 0U);
  (void)rram->top_k(refs[0], 0, refs.size(), 3, 1);
  // 512 dims / 64 activated pairs = 8 phases per candidate, 300 candidates.
  EXPECT_EQ(rram->stats().phases_executed, 8U * 300U);
}

TEST(Pipeline, ShardedPipelineMatchesMonolithicRramPipeline) {
  // Scaling out must be transparent: switching backend_name from
  // "rram-statistical" to "sharded" (statistical shards) on the same
  // workload reproduces the identical PSM list — same IMC-model encoding,
  // same globally keyed search noise (see ImcSearchConfig::index_offset).
  ms::WorkloadConfig wcfg;
  wcfg.reference_count = 150;
  wcfg.query_count = 60;
  wcfg.seed = 321;
  const ms::Workload wl = ms::generate_workload(wcfg);

  PipelineConfig cfg;
  cfg.encoder.dim = 1024;
  cfg.encoder.bins = cfg.preprocess.bin_count();
  cfg.encoder.chunks = 64;
  cfg.backend_options.calibration_samples = 512;
  cfg.seed = 99;

  cfg.backend_name = "rram-statistical";
  Pipeline mono(cfg);
  mono.set_library(wl.references);
  const PipelineResult mr = mono.run(wl.queries);

  cfg.backend_name = "sharded";
  cfg.backend_options.max_refs_per_shard = 70;  // force several shards
  Pipeline sharded(cfg);
  sharded.set_library(wl.references);
  EXPECT_GT(sharded.backend_stats().shards, 1U);
  const PipelineResult sr = sharded.run(wl.queries);

  ASSERT_EQ(sr.psms.size(), mr.psms.size());
  for (std::size_t i = 0; i < mr.psms.size(); ++i) {
    EXPECT_EQ(sr.psms[i].query_id, mr.psms[i].query_id) << i;
    EXPECT_EQ(sr.psms[i].reference_index, mr.psms[i].reference_index) << i;
    EXPECT_EQ(sr.psms[i].score, mr.psms[i].score) << i;
  }
  EXPECT_EQ(sr.identification_set(), mr.identification_set());
}

TEST(Pipeline, EmptyBackendNameDefaultsToIdealHd) {
  PipelineConfig cfg;
  EXPECT_EQ(Pipeline(cfg).backend_name(), "ideal-hd");
  cfg.backend_name = "sharded";
  EXPECT_EQ(Pipeline(cfg).backend_name(), "sharded");
}

// --- BackendStats composition (the obs seam) ------------------------------

TEST(BackendStatsComposition, MergeAccumulatesCountersAndAdoptsIdentity) {
  BackendStats a;
  a.backend = "ideal-hd";
  a.references = 100;
  a.shards = 4;
  a.phases_executed = 10;
  a.phase_sigma = 0.5;
  a.gain = 0.9;
  a.shard_entries = 3;
  a.query_blocks = 2;
  a.batched_queries = 7;
  a.kernel = "avx2";
  a.contiguous_refs = true;
  a.extent_count = 3;

  BackendStats merged;
  merged += a;
  merged += a;
  // Counters accumulate; identity fields are adopted once, not doubled.
  EXPECT_EQ(merged.backend, "ideal-hd");
  EXPECT_EQ(merged.references, 100U);
  EXPECT_EQ(merged.shards, 4U);
  EXPECT_EQ(merged.phases_executed, 20U);
  EXPECT_EQ(merged.shard_entries, 6U);
  EXPECT_EQ(merged.query_blocks, 4U);
  EXPECT_EQ(merged.batched_queries, 14U);
  EXPECT_EQ(merged.kernel, "avx2");
  EXPECT_TRUE(merged.contiguous_refs);
  EXPECT_EQ(merged.extent_count, 3U);
  EXPECT_DOUBLE_EQ(merged.phase_sigma, 0.5);
  EXPECT_DOUBLE_EQ(merged.gain, 0.9);

  BackendStats via_merge;
  via_merge.merge(a);  // named alias of +=
  EXPECT_EQ(via_merge.phases_executed, 10U);
}

TEST(BackendStatsComposition, SinceClampsCountersAndKeepsIdentity) {
  BackendStats before;
  before.phases_executed = 5;
  before.shard_entries = 9;
  BackendStats after;
  after.backend = "sharded";
  after.shards = 8;
  after.phases_executed = 12;
  after.shard_entries = 4;  // counter regressed (fresh backend): clamp to 0
  const BackendStats d = after.since(before);
  EXPECT_EQ(d.phases_executed, 7U);
  EXPECT_EQ(d.shard_entries, 0U);
  EXPECT_EQ(d.backend, "sharded");
  EXPECT_EQ(d.shards, 8U);
}

/// The composition law the engine's obs scrape relies on: a streaming
/// consumer that snapshots stats at chunk boundaries and merges the
/// since() deltas must arrive at exactly the counters of one synchronous
/// run over the whole batch — for every registered backend.
TEST(BackendStatsComposition, ChunkedDeltasMergeToSynchronousCounters) {
  BackendOptions sharded_opts = small_options();
  sharded_opts.max_refs_per_shard = 64;

  struct Case {
    const char* name;
    BackendOptions opts;
    std::size_t n_refs;
    std::size_t dim;
    std::size_t n_queries;
    std::size_t chunk;  ///< Multiple of query_block: blocks split alike.
  };
  Case cases[] = {
      {"ideal-hd", small_options(), 256, 512, 48, 16},
      {"rram-statistical", small_options(), 256, 512, 48, 16},
      {"sharded", sharded_opts, 256, 512, 48, 16},
      // The circuit model walks every analog phase: keep it tiny.
      {"rram-circuit", small_options(), 48, 256, 6, 2},
  };
  for (Case& c : cases) {
    c.opts.query_block = c.chunk / 2;
    const auto refs = random_refs(c.n_refs, c.dim, 21);
    std::vector<util::BitVec> query_hvs(c.n_queries);
    std::vector<Query> batch(c.n_queries);
    for (std::size_t i = 0; i < c.n_queries; ++i) {
      query_hvs[i] = util::BitVec(c.dim);
      query_hvs[i].randomize(5000 + i);
      batch[i] = Query{&query_hvs[i], i % 5, c.n_refs - (i % 3), i};
    }
    const std::string what = c.name;

    // Both sides window from their post-construction baseline so any
    // calibration work at construction cancels out of the comparison.
    auto sync_backend = make_backend(c.name, refs, c.opts);
    const BackendStats sync_base = sync_backend->stats();
    (void)sync_backend->search_batch(batch, 4);
    const BackendStats sync = sync_backend->stats().since(sync_base);

    auto chunked_backend = make_backend(c.name, refs, c.opts);
    BackendStats merged;
    BackendStats prev = chunked_backend->stats();
    for (std::size_t lo = 0; lo < batch.size(); lo += c.chunk) {
      const std::size_t hi = std::min(batch.size(), lo + c.chunk);
      (void)chunked_backend->search_batch(
          std::vector<Query>(batch.begin() + static_cast<std::ptrdiff_t>(lo),
                             batch.begin() + static_cast<std::ptrdiff_t>(hi)),
          4);
      const BackendStats now = chunked_backend->stats();
      merged += now.since(prev);
      prev = now;
    }

    EXPECT_EQ(merged.phases_executed, sync.phases_executed) << what;
    EXPECT_EQ(merged.shard_entries, sync.shard_entries) << what;
    EXPECT_EQ(merged.query_blocks, sync.query_blocks) << what;
    EXPECT_EQ(merged.batched_queries, sync.batched_queries) << what;
    EXPECT_EQ(merged.backend, sync.backend) << what;
    EXPECT_EQ(merged.references, sync.references) << what;
    EXPECT_EQ(merged.shards, sync.shards) << what;
    EXPECT_EQ(merged.kernel, sync.kernel) << what;
    EXPECT_EQ(merged.contiguous_refs, sync.contiguous_refs) << what;
    EXPECT_DOUBLE_EQ(merged.phase_sigma, sync.phase_sigma) << what;
    EXPECT_DOUBLE_EQ(merged.gain, sync.gain) << what;
  }
}

}  // namespace
}  // namespace oms::core
