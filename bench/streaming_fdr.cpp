// Streaming FDR: time-to-first-accepted-PSM and emission latency under the
// QueryEngine's Rolling emission policy, against the batch AtDrain
// baseline where every identification waits for the full drain. The
// rolling run is bit-identical in its final PSM list — what changes is
// *when* confident hits become available.
//
// Rolling emission is guaranteed-correct (a released PSM is never rejected
// by the final filter), which has a price the bench surfaces directly: at
// FDR threshold tau, a release needs the outstanding-query count R to
// satisfy R <= tau * targets_above - decoys_above, so the first confident
// hit cannot appear before roughly a (1 - tau) fraction of the stream has
// been scored. The threshold sweep shows that law: tighter thresholds emit
// later, looser ones stream hits out well before the drain.
//
// Emits BENCH_streaming_fdr.json so successive PRs have machine-readable
// data points: per-threshold first-result latency, mean emission latency
// over the accepted set, early-released fraction, and full-drain wall.
//
// Usage: streaming_fdr [--scale=1.0] [--backend=ideal-hd]
//                      [--block=16] [--threads=4] [--reps=3]
//                      [--out=BENCH_streaming_fdr.json]
//
// The default block size is smaller than the engine's general default:
// rolling releases fire per emitted block, so the block cadence sets the
// emission granularity at the tail of the stream where the bound clears.
//
// Default workload is the 12k-reference HEK293-like bench dataset.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/query_engine.hpp"
#include "util/thread_pool.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Measurement {
  double threshold = 0.0;
  double atdrain_wall_s = 0.0;
  double rolling_wall_s = 0.0;
  double first_accept_s = -1.0;   ///< First callback (early or flush).
  double mean_latency_s = 0.0;    ///< Mean callback time over accepted PSMs.
  std::size_t accepted = 0;
  std::size_t early = 0;          ///< Released before drain returned.
};

}  // namespace

int main(int argc, char** argv) {
  const oms::util::Cli cli(argc, argv);
  const double scale = cli.get_scaled("scale", 1.0);
  const std::string backend = cli.get("backend", std::string("ideal-hd"));
  const auto block = static_cast<std::size_t>(cli.get("block", 16L));
  const auto threads = static_cast<std::size_t>(cli.get("threads", 4L));
  const auto reps = std::max<std::size_t>(
      1, static_cast<std::size_t>(cli.get("reps", 3L)));
  const std::string out_path =
      cli.get("out", std::string("BENCH_streaming_fdr.json"));

  oms::bench::print_header(
      "Streaming FDR: rolling confident emission vs batch drain",
      "the paper's offline target-decoy filter (§3.4) made incremental");

  const auto wcfg = oms::bench::bench_workloads(scale).hek;
  const oms::ms::Workload wl = oms::ms::generate_workload(wcfg);
  std::printf("workload: %s, %zu queries vs %zu references, backend %s, "
              "B=%zu, %zu stage threads\n\n",
              wcfg.name.c_str(), wl.queries.size(), wl.references.size(),
              backend.c_str(), block, threads);

  oms::core::PipelineConfig pcfg = oms::bench::paper_pipeline_config();
  pcfg.backend_name = backend;

  // Library build is shared serving state, not part of the query latency;
  // the FDR threshold is a filter-time knob, so one pipeline serves the
  // whole sweep.
  oms::core::Pipeline pipeline(pcfg);
  pipeline.set_library(wl.references);

  const double thresholds[] = {0.01, 0.05, 0.25, 0.5};
  std::vector<Measurement> results;
  for (const double threshold : thresholds) {
    pipeline.set_fdr_threshold(threshold);
    Measurement m;
    m.threshold = threshold;

    // --- AtDrain baseline: nothing available until drain() returns. -----
    for (std::size_t rep = 0; rep < reps; ++rep) {
      oms::core::QueryEngineConfig ecfg;
      ecfg.block_size = block;
      ecfg.stage_threads = threads;
      oms::core::QueryEngine engine(pipeline, ecfg);
      const auto t0 = Clock::now();
      engine.submit_batch(wl.queries);
      const auto result = engine.drain();
      const double wall = seconds_since(t0);
      m.accepted = result.accepted.size();
      m.atdrain_wall_s =
          rep == 0 ? wall : std::min(m.atdrain_wall_s, wall);
    }

    // --- Rolling: confident hits stream out mid-run. --------------------
    for (std::size_t rep = 0; rep < reps; ++rep) {
      std::vector<double> accept_times;
      accept_times.reserve(m.accepted);
      Clock::time_point t0;

      oms::core::QueryEngineConfig ecfg;
      ecfg.block_size = block;
      ecfg.stage_threads = threads;
      ecfg.emit_policy = oms::core::EmitPolicy::Rolling;
      // Fires on the emission thread; nothing else touches accept_times
      // until after drain() returns.
      ecfg.on_accept = [&](const oms::core::Psm&) {
        accept_times.push_back(seconds_since(t0));
      };

      oms::core::QueryEngine engine(pipeline, ecfg);
      t0 = Clock::now();
      engine.submit_batch(wl.queries);
      engine.close_stream();
      const auto result = engine.drain();
      const double wall = seconds_since(t0);
      if (accept_times.empty()) continue;

      const double first =
          *std::min_element(accept_times.begin(), accept_times.end());
      if (rep == 0 || first < m.first_accept_s) {
        m.rolling_wall_s = wall;
        m.first_accept_s = first;
        double sum = 0.0;
        for (const double t : accept_times) sum += t;
        m.mean_latency_s = sum / static_cast<double>(accept_times.size());
        m.early = engine.stats().early_emitted;
        m.accepted = result.accepted.size();
      }
    }
    results.push_back(m);
  }

  oms::bench::print_backend_stats(pipeline.backend_stats());

  oms::util::Table table({"FDR", "at-drain (s)", "first PSM (s)",
                          "mean latency (s)", "accepted", "early",
                          "first-result gain"});
  for (const Measurement& m : results) {
    const double gain =
        m.first_accept_s > 0.0 ? m.atdrain_wall_s / m.first_accept_s : 0.0;
    table.add_row({oms::util::Table::fmt(m.threshold, 2),
                   oms::util::Table::fmt(m.atdrain_wall_s, 3),
                   oms::util::Table::fmt(m.first_accept_s, 3),
                   oms::util::Table::fmt(m.mean_latency_s, 3),
                   std::to_string(m.accepted), std::to_string(m.early),
                   oms::util::Table::fmt(gain, 2) + "x"});
  }
  std::printf("\n%s\n", table.str().c_str());

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"streaming_fdr\",\n"
      << "  \"backend\": \"" << backend << "\",\n"
      << "  \"references\": " << wl.references.size() << ",\n"
      << "  \"queries\": " << wl.queries.size() << ",\n"
      << "  \"block_size\": " << block << ",\n"
      << "  \"stage_threads\": " << threads << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    out << "    {\"fdr_threshold\": " << m.threshold
        << ", \"atdrain_wall_s\": " << m.atdrain_wall_s
        << ", \"rolling_wall_s\": " << m.rolling_wall_s
        << ", \"time_to_first_accepted_s\": " << m.first_accept_s
        << ", \"mean_emission_latency_s\": " << m.mean_latency_s
        << ", \"accepted\": " << m.accepted
        << ", \"early_emitted\": " << m.early
        << ", \"first_result_speedup\": "
        << (m.first_accept_s > 0.0 ? m.atdrain_wall_s / m.first_accept_s
                                   : 0.0)
        << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());

  std::printf(
      "\nExpected shape: every row's first confident hit lands before the\n"
      "at-drain wall (rolling overlaps emission with the in-flight tail\n"
      "and the drain machinery), and the gap widens as the threshold\n"
      "relaxes — the guarantee law puts the earliest possible release at\n"
      "~(1 - tau) of the stream, so tau=0.25 emits well before tau=0.01.\n"
      "Accepted counts per threshold match between modes by construction\n"
      "(the drained lists are bit-identical).\n");
  return 0;
}
