// Fig. 12 + §5.3.3 + §5.2.2: speedup and energy-efficiency comparison of
// this work against ANN-SoLo (CPU/GPU) and HyperOMS (GPU) on the iPRG2012
// workload, from the analytic performance model, plus the throughput
// comparison against the MLC CIM macro of Li et al. (JSSC 2022).
//
// The paper simulates these numbers as well; every model constant is
// printed below so the fit is transparent (see DESIGN.md).
#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.hpp"

#include "accel/perf_model.hpp"
#include "ms/library.hpp"

namespace {

/// One "This Work" row (time/energy) of a model, for the measured-vs-
/// analytic comparison at bench scale.
void add_this_work_row(oms::util::Table& table, const char* label,
                       const oms::accel::PerfModel& model) {
  table.add_row({label,
                 std::to_string(model.search_phase_count()),
                 std::to_string(model.charged_entry_count()),
                 oms::util::Table::fmt(model.this_work_time_s() * 1e3, 3),
                 oms::util::Table::fmt(model.this_work_energy_j() * 1e3, 3)});
}

}  // namespace

int main(int argc, char** argv) {
  const oms::util::Cli cli(argc, argv);

  oms::bench::print_header(
      "Fig. 12: speedup and energy efficiency",
      "paper Fig. 12 (1.00x/1.41x/5.44x/2993.61x) and §5.3.3 speedups "
      "(76.7x/24.8x/1.7x)");

  oms::accel::PerfWorkload wl;  // paper-scale iPRG2012 by default
  wl.n_queries = static_cast<std::uint64_t>(cli.get("queries", 16000L));
  wl.n_references = static_cast<std::uint64_t>(cli.get("refs", 2000000L));

  // Measure the OMS candidate fraction empirically from a scaled workload
  // instead of assuming it: build the RRAM pipeline's own mass-sorted
  // library (targets + synthesized decoys) and average the ±500 Da window
  // selectivity over the query population. Running the sample queries
  // through the pipeline also populates the substrate counters the
  // measured model path consumes below, so the analytic model's inputs sit
  // next to the simulated accounting they abstract.
  // One rram-statistical run per chip count: the library's own, then the
  // library forced across 8 chip slices.
  std::vector<oms::core::BackendStats> chip_runs;
  oms::accel::PerfWorkload wl_bench;  // the measured run, at its own scale
  {
    auto wcfg = oms::bench::bench_workloads(0.25).iprg;
    const oms::ms::Workload sample = oms::ms::generate_workload(wcfg);
    oms::core::PipelineConfig pcfg = oms::bench::paper_pipeline_config(2048);
    pcfg.backend_name = "rram-statistical";
    oms::core::Pipeline pipeline(pcfg);
    pipeline.set_library(sample.references);

    const oms::ms::PreprocessConfig pre;
    const auto queries = oms::ms::preprocess_all(sample.queries, pre);
    double fraction_sum = 0.0;
    for (const auto& q : queries) {
      const auto [first, last] =
          pipeline.library().mass_window(q.precursor_mass, 500.0);
      fraction_sum += static_cast<double>(last - first) /
                      static_cast<double>(pipeline.library().size());
    }
    if (!queries.empty()) {
      wl.candidate_fraction =
          fraction_sum / static_cast<double>(queries.size());
    }
    (void)pipeline.run(sample.queries);
    chip_runs.push_back(pipeline.backend_stats());

    oms::core::PipelineConfig scfg = pcfg;
    scfg.backend_options.max_refs_per_shard =
        std::max<std::size_t>(1, pipeline.library().size() / 8);
    oms::core::Pipeline sliced(scfg);
    sliced.set_library(sample.references);
    (void)sliced.run(sample.queries);
    chip_runs.push_back(sliced.backend_stats());
    for (const auto& s : chip_runs) oms::bench::print_backend_stats(s);

    wl_bench = oms::bench::measured_workload(
        "bench-scale", sample.queries.size(), pipeline.library().size(),
        pcfg.encoder.dim, pcfg.encoder.chunks);
    wl_bench.candidate_fraction = wl.candidate_fraction;
    std::printf("measured OMS candidate fraction (±500 Da): %.3f\n\n",
                wl.candidate_fraction);
  }

  const oms::accel::RramPerfConfig hw;
  const oms::accel::PerfModel model(wl, hw);

  oms::util::Table table({"tool", "time (s)", "avg power (W)", "energy (J)",
                          "speedup of this work", "energy improvement"});
  for (const auto& row : model.compare()) {
    table.add_row({row.tool, oms::util::Table::fmt(row.time_s, 1),
                   oms::util::Table::fmt(row.power_w, 1),
                   oms::util::Table::fmt(row.energy_j, 0),
                   oms::util::Table::fmt(row.speedup_vs_tool, 1) + "x",
                   oms::util::Table::fmt(row.energy_improvement, 2) + "x"});
  }
  std::printf("%s\n", table.str().c_str());

  std::printf("Paper reference points: energy improvement 1.00x / 1.41x / "
              "5.44x / 2993.61x;\nspeedups 76.7x (CPU), 24.8x (GPU), 1.7x "
              "(HyperOMS).\n\n");

  // Measured-counters model at the sample-run scale: the same PerfModel,
  // but with the search-phase and chip-entry counts the runs actually
  // recorded (PerfModel::from_measured) instead of the candidate-fraction
  // estimate. The batched sweeps amortize activation phases across each
  // query block, so the measured rows sit below the analytic one — the
  // amortization the counters were built to quantify.
  {
    oms::util::Table mtable({"this-work model (bench scale)", "search phases",
                             "chip entries", "time (ms)", "energy (mJ)"});
    add_this_work_row(mtable, "analytic (candidate fraction)",
                      oms::accel::PerfModel(wl_bench, hw));
    for (const auto& s : chip_runs) {
      const std::string label =
          "measured (" + std::to_string(s.shards) + " chips)";
      add_this_work_row(mtable, label.c_str(),
                        oms::accel::PerfModel::from_measured(s, wl_bench, hw));
    }
    std::printf("%s\n", mtable.str().c_str());
    std::printf(
        "Measured rows consume BackendStats (phases_executed, shard_entries,\n"
        "query_blocks) from the rram-statistical runs above; each block pays\n"
        "one chip entry per chip slice its windows meet, charged "
        "%.1f us / %.2f nJ\n(interconnect + top-k merge, "
        "accel/mapper.hpp).\n\n",
        hw.t_shard_entry_s * 1e6, hw.e_shard_entry_j * 1e9);
  }

  std::printf("§5.2.2: throughput gain vs Li et al. JSSC'22 MLC CIM macro "
              "(max 4 rows, 3 levels): %.0fx (paper: 16x)\n\n",
              model.throughput_gain_vs_li2022());

  std::printf("Model constants:\n");
  std::printf("  workload: %llu queries, %llu refs (incl. decoys), "
              "candidate fraction %.2f, D=%u, %u LV chunks\n",
              static_cast<unsigned long long>(wl.n_queries),
              static_cast<unsigned long long>(wl.n_references),
              wl.candidate_fraction, wl.dim, wl.chunks);
  std::printf("  this work: %zu arrays, %zu activated pairs/phase, %zu "
              "ADCs/array, %.0f ns cycle,\n              %.3f pJ/cell-read, "
              "%.1f pJ/ADC conversion, %.1f W static\n",
              hw.arrays, hw.activated_pairs, hw.adcs_per_array,
              hw.cycle_s * 1e9, hw.e_cell_read_j * 1e12, hw.e_adc_j * 1e12,
              hw.p_static_w);
  for (const auto& b : oms::accel::PerfModel::default_baselines()) {
    std::printf("  %s: slowdown %.1fx (published), avg system power %.0f W "
                "(fitted, see DESIGN.md)\n",
                b.name.c_str(), b.slowdown, b.power_w);
  }
  return 0;
}
