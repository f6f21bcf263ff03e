// Extension — multiple input files per job (the paper's stated future
// work: "we will investigate more realistic scenarios (e.g., multiple input
// files)").
//
// Sweeps the number of distinct input files per job while holding the total
// input volume distribution roughly fixed (runtime still scales with total
// gigabytes). Expected shape: with more inputs per job it becomes harder
// for any single site to hold all of a job's data, so JobDataPresent's
// advantage narrows but — with replication consolidating hot data — it
// keeps beating data-blind placement.
#include <cstdio>

#include "common.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int bench_main(int argc, char** argv) {
  using namespace chicsim;
  using core::DsAlgorithm;
  using core::EsAlgorithm;
  util::CliParser cli("bench_ext_multi_input", "sweep inputs per job (paper future work)");
  bench::add_standard_options(cli);
  cli.add_option("max-inputs", "3", "largest inputs-per-job value to test");
  if (!cli.parse(argc, argv)) return 0;

  core::SimulationConfig base = bench::config_from_cli(cli);
  auto seeds = bench::seeds_from_cli(cli);
  unsigned threads = bench::threads_from_cli(cli);
  auto max_inputs = static_cast<std::size_t>(cli.get_int("max-inputs"));

  std::printf("=== Extension: multiple input files per job (%zu jobs, %zu seeds) ===\n\n",
              base.total_jobs, seeds.size());
  util::TablePrinter table({"inputs/job", "JobDataPresent+Repl (s)", "JobLeastLoaded+Repl (s)",
                            "advantage", "fetch MB/job (DP)"});
  std::vector<double> advantage;
  for (std::size_t k = 1; k <= max_inputs; ++k) {
    core::SimulationConfig cfg = base;
    cfg.inputs_per_job = k;
    core::ExperimentRunner runner(cfg, seeds);
    auto dp = runner.run_cell(EsAlgorithm::JobDataPresent, DsAlgorithm::DataLeastLoaded, threads);
    auto ll = runner.run_cell(EsAlgorithm::JobLeastLoaded, DsAlgorithm::DataLeastLoaded, threads);
    table.add_row({std::to_string(k), util::format_fixed(dp.avg_response_time_s, 1),
                   util::format_fixed(ll.avg_response_time_s, 1),
                   util::format_fixed(ll.avg_response_time_s / dp.avg_response_time_s, 2),
                   util::format_fixed(dp.avg_fetch_per_job_mb, 1)});
    advantage.push_back(ll.avg_response_time_s / dp.avg_response_time_s);
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\n'advantage' = JobLeastLoaded response / JobDataPresent response (> 1 means\n"
              "data-aware placement wins).\n");

  std::printf("\n=== shape checks ===\n");
  bench::ShapeChecks checks;
  for (std::size_t k = 0; k < advantage.size(); ++k) {
    checks.check(advantage[k] > 1.0,
                 "data-aware placement keeps winning with " + std::to_string(k + 1) +
                     " input(s) per job");
  }
  return checks.finish();
}
