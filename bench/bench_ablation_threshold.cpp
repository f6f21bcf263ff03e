// Ablation — replication popularity threshold.
//
// DESIGN.md assumes a threshold of 10 requests per DS evaluation period.
// This bench sweeps the threshold for the paper's winning combination
// (JobDataPresent + DataLeastLoaded). Expected shape: an aggressive
// threshold replicates more (more replication traffic), a conservative one
// replicates less; response time degrades toward the DataDoNothing hotspot
// regime as the threshold grows very large.
#include <cstdio>

#include "common.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int bench_main(int argc, char** argv) {
  using namespace chicsim;
  using core::DsAlgorithm;
  using core::EsAlgorithm;
  util::CliParser cli("bench_ablation_threshold", "sweep the replication threshold");
  bench::add_standard_options(cli);
  cli.add_option("sweep", "2,5,10,25,100,100000", "threshold values to test");
  if (!cli.parse(argc, argv)) return 0;

  core::SimulationConfig base = bench::config_from_cli(cli);
  auto seeds = bench::seeds_from_cli(cli);
  unsigned threads = bench::threads_from_cli(cli);

  std::vector<double> sweep = bench::doubles_from_cli(cli, "sweep");

  std::printf("=== Ablation: replication threshold (ES=JobDataPresent, DS=DataLeastLoaded, "
              "%zu jobs, %zu seeds) ===\n\n",
              base.total_jobs, seeds.size());
  util::TablePrinter table(
      {"threshold", "response (s)", "replications", "repl MB/job", "idle (%)"});
  std::vector<double> replications;
  std::vector<double> responses;
  for (double threshold : sweep) {
    core::SimulationConfig cfg = base;
    cfg.replication_threshold = threshold;
    core::ExperimentRunner runner(cfg, seeds);
    auto cell = runner.run_cell(EsAlgorithm::JobDataPresent, DsAlgorithm::DataLeastLoaded, threads);
    table.add_row({util::format_fixed(threshold, 0),
                   util::format_fixed(cell.avg_response_time_s, 1),
                   util::format_fixed(cell.replications, 0),
                   util::format_fixed(cell.avg_replication_per_job_mb, 1),
                   util::format_fixed(100.0 * cell.idle_fraction, 1)});
    replications.push_back(cell.replications);
    responses.push_back(cell.avg_response_time_s);
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf("\n=== shape checks ===\n");
  bench::ShapeChecks checks;
  checks.check(replications.front() > replications.back(),
               "lower thresholds replicate more");
  checks.check(replications.back() < 1.0,
               "an unreachable threshold disables replication entirely");
  checks.check(responses.back() > 1.5 * responses[2],
               "disabling replication recreates the hotspot regime (response blows up)");
  return checks.finish();
}
