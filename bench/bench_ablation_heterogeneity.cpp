// Ablation — processor heterogeneity.
//
// §3 assumes "all processors have the same performance". This bench draws
// per-site speed factors from [1-s, 1+s] and asks whether the paper's
// conclusions survive heterogeneous hardware: load-blind data-affinity
// scheduling (JobDataPresent) cannot tell a fast site from a slow one, so a
// spread should erode — but not overturn — its advantage, while the
// estimate-driven JobBestEstimate extension exploits the speed information.
#include <cstdio>

#include "common.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int bench_main(int argc, char** argv) {
  using namespace chicsim;
  using core::DsAlgorithm;
  using core::EsAlgorithm;
  util::CliParser cli("bench_ablation_heterogeneity", "sweep per-site processor speeds");
  bench::add_standard_options(cli);
  cli.add_option("sweep", "0,0.2,0.4,0.6", "speed spreads to test (factor in [1-s, 1+s])");
  if (!cli.parse(argc, argv)) return 0;

  core::SimulationConfig base = bench::config_from_cli(cli);
  auto seeds = bench::seeds_from_cli(cli);
  unsigned threads = bench::threads_from_cli(cli);

  std::printf("=== Ablation: processor heterogeneity (%zu jobs, %zu seeds) ===\n\n",
              base.total_jobs, seeds.size());
  util::TablePrinter table({"speed spread", "JobDataPresent+Repl (s)", "JobLocal+Repl (s)",
                            "JobBestEstimate+Repl (s)"});
  std::vector<double> dp;
  std::vector<double> best;
  for (double spread : bench::doubles_from_cli(cli, "sweep")) {
    core::SimulationConfig cfg = base;
    cfg.compute_speed_spread = spread;
    core::ExperimentRunner runner(cfg, seeds);
    double r_dp =
        runner.run_cell(EsAlgorithm::JobDataPresent, DsAlgorithm::DataLeastLoaded, threads)
            .avg_response_time_s;
    double r_local = runner.run_cell(EsAlgorithm::JobLocal, DsAlgorithm::DataLeastLoaded, threads)
                         .avg_response_time_s;
    double r_best =
        runner.run_cell(EsAlgorithm::JobBestEstimate, DsAlgorithm::DataLeastLoaded, threads)
            .avg_response_time_s;
    table.add_row({util::format_fixed(spread, 1), util::format_fixed(r_dp, 1),
                   util::format_fixed(r_local, 1), util::format_fixed(r_best, 1)});
    dp.push_back(r_dp);
    best.push_back(r_best);
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf("\n=== shape checks ===\n");
  bench::ShapeChecks checks;
  checks.check(dp.back() < 2.0 * dp.front(),
               "the paper's winner degrades gracefully under heterogeneity");
  checks.check(best.back() < dp.back() * 1.1,
               "speed-aware estimation copes with heterogeneous hardware at least as "
               "well as data affinity alone");
  return checks.finish();
}
