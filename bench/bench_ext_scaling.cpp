// Extension — grid-size scaling.
//
// §1 motivates the design with scale ("hundreds of physicists...millions of
// jobs...large number of storage, compute, and network resources"). This
// bench grows the grid (sites, users, datasets and jobs together, constant
// per-site load) and checks that the decoupled recommendation is
// scale-stable while the hotspot pathology of JobDataPresent-without-
// replication worsens with community size (more users hammering the same
// master copies).
#include <cstdio>

#include "common.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int bench_main(int argc, char** argv) {
  using namespace chicsim;
  using core::DsAlgorithm;
  using core::EsAlgorithm;
  util::CliParser cli("bench_ext_scaling", "grow the grid at constant per-site load");
  bench::add_standard_options(cli);
  cli.add_option("scales", "0.5,1,2", "scale factors applied to sites/users/datasets/jobs");
  if (!cli.parse(argc, argv)) return 0;

  core::SimulationConfig base = bench::config_from_cli(cli);
  auto seeds = bench::seeds_from_cli(cli);
  unsigned threads = bench::threads_from_cli(cli);

  std::printf("=== Extension: grid-size scaling (%zu seeds) ===\n\n", seeds.size());
  util::TablePrinter table({"scale", "sites", "users", "jobs", "DP+Repl (s)",
                            "DP+None (s)", "hotspot penalty"});
  std::vector<double> winner;
  std::vector<double> penalty;
  for (double k : bench::doubles_from_cli(cli, "scales")) {
    core::SimulationConfig cfg = base;
    cfg.num_sites = static_cast<std::size_t>(30 * k);
    cfg.num_regions = std::max<std::size_t>(1, static_cast<std::size_t>(6 * k));
    cfg.num_users = static_cast<std::size_t>(120 * k);
    cfg.num_datasets = static_cast<std::size_t>(200 * k);
    cfg.total_jobs = cfg.num_users * base.total_jobs / 120;  // jobs/user constant
    core::ExperimentRunner runner(cfg, seeds);
    double repl =
        runner.run_cell(EsAlgorithm::JobDataPresent, DsAlgorithm::DataLeastLoaded, threads)
            .avg_response_time_s;
    double none = runner.run_cell(EsAlgorithm::JobDataPresent, DsAlgorithm::DataDoNothing, threads)
                      .avg_response_time_s;
    table.add_row({util::format_fixed(k, 1), std::to_string(cfg.num_sites),
                   std::to_string(cfg.num_users), std::to_string(cfg.total_jobs),
                   util::format_fixed(repl, 1), util::format_fixed(none, 1),
                   util::format_fixed(none / repl, 2)});
    winner.push_back(repl);
    penalty.push_back(none / repl);
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\n'hotspot penalty' = DataDoNothing response / DataLeastLoaded response for "
              "JobDataPresent.\n");

  std::printf("\n=== shape checks ===\n");
  bench::ShapeChecks checks;
  double spread = *std::max_element(winner.begin(), winner.end()) /
                  *std::min_element(winner.begin(), winner.end());
  checks.check(spread < 1.5,
               "the decoupled recommendation is scale-stable at constant per-site load");
  checks.check(penalty.back() >= penalty.front() * 0.8,
               "the hotspot pathology does not fade as the community grows");
  return checks.finish();
}
