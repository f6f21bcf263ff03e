// Extension — the crossover frontier.
//
// §5.4 warns: "while we believe that the system parameters of Table 1 are
// realistic for a global scientific Grid, we must be careful to evaluate
// the impact of future technological changes on our results." Figure 5
// probes one point (10x bandwidth). This bench maps the whole frontier:
// for a grid of (bandwidth, mean dataset size) combinations it reports
// which strategy wins — ship jobs to the data (JobDataPresent+replication)
// or ship data to the jobs (JobLocal, caching only) — and by how much.
// The paper's regime (big data, thin pipes) lives in one corner; the
// crossover line shows where its recommendation expires.
#include <cstdio>

#include "common.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int bench_main(int argc, char** argv) {
  using namespace chicsim;
  using core::DsAlgorithm;
  using core::EsAlgorithm;
  util::CliParser cli("bench_ext_crossover",
                      "map the ship-jobs vs ship-data crossover frontier");
  bench::add_standard_options(cli);
  cli.add_option("bandwidths", "5,10,50,100", "bandwidth axis (MB/s)");
  cli.add_option("sizes", "500,1250,2500", "mean dataset size axis (MB)");
  if (!cli.parse(argc, argv)) return 0;

  core::SimulationConfig base = bench::config_from_cli(cli);
  auto seeds = bench::seeds_from_cli(cli);
  unsigned threads = bench::threads_from_cli(cli);

  std::vector<double> bandwidths = bench::doubles_from_cli(cli, "bandwidths");
  std::vector<double> sizes = bench::doubles_from_cli(cli, "sizes");

  std::printf("=== Extension: crossover frontier (%zu jobs, %zu seeds) ===\n\n",
              base.total_jobs, seeds.size());
  std::printf("cells show JobLocal response / JobDataPresent+Repl response:\n"
              "> 1 means sending jobs to the data wins; < 1 means moving the data wins.\n\n");

  std::vector<std::string> columns{"mean size \\ bandwidth"};
  for (double bw : bandwidths) columns.push_back(util::format_fixed(bw, 0) + " MB/s");
  util::TablePrinter table(columns);

  double paper_corner = 0.0;   // thin pipes, big data
  double future_corner = 0.0;  // fat pipes, small data
  for (double mean_size : sizes) {
    std::vector<std::string> row{util::format_fixed(mean_size, 0) + " MB"};
    for (double bw : bandwidths) {
      core::SimulationConfig cfg = base;
      cfg.link_bandwidth_mbps = bw;
      // Keep the 4x spread of Table 1 around the requested mean.
      cfg.min_dataset_mb = mean_size * 0.4;
      cfg.max_dataset_mb = mean_size * 1.6;
      cfg.storage_capacity_mb = std::max(base.storage_capacity_mb, cfg.max_dataset_mb * 25);
      core::ExperimentRunner runner(cfg, seeds);
      double dp =
          runner.run_cell(EsAlgorithm::JobDataPresent, DsAlgorithm::DataLeastLoaded, threads)
              .avg_response_time_s;
      double local = runner.run_cell(EsAlgorithm::JobLocal, DsAlgorithm::DataDoNothing, threads)
                         .avg_response_time_s;
      double ratio = local / dp;
      row.push_back(util::format_fixed(ratio, 2));
      if (bw == bandwidths.front() && mean_size == sizes.back()) paper_corner = ratio;
      if (bw == bandwidths.back() && mean_size == sizes.front()) future_corner = ratio;
    }
    table.add_row(std::move(row));
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf("\n=== shape checks ===\n");
  bench::ShapeChecks checks;
  checks.check(paper_corner > 1.3,
               "big data over thin pipes (the paper's regime): send jobs to the data");
  checks.check(future_corner < 1.3,
               "small data over fat pipes: no decisive winner — moving data is viable "
               "(the paper's §5.4 caution)");
  checks.check(paper_corner > future_corner,
               "the advantage of data-affinity scheduling grows with data/bandwidth ratio");
  return checks.finish();
}
